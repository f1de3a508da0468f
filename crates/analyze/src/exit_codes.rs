//! HW009 — the exit-code contract.
//!
//! The CLI's exit statuses are API: `0` ok, `1` internal, `2` usage,
//! `3` signoff violation (documented in docs/OBSERVABILITY.md and
//! relied on by scripts and CI). That contract survives only while
//! every exit flows through the central `EXIT_*` consts /
//! `CliError::exit_code()` in `src/bin/hotwire.rs`. This pass bans the
//! two ways a stray status sneaks in:
//!
//! * `process::exit(n)` anywhere in scanned code — it also skips
//!   destructors and the flight-recorder bundle-on-exit hook;
//! * `ExitCode::from(<integer literal>)` — a bare magic number where a
//!   named const belongs.
//!
//! `ExitCode::from(e.exit_code())` and `ExitCode::SUCCESS/FAILURE`
//! remain fine; the escape hatch, as everywhere, is
//! `// ANALYZE-ALLOW(HW009): reason`.

use crate::lints::{Lint, Violation};
use crate::scan::SourceFile;
use crate::tokens::{Tok, Token};

/// Runs the pass over one file's token stream.
pub fn check(sf: &SourceFile, tokens: &[Token], path: &str, out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if sf.lines.get(t.line - 1).is_some_and(|l| l.in_test) {
            continue;
        }
        // `process::exit(`  (with or without a `std::` prefix).
        if t.ident() == Some("exit")
            && path_prefix_is(tokens, i, "process")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(Violation {
                lint: Lint::Hw009ExitCodeContract,
                file: path.to_owned(),
                line: t.line,
                column: t.col,
                message: "`process::exit(…)` bypasses the central exit-code contract (and \
                          skips destructors + the bundle-on-exit hook) — return an ExitCode \
                          through the CliError path instead"
                    .to_owned(),
            });
        }
        // `ExitCode::from(<integer literal>)`.
        if t.ident() == Some("from")
            && path_prefix_is(tokens, i, "ExitCode")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && matches!(tokens.get(i + 2).map(|n| &n.tok), Some(Tok::Num(_)))
        {
            out.push(Violation {
                lint: Lint::Hw009ExitCodeContract,
                file: path.to_owned(),
                line: t.line,
                column: t.col,
                message: "`ExitCode::from(<literal>)` hardcodes an exit status — name it via \
                          the central EXIT_* consts"
                    .to_owned(),
            });
        }
    }
}

/// `true` when token `i` is preceded by `prefix ::`.
fn path_prefix_is(tokens: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].ident() == Some(prefix)
}

#[cfg(test)]
mod tests {
    use crate::lints::analyze_source;

    #[test]
    fn flags_process_exit_and_literal_exitcode() {
        let src = "\
fn f() { std::process::exit(7); }
fn g() -> ExitCode { ExitCode::from(2) }
";
        let v = analyze_source("core", "demo.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.lint.id() == "HW009"));
    }

    #[test]
    fn named_paths_and_tests_are_fine() {
        let src = "\
fn ok(e: &CliError) -> ExitCode { ExitCode::from(e.exit_code()) }
fn ok2() -> ExitCode { ExitCode::SUCCESS }
fn ok3(p: &Process) { p.exit(); }
#[cfg(test)]
mod tests {
    fn t() { std::process::exit(0); }
}
";
        assert!(analyze_source("core", "demo.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_applies() {
        let src = "\
fn f() {
    // ANALYZE-ALLOW(HW009): abort from a signal handler, no unwinding allowed
    std::process::exit(1);
}
";
        assert!(analyze_source("core", "demo.rs", src).is_empty());
    }
}
