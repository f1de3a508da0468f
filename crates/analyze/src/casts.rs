//! HW006 — narrowing numeric casts in solver/thermal/EM kernels.
//!
//! The paper's signoff math is f64 end to end; an `as f32` (or a
//! narrowing integer cast) in a numeric kernel silently throws away
//! precision or range exactly where it matters most — ρ(T) feeding
//! Black's MTF, Korhonen stress updates, sparse index arithmetic. The
//! rule: inside the kernel crates, every `as` cast whose **target** is
//! narrower than 64 bits carries a `// CAST(<reason>):` comment on the
//! line, the statement, or the comment block above, saying why the
//! loss is fine (index fits, value clamped, display only…).
//!
//! The source type is unknowable at token level, so the pass keys on
//! the target alone; wide/platform targets (`f64`, `i64`, `u64`,
//! `usize`, `isize`) are never flagged.

use crate::lints::{Lint, Violation};
use crate::scan::SourceFile;
use crate::tokens::Token;

/// Crates whose numeric kernels the pass covers.
pub const KERNEL_CRATES: [&str; 5] = ["circuit", "thermal", "em", "em-tree", "coupled"];

/// Cast targets considered narrowing.
const NARROW_TARGETS: [&str; 7] = ["f32", "i32", "u32", "i16", "u16", "i8", "u8"];

/// Runs the pass over one file's token stream.
pub fn check(sf: &SourceFile, tokens: &[Token], path: &str, out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() != Some("as") {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else {
            continue;
        };
        let Some(target) = next.ident() else {
            continue;
        };
        if !NARROW_TARGETS.contains(&target) {
            continue;
        }
        if sf.lines.get(t.line - 1).is_some_and(|l| l.in_test) {
            continue;
        }
        match cast_justification(sf, t.line - 1) {
            CastComment::Justified => {}
            CastComment::MissingReason => out.push(Violation {
                lint: Lint::Hw006NarrowingCast,
                file: path.to_owned(),
                line: t.line,
                column: t.col,
                message: format!(
                    "narrowing `as {target}` cast — the CAST comment needs a non-empty \
                     reason between the parentheses"
                ),
            }),
            CastComment::None => out.push(Violation {
                lint: Lint::Hw006NarrowingCast,
                file: path.to_owned(),
                line: t.line,
                column: t.col,
                message: format!(
                    "narrowing `as {target}` cast in a numeric kernel without a \
                     `// CAST(reason):` justification"
                ),
            }),
        }
    }
}

enum CastComment {
    None,
    Justified,
    MissingReason,
}

/// Looks for `CAST(<reason>):` on the flagged line, earlier lines of
/// the same statement, or the comment block directly above — the same
/// scope HW004 gives `SAFETY(ordering):`.
fn cast_justification(sf: &SourceFile, idx: usize) -> CastComment {
    let mut best = CastComment::None;
    let mut consider = |comment: &str| {
        if let Some(pos) = comment.find("CAST(") {
            let rest = &comment[pos + "CAST(".len()..];
            let reason = rest.split(')').next().unwrap_or("").trim();
            best = if reason.is_empty() {
                CastComment::MissingReason
            } else {
                CastComment::Justified
            };
            true
        } else {
            false
        }
    };
    if consider(&sf.lines[idx].comment) {
        return best;
    }
    // Earlier lines of the same statement.
    let mut k = idx;
    while k > 0 {
        let prev = &sf.lines[k - 1];
        if prev.is_code_blank() {
            break;
        }
        let tail = prev.code.trim_end();
        if tail.ends_with(';') || tail.ends_with('{') || tail.ends_with('}') {
            break;
        }
        k -= 1;
        if consider(&sf.lines[k].comment) {
            return best;
        }
    }
    // The comment block directly above the statement.
    while k > 0 {
        k -= 1;
        let l = &sf.lines[k];
        if l.is_code_blank() && !l.comment.trim().is_empty() {
            if consider(&l.comment) {
                return best;
            }
        } else {
            break;
        }
    }
    CastComment::None
}

#[cfg(test)]
mod tests {
    use crate::lints::analyze_source;

    #[test]
    fn flags_narrowing_casts_in_kernel_crates_only() {
        let src = "pub fn f(x: f64) -> f32 { x as f32 }\n";
        let v = analyze_source("circuit", "demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint.id(), "HW006");
        // Non-kernel crates are out of scope.
        assert!(analyze_source("tech", "demo.rs", src).is_empty());
    }

    #[test]
    fn wide_targets_and_tests_are_exempt() {
        let src = "\
pub fn f(x: u32) -> u64 { x as u64 }
pub fn g(x: u32) -> usize { x as usize }
pub fn h(x: f32) -> f64 { f64::from(x) }
#[cfg(test)]
mod tests {
    fn t(x: f64) -> f32 { x as f32 }
}
";
        assert!(analyze_source("thermal", "demo.rs", src).is_empty());
    }

    #[test]
    fn cast_comment_with_reason_justifies() {
        let good = "\
pub fn f(n: usize) -> u32 {
    // CAST(node indices are bounded by the grid size, far below u32::MAX):
    n as u32
}
";
        assert!(analyze_source("circuit", "demo.rs", good).is_empty());
        let same_line = "pub fn f(n: usize) -> u32 { n as u32 } // CAST(bounded): grid index\n";
        assert!(analyze_source("circuit", "demo.rs", same_line).is_empty());
        let empty_reason = "pub fn f(n: usize) -> u32 { n as u32 } // CAST():\n";
        let v = analyze_source("circuit", "demo.rs", empty_reason);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].message.contains("non-empty reason"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn use_renames_are_not_casts() {
        let src = "use std::fmt::Debug as DebugTrait;\n";
        assert!(analyze_source("circuit", "demo.rs", src).is_empty());
    }
}
