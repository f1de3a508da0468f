//! HW007 — metric/span-name drift between code and docs/OBSERVABILITY.md.
//!
//! `docs/OBSERVABILITY.md` carries the metric catalog: one table row per
//! dotted name (`| `solver.factor` | counter | … |`). The catalog is
//! only useful while it is *true*, so this pass checks both directions:
//!
//! * every dotted name registered in code via the `obs` entry points
//!   (`metrics::counter/gauge/timer`, `trace::span/span_with`) — or
//!   published as a dotted `const NAME: &str` in `crates/obs` (the
//!   `health::names` indirection) — must have a catalog row;
//! * every catalog row must correspond to at least one such
//!   registration, or it is stale and fails the run.
//!
//! Only **dotted** literal names participate: dynamic (`format!`-built)
//! names and short test/doc names (`"noop"`) are invisible by design.
//! A stale catalog row can be suppressed with
//! `<!-- ANALYZE-ALLOW(HW007): reason -->` on the row itself.

use crate::lints::{Lint, Violation};
use crate::scan::SourceFile;
use crate::tokens::{Tok, Token};

/// The `obs` entry points whose first string argument registers a name.
const REGISTRARS: [&str; 5] = ["counter", "gauge", "timer", "span", "span_with"];

/// One name registration found in code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricReg {
    /// The dotted name.
    pub name: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the literal.
    pub line: usize,
    /// 1-based column of the literal.
    pub column: usize,
}

/// `true` for names the pass tracks: lowercase dotted identifiers
/// (`solver.chol.factor`), excluding things that merely look dotted —
/// file names with a known extension, and anything with `/`.
#[must_use]
pub fn is_dotted_metric_name(name: &str) -> bool {
    if !name.contains('.') || name.starts_with('.') || name.ends_with('.') || name.contains("..") {
        return false;
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
    {
        return false;
    }
    if !name.starts_with(|c: char| c.is_ascii_lowercase()) {
        return false;
    }
    // `bench.json`, `grid.rs` … are paths, not metric names.
    let last = name.rsplit('.').next().unwrap_or("");
    !matches!(
        last,
        "json" | "jsonl" | "toml" | "md" | "rs" | "txt" | "log" | "csv" | "yaml" | "yml" | "lock"
    )
}

/// Collects the metric-name registrations of one file.
///
/// `collect_consts` enables the dotted-`const` rule, which only the
/// `obs` crate (the `health::names` owner) opts into — elsewhere a
/// dotted string constant is far more likely to be a file name or
/// format fragment.
#[must_use]
pub fn collect_registrations(
    sf: &SourceFile,
    tokens: &[Token],
    path: &str,
    collect_consts: bool,
) -> Vec<MetricReg> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Str(value) = &t.tok else { continue };
        if !is_dotted_metric_name(value) {
            continue;
        }
        if sf.lines.get(t.line - 1).is_some_and(|l| l.in_test) {
            continue;
        }
        // `counter("…")` / `span_with("…", …)`: the literal directly
        // follows `<registrar>(`.
        let is_call = i >= 2
            && tokens[i - 1].is_punct('(')
            && tokens[i - 2]
                .ident()
                .is_some_and(|id| REGISTRARS.contains(&id));
        // `const COND_EST: &str = "health.cond_est";` — the literal
        // directly follows `str =` in a const header.
        let is_const = collect_consts
            && i >= 2
            && tokens[i - 1].is_punct('=')
            && tokens[i - 2].ident() == Some("str");
        if is_call || is_const {
            out.push(MetricReg {
                name: value.clone(),
                file: path.to_owned(),
                line: t.line,
                column: t.col,
            });
        }
    }
    out
}

/// One catalog row from docs/OBSERVABILITY.md.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    /// The documented name.
    pub name: String,
    /// 1-based line of the row.
    pub line: usize,
    /// `true` when the row carries an `ANALYZE-ALLOW(HW007)` comment.
    pub allowed: bool,
}

/// The parsed metric catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Repo-relative path of the catalog file.
    pub path: String,
    /// All rows, in file order.
    pub rows: Vec<CatalogRow>,
}

impl Catalog {
    /// Parses the markdown catalog: rows of shape
    /// `| \`dotted.name\` | counter/gauge/timer | … |`. Tables whose
    /// second column is not a metric kind (CLI flags, endpoints) are
    /// ignored.
    #[must_use]
    pub fn parse(path: &str, text: &str) -> Self {
        let mut rows = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if !line.starts_with('|') {
                continue;
            }
            let mut cells = line.split('|').skip(1).map(str::trim);
            let (Some(first), Some(second)) = (cells.next(), cells.next()) else {
                continue;
            };
            if !matches!(second, "counter" | "gauge" | "timer") {
                continue;
            }
            let Some(name) = first.strip_prefix('`').and_then(|s| s.strip_suffix('`')) else {
                continue;
            };
            if !is_dotted_metric_name(name) {
                continue;
            }
            rows.push(CatalogRow {
                name: name.to_owned(),
                line: idx + 1,
                allowed: raw.contains("ANALYZE-ALLOW(HW007)"),
            });
        }
        Self {
            path: path.to_owned(),
            rows,
        }
    }

    /// `true` when `name` has a catalog row.
    #[must_use]
    pub fn documents(&self, name: &str) -> bool {
        self.rows.iter().any(|r| r.name == name)
    }
}

/// Code → docs direction: a registration without a catalog row.
pub fn check_registrations(regs: &[MetricReg], catalog: &Catalog, out: &mut Vec<Violation>) {
    for r in regs {
        if !catalog.documents(&r.name) {
            out.push(Violation {
                lint: Lint::Hw007MetricCatalog,
                file: r.file.clone(),
                line: r.line,
                column: r.column,
                message: format!(
                    "metric/span `{}` is registered here but has no row in {}",
                    r.name, catalog.path
                ),
            });
        }
    }
}

/// Docs → code direction: catalog rows matching no registration.
/// Called once per workspace with the union of all crates' regs.
#[must_use]
pub fn stale_rows(catalog: &Catalog, regs: &[MetricReg]) -> Vec<Violation> {
    let mut out = Vec::new();
    for row in &catalog.rows {
        if row.allowed {
            continue;
        }
        if !regs.iter().any(|r| r.name == row.name) {
            out.push(Violation {
                lint: Lint::Hw007MetricCatalog,
                file: catalog.path.clone(),
                line: row.line,
                column: 1,
                message: format!(
                    "catalog row `{}` matches no registration in the code — delete the stale \
                     row (or mark it `<!-- ANALYZE-ALLOW(HW007): reason -->`)",
                    row.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use crate::tokens::tokenize;

    fn regs(src: &str, consts: bool) -> Vec<String> {
        let sf = scan(src);
        let toks = tokenize(&sf);
        collect_registrations(&sf, &toks, "demo.rs", consts)
            .into_iter()
            .map(|r| r.name)
            .collect()
    }

    #[test]
    fn collects_direct_calls_including_multiline() {
        let src = "\
fn f() {
    metrics::counter(\"solver.factor\").inc();
    let _t = trace::span_with(
        \"coupled.iteration\",
        &[(\"iteration\", FieldValue::U64(1))],
    );
    metrics::gauge(names::COND_EST).set(1.0); // const indirection: not a literal
    trace::event(Level::Debug, \"em.nucleation\", \"x\", &[]); // event target, not a metric
}
";
        assert_eq!(regs(src, false), vec!["solver.factor", "coupled.iteration"]);
    }

    #[test]
    fn collects_dotted_consts_only_when_asked() {
        let src = "pub const COND_EST: &str = \"health.cond_est\";\n\
                   pub const OUT: &str = \"bench.json\";\n";
        assert_eq!(regs(src, true), vec!["health.cond_est"]);
        assert!(regs(src, false).is_empty());
    }

    #[test]
    fn test_code_and_undotted_names_are_ignored() {
        let src = "\
fn f() { trace::span(\"noop\"); }
#[cfg(test)]
mod tests {
    fn t() { metrics::counter(\"t.counter\").inc(); }
}
";
        assert!(regs(src, false).is_empty());
    }

    #[test]
    fn catalog_parses_metric_rows_only() {
        let md = "\
| Flag | Scope | Effect |
|---|---|---|
| `--log-level <x>` | global | verbosity |

| Name | Kind | Meaning |
|---|---|---|
| `solver.factor` | counter | factorizations |
| `solver.factor_time` | timer | wall time |
| `gone.metric` | gauge | stale | <!-- ANALYZE-ALLOW(HW007): kept for dashboards -->
";
        let c = Catalog::parse("docs/OBSERVABILITY.md", md);
        let names: Vec<&str> = c.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["solver.factor", "solver.factor_time", "gone.metric"]
        );
        assert!(c.rows[2].allowed);
    }

    #[test]
    fn drift_is_flagged_both_ways() {
        let c = Catalog::parse(
            "docs/OBSERVABILITY.md",
            "| `doc.only` | counter | x |\n| `both.sides` | gauge | y |\n",
        );
        let regs = vec![
            MetricReg {
                name: "both.sides".into(),
                file: "a.rs".into(),
                line: 1,
                column: 1,
            },
            MetricReg {
                name: "code.only".into(),
                file: "a.rs".into(),
                line: 2,
                column: 1,
            },
        ];
        let mut v = Vec::new();
        check_registrations(&regs, &c, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("code.only"));
        let stale = stale_rows(&c, &regs);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("doc.only"));
        assert_eq!(stale[0].file, "docs/OBSERVABILITY.md");
    }
}
