//! The committed violation baseline and its ratchet semantics.
//!
//! `analyze-baseline.toml` records, per lint and per file, how many
//! violations are currently tolerated. The comparison is a ratchet:
//!
//! * a file may only ever have **at most** its baselined count — any
//!   increase is a new violation and fails the run;
//! * when a file's real count drops below its baselined count, the run
//!   reports the slack so the baseline can be re-tightened with
//!   `--write-baseline` (counts only decrease over time);
//! * files absent from the baseline have an implicit count of zero.
//!
//! The format is a deliberately tiny TOML subset (tables of
//! `"path" = count`), written and parsed here so the tool stays
//! dependency-free:
//!
//! ```toml
//! [HW001]
//! "crates/core/src/sweep.rs" = 2
//! ```

use std::collections::BTreeMap;

use crate::lints::{Lint, Violation, ALL_LINTS};

/// Tolerated violation counts: `(lint, file) -> count`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(Lint, String), usize>,
}

/// A malformed `analyze-baseline.toml`.
#[derive(Debug)]
#[non_exhaustive]
pub struct BaselineParseError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for BaselineParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BaselineParseError {}

impl Baseline {
    /// Builds a baseline recording the given violations verbatim.
    #[must_use]
    pub fn from_violations(violations: &[Violation]) -> Self {
        let mut counts = BTreeMap::new();
        for v in violations {
            *counts.entry((v.lint, v.file.clone())).or_insert(0) += 1;
        }
        Self { counts }
    }

    /// The tolerated count for `(lint, file)`; zero when unlisted.
    #[must_use]
    pub fn allowed(&self, lint: Lint, file: &str) -> usize {
        self.counts
            .get(&(lint, file.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// Iterates every `(lint, file, count)` entry, sorted.
    pub fn entries(&self) -> impl Iterator<Item = (Lint, &str, usize)> {
        self.counts
            .iter()
            .map(|((lint, file), n)| (*lint, file.as_str(), *n))
    }

    /// Total tolerated count for one lint across all files.
    #[must_use]
    pub fn total(&self, lint: Lint) -> usize {
        self.counts
            .iter()
            .filter(|((l, _), _)| *l == lint)
            .map(|(_, n)| n)
            .sum()
    }

    /// Parses the TOML-subset baseline format.
    pub fn parse(text: &str) -> Result<Self, BaselineParseError> {
        let mut counts = BTreeMap::new();
        let mut current: Option<Lint> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                current =
                    Some(
                        Lint::from_id(section.trim()).ok_or_else(|| BaselineParseError {
                            line: lineno,
                            message: format!("unknown lint section `[{section}]`"),
                        })?,
                    );
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BaselineParseError {
                    line: lineno,
                    message: format!("expected `\"path\" = count`, got `{line}`"),
                });
            };
            let lint = current.ok_or_else(|| BaselineParseError {
                line: lineno,
                message: "entry before any `[HWxxx]` section".to_owned(),
            })?;
            let path = key.trim().trim_matches('"').to_owned();
            let count: usize = value.trim().parse().map_err(|_| BaselineParseError {
                line: lineno,
                message: format!("count `{}` is not a non-negative integer", value.trim()),
            })?;
            if count == 0 {
                return Err(BaselineParseError {
                    line: lineno,
                    message: format!("zero-count entry for `{path}` — delete the line instead"),
                });
            }
            counts.insert((lint, path), count);
        }
        Ok(Self { counts })
    }

    /// Renders the baseline in its canonical committed form (sorted,
    /// zero-count entries dropped, header comment explaining the
    /// ratchet).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Tolerated violations of the project invariants (HW001-HW007, HW009).\n\
             # This file is a ratchet: counts may only decrease. Regenerate with\n\
             #   cargo xtask analyze --write-baseline\n\
             # after *reducing* violations; never hand-edit a count upward.\n",
        );
        for lint in ALL_LINTS {
            let entries: Vec<_> = self
                .counts
                .iter()
                .filter(|((l, _), n)| *l == lint && **n > 0)
                .collect();
            if entries.is_empty() {
                continue;
            }
            out.push_str(&format!("\n[{}]\n", lint.id()));
            for ((_, path), n) in entries {
                out.push_str(&format!("\"{path}\" = {n}\n"));
            }
        }
        out
    }
}

/// One ratchet regression: a file exceeding its tolerated count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Which invariant regressed.
    pub lint: Lint,
    /// The offending file.
    pub file: String,
    /// The tolerated count.
    pub allowed: usize,
    /// The observed count.
    pub found: usize,
    /// The violations in that file (for file:line output).
    pub violations: Vec<Violation>,
}

/// The outcome of diffing a scan against the baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Files over their tolerated count — these fail the run.
    pub regressions: Vec<Regression>,
    /// `(lint, file, allowed, found)` where the tree is now better
    /// than the baseline: the baseline can be tightened.
    pub slack: Vec<(Lint, String, usize, usize)>,
    /// Baseline entries whose file no longer has any violations at
    /// all (or no longer exists) — pure staleness.
    pub stale: Vec<(Lint, String)>,
}

impl RatchetReport {
    /// `true` when nothing regressed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs `violations` against `baseline` under ratchet semantics.
#[must_use]
pub fn ratchet(violations: &[Violation], baseline: &Baseline) -> RatchetReport {
    let mut by_key: BTreeMap<(Lint, String), Vec<Violation>> = BTreeMap::new();
    for v in violations {
        by_key
            .entry((v.lint, v.file.clone()))
            .or_default()
            .push(v.clone());
    }
    let mut report = RatchetReport::default();
    for ((lint, file), vs) in &by_key {
        let allowed = baseline.allowed(*lint, file);
        if vs.len() > allowed {
            report.regressions.push(Regression {
                lint: *lint,
                file: file.clone(),
                allowed,
                found: vs.len(),
                violations: vs.clone(),
            });
        } else if vs.len() < allowed {
            report.slack.push((*lint, file.clone(), allowed, vs.len()));
        }
    }
    for ((lint, file), allowed) in &baseline.counts {
        if *allowed > 0 && !by_key.contains_key(&(*lint, file.clone())) {
            report.stale.push((*lint, file.clone()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(lint: Lint, file: &str, line: usize) -> Violation {
        Violation {
            lint,
            file: file.to_owned(),
            line,
            column: 1,
            message: String::new(),
        }
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let vs = vec![
            v(Lint::Hw001PanicFree, "crates/a/src/lib.rs", 3),
            v(Lint::Hw001PanicFree, "crates/a/src/lib.rs", 9),
            v(Lint::Hw004OrderingJustified, "crates/b/src/x.rs", 1),
        ];
        let b = Baseline::from_violations(&vs);
        let parsed = Baseline::parse(&b.render()).expect("canonical form parses");
        assert_eq!(parsed, b);
        assert_eq!(
            parsed.allowed(Lint::Hw001PanicFree, "crates/a/src/lib.rs"),
            2
        );
        assert_eq!(parsed.allowed(Lint::Hw001PanicFree, "crates/b/src/x.rs"), 0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Baseline::parse("[HW999]\n").is_err());
        assert!(Baseline::parse("\"orphan\" = 1\n").is_err());
        assert!(Baseline::parse("[HW001]\n\"f\" = -2\n").is_err());
        assert!(Baseline::parse("[HW001]\n\"f\" = 0\n").is_err());
        assert!(Baseline::parse("[HW001]\nnot an entry\n").is_err());
    }

    #[test]
    fn ratchet_flags_regressions_and_slack() {
        let base = Baseline::parse("[HW001]\n\"a.rs\" = 2\n\"gone.rs\" = 1\n").expect("parses");
        let now = vec![
            v(Lint::Hw001PanicFree, "a.rs", 1),
            v(Lint::Hw001PanicFree, "b.rs", 1),
        ];
        let r = ratchet(&now, &base);
        assert_eq!(r.regressions.len(), 1, "{r:?}");
        assert_eq!(r.regressions[0].file, "b.rs");
        assert_eq!((r.regressions[0].allowed, r.regressions[0].found), (0, 1));
        assert_eq!(
            r.slack,
            vec![(Lint::Hw001PanicFree, "a.rs".to_owned(), 2, 1)]
        );
        assert_eq!(r.stale, vec![(Lint::Hw001PanicFree, "gone.rs".to_owned())]);
        assert!(!r.is_clean());
    }

    #[test]
    fn clean_tree_against_empty_baseline_is_clean() {
        let r = ratchet(&[], &Baseline::default());
        assert!(r.is_clean());
        assert!(r.slack.is_empty() && r.stale.is_empty());
    }
}
