//! Reproduction harness for every table and figure of the DAC'99 paper.
//!
//! Each submodule of [`experiments`] regenerates one artifact of the
//! paper's evaluation; the `repro` binary drives them
//! (`cargo run -p hotwire-bench --bin repro -- --experiment all`).
//! `EXPERIMENTS.md` in the repository root records paper-vs-measured for
//! every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used deliberately throughout validation code: unlike
// `x <= 0.0` it also rejects NaN, which must never enter a solver.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod csv_export;
pub mod experiments;

/// Renders a simple aligned text table: a header row plus data rows, each
/// column right-aligned to its widest cell (first column left-aligned).
#[must_use]
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let n_cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |row: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            if i == 0 {
                line.push_str(&format!("{:<w$}", cell, w = widths[0]));
            } else {
                line.push_str(&format!("  {:>w$}", cell, w = widths[i]));
            }
        }
        line
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let t = render_table(
            &["name".into(), "x".into()],
            &[
                vec!["a".into(), "1.5".into()],
                vec!["long-name".into(), "12.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("12.25"));
        // all rows same width
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
