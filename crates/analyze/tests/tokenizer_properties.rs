//! Property tests for the analyzer's scanner → tokenizer → lint chain:
//! on *arbitrary* input — printable soup, quote-heavy fragments, and
//! shuffled Rust-ish token salad — the chain never panics, always
//! terminates, and keeps its provenance invariants (1-based line and
//! column numbers inside the input).
//!
//! The chain is forgiving by design (it analyzes work-in-progress
//! trees, not rustc-blessed ones), so "doesn't crash, produces *some*
//! token stream" is the whole contract these tests pin.

use hotwire_analyze::lints::analyze_source;
use hotwire_analyze::scan::scan;
use hotwire_analyze::tokens::tokenize;
use proptest::prelude::*;

/// Rust-ish fragments the salad strategy shuffles together. Heavy on
/// the constructs that have bitten the tokenizer: multi-line strings,
/// raw strings, char literals, lifetimes, nested generics, attributes.
const FRAGMENTS: &[&str] = &[
    "pub fn f(",
    "x: u32",
    ") -> f32 {",
    "}",
    "{",
    "impl Foo for Bar<'a, T> {",
    "mod inner {",
    "#[cfg(feature = \"extra\")]",
    "#[cfg_attr(test, allow(dead_code))]",
    "\"a string\nspanning\nlines\"",
    "r#\"raw \" body\"#",
    "'c'",
    "'\\n'",
    "'static",
    "const N: usize = 3;",
    "let v = x as u32;",
    "Ordering::SeqCst",
    "counter(\"em.tree.extracted\")",
    "process::exit(2)",
    "// CAST(bounded):",
    "/* block\ncomment */",
    "macro_rules! m { () => {} }",
    "Vec<Vec<Option<&'a str>>>",
    ";",
    "::",
    "=>",
    "#",
    "\"unterminated",
    "r\"also unterminated",
];

fn fragment_soup(picks: &[usize], seps: &[usize]) -> String {
    let mut out = String::new();
    for (k, &p) in picks.iter().enumerate() {
        out.push_str(FRAGMENTS[p % FRAGMENTS.len()]);
        out.push(match seps.get(k).copied().unwrap_or(0) % 3 {
            0 => ' ',
            1 => '\n',
            _ => '\t',
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable text (quotes, braces, and exotic unicode
    /// included) never panics anywhere in the chain, and every token
    /// points at a real (line, column) of the input.
    #[test]
    fn printable_soup_never_panics(src in "\\PC*") {
        let sf = scan(&src);
        let tokens = tokenize(&sf);
        let line_count = src.lines().count().max(1);
        for t in &tokens {
            prop_assert!(t.line >= 1 && t.line <= line_count, "line {} of {line_count}", t.line);
            prop_assert!(t.col >= 1);
        }
    }

    /// Shuffled Rust-ish fragments — the adversarial mix of multi-line
    /// strings, raw strings, attributes, and unbalanced delimiters —
    /// never panic the full lint pipeline either.
    #[test]
    fn fragment_salad_never_panics(
        picks in prop::collection::vec(0_usize..1000, 0..40),
        seps in prop::collection::vec(0_usize..3, 40),
    ) {
        let src = fragment_soup(&picks, &seps);
        let violations = analyze_source("circuit", "soup.rs", &src);
        for v in &violations {
            prop_assert!(v.line >= 1);
        }
    }

    /// Multi-line strings specifically: whatever surrounds them, the
    /// tokenizer must resume cleanly after the closing quote (this was
    /// a real out-of-range panic).
    #[test]
    fn multiline_strings_resume_cleanly(
        before in "[a-z ]{0,12}",
        body in "[a-zA-Z .(){}]{0,30}",
        lines in 1_usize..5,
    ) {
        let newlines = "\n".repeat(lines);
        let src = format!("{before} \"{body}{newlines}{body}\"; fn tail() {{}}\n");
        let sf = scan(&src);
        let tokens = tokenize(&sf);
        prop_assert!(
            tokens.iter().any(|t| t.ident() == Some("tail")),
            "tokens after a {lines}-line string were lost: {src:?}"
        );
    }
}
