//! End-to-end tests of the `hotwire-analyze` binary: exit codes,
//! file:line output, JSON output, and the ratchet workflow.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Creates a throwaway workspace with one library crate whose
/// `src/lib.rs` holds `source`, and returns its root.
fn fake_workspace(tag: &str, source: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("hotwire-analyze-test-{}-{tag}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("mkdir fake workspace");
    std::fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.0.0\"\n",
    )
    .expect("write Cargo.toml");
    std::fs::write(src.join("lib.rs"), source).expect("write lib.rs");
    root
}

fn run(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hotwire-analyze"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn hotwire-analyze")
}

const CLEAN: &str = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
const DIRTY: &str = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";

#[test]
fn clean_tree_exits_zero() {
    let root = fake_workspace("clean", CLEAN);
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("analyze: clean"), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn new_violation_exits_one_with_file_line_output() {
    let root = fake_workspace("dirty", DIRTY);
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // file:line:column: LINT message
    assert!(
        stdout.contains("crates/demo/src/lib.rs:1:37: HW001"),
        "{stdout}"
    );
    assert!(stdout.contains("analyze: FAILED"), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn baselined_violation_is_tolerated_and_ratchet_rejects_more() {
    let root = fake_workspace("ratchet", DIRTY);
    // Baseline the existing violation: run becomes clean.
    let out = run(&root, &["--write-baseline"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // A second unwrap exceeds the tolerated count: exit 1 again.
    std::fs::write(
        root.join("crates/demo/src/lib.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
         pub fn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("rewrite lib.rs");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("baseline tolerates 1"), "{stdout}");
    // Fixing both makes the baseline entry stale, not failing.
    std::fs::write(root.join("crates/demo/src/lib.rs"), CLEAN).expect("rewrite lib.rs");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stale baseline entry"), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn json_output_is_parseable_and_structured() {
    let root = fake_workspace("json", DIRTY);
    let out = run(&root, &["--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = hotwire_obs::json::parse(&stdout).expect("valid JSON");
    assert_eq!(v.get("clean").and_then(|j| j.as_bool()), Some(false));
    let totals = v.get("totals").expect("totals object");
    assert_eq!(totals.get("HW001").and_then(|j| j.as_u64()), Some(1));
    let new = v
        .get("new_violations")
        .and_then(|j| j.as_array())
        .expect("array");
    assert_eq!(new.len(), 1);
    assert_eq!(new[0].get("lint").and_then(|j| j.as_str()), Some("HW001"));
    assert_eq!(new[0].get("line").and_then(|j| j.as_u64()), Some(1));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn usage_errors_exit_two() {
    let root = fake_workspace("usage", CLEAN);
    // Unknown flag.
    let out = run(&root, &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    // Bad --format value.
    let out = run(&root, &["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Nonexistent root.
    let out = Command::new(env!("CARGO_BIN_EXE_hotwire-analyze"))
        .args(["--root", "/nonexistent-hotwire-root"])
        .output()
        .expect("spawn hotwire-analyze");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Malformed baseline.
    std::fs::write(root.join("analyze-baseline.toml"), "[HW999]\n").expect("write baseline");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown lint section"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn help_prints_the_lint_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_hotwire-analyze"))
        .arg("--help")
        .output()
        .expect("spawn hotwire-analyze");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "HW001", "HW002", "HW003", "HW004", "HW005", "HW006", "HW007", "HW009",
    ] {
        assert!(stdout.contains(id), "--help missing {id}");
    }
    assert!(!stdout.contains("HW008"), "HW008 is retired");
}

#[test]
fn write_baseline_reports_dropped_entries_on_rename() {
    let root = fake_workspace("rename", DIRTY);
    let out = run(&root, &["--write-baseline"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Rename the file: its baseline entry no longer matches anything.
    // The rewrite must say so out loud instead of silently dropping the
    // tolerated count from the ratchet's history.
    std::fs::rename(
        root.join("crates/demo/src/lib.rs"),
        root.join("crates/demo/src/renamed.rs"),
    )
    .expect("rename source file");
    std::fs::write(root.join("crates/demo/src/lib.rs"), "mod renamed;\n").expect("write lib.rs");
    let out = run(&root, &["--write-baseline"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dropping baseline entry HW001 crates/demo/src/lib.rs"),
        "{stderr}"
    );
    assert!(
        stderr.contains("file is now clean"),
        "lib.rs still exists (the violation moved): {stderr}"
    );

    // Second flavor: the file vanishes entirely.
    let out = run(&root, &["--write-baseline"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_file(root.join("crates/demo/src/renamed.rs")).expect("rm renamed.rs");
    let out = run(&root, &["--write-baseline"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dropping baseline entry HW001 crates/demo/src/renamed.rs"),
        "{stderr}"
    );
    assert!(
        stderr.contains("no longer exists (renamed or deleted?)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn metric_catalog_drift_fails_in_both_directions() {
    // A registration with no catalog row (code → docs)…
    let root = fake_workspace(
        "catalog",
        "pub fn f() { counter(\"demo.widgets\").inc(); }\n",
    );
    std::fs::create_dir_all(root.join("docs")).expect("mkdir docs");
    let catalog = "\
# Metrics

| Name | Kind | Meaning |
|---|---|---|
| `demo.gadgets` | counter | gadgets processed |
";
    std::fs::write(root.join("docs/OBSERVABILITY.md"), catalog).expect("write catalog");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // …fails, and so does the stale row (docs → code).
    assert!(
        stdout.contains("HW007") && stdout.contains("demo.widgets"),
        "{stdout}"
    );
    assert!(
        stdout.contains("demo.gadgets") && stdout.contains("matches no registration"),
        "{stdout}"
    );

    // Documenting the registration and allow-listing the aspirational
    // row makes the tree clean.
    let catalog = "\
# Metrics

| Name | Kind | Meaning |
|---|---|---|
| `demo.widgets` | counter | widgets processed |
| `demo.gadgets` | counter | future gadget counter <!-- ANALYZE-ALLOW(HW007): planned for the next milestone --> |
";
    std::fs::write(root.join("docs/OBSERVABILITY.md"), catalog).expect("write catalog");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn allow_comment_suppresses_with_reason_only() {
    let allowed = "\
pub fn f(x: Option<u32>) -> u32 {
    // ANALYZE-ALLOW(HW001): demo fixture exercising the escape hatch
    x.unwrap()
}
";
    let root = fake_workspace("allow", allowed);
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let reasonless = "\
pub fn f(x: Option<u32>) -> u32 {
    // ANALYZE-ALLOW(HW001):
    x.unwrap()
}
";
    std::fs::write(root.join("crates/demo/src/lib.rs"), reasonless).expect("rewrite lib.rs");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("non-empty reason"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}
