//! `hotwire-analyze`: workspace static analysis for project invariants.
//!
//! The pass walks every `.rs` file under `crates/*/src` **and the root
//! crate's `src/`** (the `hotwire` CLI + serve layer), scans each with
//! a dependency-free lexer ([`scan`]), tokenizes the result
//! ([`tokens`]), applies the HW001–HW007 and HW009 lints ([`lints`] and
//! the semantic-pass modules), and diffs the result against the committed
//! `analyze-baseline.toml` ratchet ([`baseline`]). See
//! `docs/STATIC_ANALYSIS.md` for the lint catalog and workflow, and
//! `cargo xtask analyze --help` for the CLI.
//!
//! HW007 is cross-artifact: the workspace's `docs/OBSERVABILITY.md`
//! metric catalog is parsed alongside the sources, and drift in either
//! direction (undocumented registration, stale catalog row) is a
//! violation. A workspace without that file simply has no catalog to
//! drift from, and HW007 stays quiet.
//!
//! Two crates are out of scope by construction: `bench` (a harness
//! binary, not library surface) and `analyze` itself (the tool). Three
//! targeted exemptions encode ownership: `obs` is exempt from HW003
//! (it is the designated owner of wall-clock reads and the
//! stdout/stderr trace sink), the root `hotwire` crate is exempt from
//! HW003's print arm for the same reason (the CLI's stdout is its
//! product), and `units` is exempt from HW002 (its constructors are
//! the raw-`f64` boundary the newtypes exist to wrap).

pub mod baseline;
pub mod casts;
pub mod exit_codes;
pub mod lints;
pub mod metric_names;
pub mod scan;
pub mod tokens;

use std::path::{Path, PathBuf};

use lints::Violation;
use metric_names::Catalog;

/// Crates excluded from analysis entirely.
const SKIP_CRATES: [&str; 2] = ["bench", "analyze"];

/// One discovered workspace crate.
#[derive(Debug, Clone)]
pub struct CrateDir {
    /// Directory name under `crates/` (`"core"`, `"obs"`, …).
    pub name: String,
    /// Absolute path to the crate's `src/` directory.
    pub src: PathBuf,
}

/// A failure to walk or read the workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum AnalyzeError {
    /// `root` has no `crates/` directory — not a workspace root.
    NotAWorkspace(PathBuf),
    /// An I/O failure while walking or reading sources.
    Io {
        /// The path being read when the failure happened.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotAWorkspace(root) => {
                write!(
                    f,
                    "{} has no crates/ directory (wrong --root?)",
                    root.display()
                )
            }
            Self::Io { path, source } => write!(f, "reading {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::NotAWorkspace(_) => None,
        }
    }
}

/// Discovers the analyzable crates under `root/crates`, sorted by name.
pub fn discover_crates(root: &Path) -> Result<Vec<CrateDir>, AnalyzeError> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir).map_err(|source| {
        if source.kind() == std::io::ErrorKind::NotFound {
            AnalyzeError::NotAWorkspace(root.to_owned())
        } else {
            AnalyzeError::Io {
                path: crates_dir.clone(),
                source,
            }
        }
    })?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| AnalyzeError::Io {
            path: crates_dir.clone(),
            source,
        })?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
            continue;
        };
        if SKIP_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = path.join("src");
        if path.join("Cargo.toml").is_file() && src.is_dir() {
            out.push(CrateDir { name, src });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    if out.is_empty() {
        return Err(AnalyzeError::NotAWorkspace(root.to_owned()));
    }
    // The root crate (CLI binaries + serve layer) is analyzable surface
    // too — exit codes (HW009), metric registrations (HW007), and
    // atomics (HW004) all live there.
    let root_src = root.join("src");
    if root.join("Cargo.toml").is_file() && root_src.is_dir() {
        out.push(CrateDir {
            name: "hotwire".to_owned(),
            src: root_src,
        });
    }
    Ok(out)
}

/// The repo-relative path of the metric catalog HW007 checks against.
pub const CATALOG_PATH: &str = "docs/OBSERVABILITY.md";

/// Loads and parses the workspace's metric catalog; `None` when the
/// file does not exist (HW007 then has nothing to check).
pub fn load_catalog(root: &Path) -> Result<Option<Catalog>, AnalyzeError> {
    let path = root.join(CATALOG_PATH);
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok(Some(Catalog::parse(CATALOG_PATH, &text))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(source) => Err(AnalyzeError::Io { path, source }),
    }
}

/// Recursively collects the `.rs` files under `dir`, sorted.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, AnalyzeError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_owned()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|source| AnalyzeError::Io {
            path: d.clone(),
            source,
        })?;
        for entry in entries {
            let entry = entry.map_err(|source| AnalyzeError::Io {
                path: d.clone(),
                source,
            })?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every lint over every library crate under `root`; violations
/// come back sorted by (file, line, column, lint) with repo-relative
/// paths.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Violation>, AnalyzeError> {
    let catalog = load_catalog(root)?;
    let mut all = Vec::new();
    let mut regs = Vec::new();
    for krate in discover_crates(root)? {
        let mut files = Vec::new();
        for path in rust_files(&krate.src)? {
            let text = std::fs::read_to_string(&path).map_err(|source| AnalyzeError::Io {
                path: path.clone(),
                source,
            })?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, text));
        }
        let report = lints::analyze_crate_full(&krate.name, &files, catalog.as_ref());
        all.extend(report.violations);
        regs.extend(report.metric_regs);
    }
    // HW007's docs → code direction needs every crate's registrations,
    // so it runs once here rather than per crate.
    if let Some(catalog) = &catalog {
        all.extend(metric_names::stale_rows(catalog, &regs));
    }
    all.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.lint.id()).cmp(&(&b.file, b.line, b.column, b.lint.id()))
    });
    Ok(all)
}
