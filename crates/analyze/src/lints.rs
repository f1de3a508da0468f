//! The project-invariant lints, HW001–HW007 and HW009.
//!
//! Each lint is named, documented, and greppable; `docs/STATIC_ANALYSIS.md`
//! is the user-facing catalog. HW001–HW005 work straight off the
//! scanner's token channels; the semantic passes HW006, HW007 and HW009
//! ride the tokenizer ([`crate::tokens`]) and live in their own modules
//! ([`crate::casts`], [`crate::metric_names`], [`crate::exit_codes`]).
//! HW008 (a parity check for a compile-time feature that no longer
//! exists) is retired; its ID is not reused. All lints skip
//! test code (`#[cfg(test)]` items, `#[test]` functions — see
//! [`crate::scan`]) and honor the `// ANALYZE-ALLOW(HWxxx): <reason>`
//! escape hatch on the flagged line or the line above; an allow without
//! a reason is itself a violation.

use crate::metric_names::{Catalog, MetricReg};
use crate::scan::{self, SourceFile};
use crate::{casts, exit_codes, metric_names, tokens};

/// A named project invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// No `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in
    /// non-test library code — return typed errors instead.
    Hw001PanicFree,
    /// Public APIs must not take temperatures, current densities, or
    /// resistivities as raw `f64` — use the `hotwire-units` newtypes.
    Hw002RawDimension,
    /// No `Instant::now`/`SystemTime`/`println!`/`eprintln!` outside
    /// `crates/obs` — determinism, one clock, one trace sink.
    Hw003ClockAndSink,
    /// Every `Ordering::…` use carries a `// SAFETY(ordering):`
    /// justification comment.
    Hw004OrderingJustified,
    /// Public error enums are `#[non_exhaustive]` and implement
    /// `std::error::Error`.
    Hw005ErrorHygiene,
    /// Narrowing `as` casts in the numeric kernel crates need a
    /// `// CAST(reason):` justification.
    Hw006NarrowingCast,
    /// Every dotted metric/span name registered via `obs` appears in
    /// docs/OBSERVABILITY.md, and every catalog row is live.
    Hw007MetricCatalog,
    /// Exit statuses flow through the central EXIT_* consts — no bare
    /// `process::exit(n)` / `ExitCode::from(<literal>)`.
    Hw009ExitCodeContract,
}

/// All lints, in catalog order.
pub const ALL_LINTS: [Lint; 8] = [
    Lint::Hw001PanicFree,
    Lint::Hw002RawDimension,
    Lint::Hw003ClockAndSink,
    Lint::Hw004OrderingJustified,
    Lint::Hw005ErrorHygiene,
    Lint::Hw006NarrowingCast,
    Lint::Hw007MetricCatalog,
    Lint::Hw009ExitCodeContract,
];

impl Lint {
    /// The stable identifier used in output, baselines, and allows.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::Hw001PanicFree => "HW001",
            Self::Hw002RawDimension => "HW002",
            Self::Hw003ClockAndSink => "HW003",
            Self::Hw004OrderingJustified => "HW004",
            Self::Hw005ErrorHygiene => "HW005",
            Self::Hw006NarrowingCast => "HW006",
            Self::Hw007MetricCatalog => "HW007",
            Self::Hw009ExitCodeContract => "HW009",
        }
    }

    /// One-line description for `--help` and the JSON output.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Self::Hw001PanicFree => {
                "no unwrap/expect/panic!/todo!/unimplemented! in non-test library code"
            }
            Self::Hw002RawDimension => {
                "public APIs take units newtypes, not raw f64 temperatures/current densities/resistivities"
            }
            Self::Hw003ClockAndSink => {
                "no Instant::now/SystemTime/println!/eprintln! outside crates/obs"
            }
            Self::Hw004OrderingJustified => {
                "every Ordering:: use carries a // SAFETY(ordering): justification"
            }
            Self::Hw005ErrorHygiene => {
                "public error enums are #[non_exhaustive] and implement std::error::Error"
            }
            Self::Hw006NarrowingCast => {
                "narrowing `as` casts in solver/thermal/EM kernels carry a // CAST(reason): justification"
            }
            Self::Hw007MetricCatalog => {
                "dotted metric/span names registered via obs match the docs/OBSERVABILITY.md catalog both ways"
            }
            Self::Hw009ExitCodeContract => {
                "exit statuses go through the central EXIT_* consts, never bare process::exit/ExitCode::from(n)"
            }
        }
    }

    /// Parses a lint id (`"HW001"`).
    #[must_use]
    pub fn from_id(id: &str) -> Option<Self> {
        ALL_LINTS.into_iter().find(|l| l.id() == id)
    }
}

/// One lint violation, pointing into the original source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant was violated.
    pub lint: Lint,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub column: usize,
    /// Human-readable description of the specific violation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.file,
            self.line,
            self.column,
            self.lint.id(),
            self.message
        )
    }
}

/// The result of analyzing one crate: its violations plus the metric
/// registrations HW007's workspace-level staleness check needs.
#[derive(Debug, Clone, Default)]
pub struct CrateReport {
    /// Sorted violations.
    pub violations: Vec<Violation>,
    /// Every dotted metric/span name this crate registers.
    pub metric_regs: Vec<MetricReg>,
}

/// Analyzes every file of one crate (HW005 needs crate-level context:
/// the `impl std::error::Error` may live in a different file than the
/// enum). `files` is `(repo-relative path, source)`. `catalog` is the
/// parsed docs/OBSERVABILITY.md; `None` disables HW007 entirely (the
/// workspace has no catalog to drift from).
#[must_use]
pub fn analyze_crate_full(
    crate_name: &str,
    files: &[(String, String)],
    catalog: Option<&Catalog>,
) -> CrateReport {
    let scanned: Vec<(usize, SourceFile)> = files
        .iter()
        .enumerate()
        .map(|(k, (_, src))| (k, scan::scan(src)))
        .collect();
    let mut report = CrateReport::default();
    // Crate-wide list of `impl … Error for X` targets, for HW005.
    let mut error_impls: Vec<String> = Vec::new();
    for (_, sf) in &scanned {
        collect_error_impls(sf, &mut error_impls);
    }
    for (k, sf) in &scanned {
        let path = &files[*k].0;
        check_file(crate_name, path, sf, &error_impls, catalog, &mut report);
    }
    report.violations.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.lint.id()).cmp(&(&b.file, b.line, b.column, b.lint.id()))
    });
    report
}

/// Back-compat wrapper returning only the violations (HW007 disabled).
#[must_use]
pub fn analyze_crate(crate_name: &str, files: &[(String, String)]) -> Vec<Violation> {
    analyze_crate_full(crate_name, files, None).violations
}

/// Analyzes one lone source text (self-test convenience); HW005's
/// `impl Error` lookup sees only this file, and HW007 is disabled.
#[must_use]
pub fn analyze_source(crate_name: &str, path: &str, source: &str) -> Vec<Violation> {
    analyze_crate(crate_name, &[(path.to_owned(), source.to_owned())])
}

fn check_file(
    crate_name: &str,
    path: &str,
    sf: &SourceFile,
    error_impls: &[String],
    catalog: Option<&Catalog>,
    report: &mut CrateReport,
) {
    let mut file_out = Vec::new();
    hw001_panic_free(sf, path, &mut file_out);
    // The units crate IS the raw-f64 boundary: its constructors must
    // take `f64` to exist at all. Everywhere else, dimensional values
    // arrive pre-wrapped.
    if crate_name != "units" {
        hw002_raw_dimension(sf, path, &mut file_out);
    }
    // The obs crate is the designated owner of wall-clock reads and
    // the stdout/stderr trace sink; the root `hotwire` crate is the
    // CLI, whose stdout *is* its product.
    if crate_name != "obs" && crate_name != "hotwire" {
        hw003_clock_and_sink(sf, path, &mut file_out);
    }
    hw004_ordering_justified(sf, path, &mut file_out);
    hw005_error_hygiene(sf, path, error_impls, &mut file_out);

    // Semantic passes over the token stream (HW006, HW007, HW009).
    let tokens = tokens::tokenize(sf);
    if casts::KERNEL_CRATES.contains(&crate_name) {
        casts::check(sf, &tokens, path, &mut file_out);
    }
    let regs = metric_names::collect_registrations(sf, &tokens, path, crate_name == "obs");
    if let Some(catalog) = catalog {
        metric_names::check_registrations(&regs, catalog, &mut file_out);
    }
    report.metric_regs.extend(regs);
    exit_codes::check(sf, &tokens, path, &mut file_out);

    // Apply ANALYZE-ALLOW suppression (and flag reasonless allows).
    for v in file_out {
        match allow_state(sf, v.line, v.lint) {
            AllowState::None => report.violations.push(v),
            AllowState::Justified => {}
            AllowState::MissingReason => report.violations.push(Violation {
                message: format!(
                    "{} (the ANALYZE-ALLOW comment needs a non-empty reason after the colon)",
                    v.message
                ),
                ..v
            }),
        }
    }
}

enum AllowState {
    None,
    Justified,
    MissingReason,
}

/// Looks for `ANALYZE-ALLOW(HWxxx): reason` in the comments on `line`
/// (1-based) or the comment-only lines directly above it.
fn allow_state(sf: &SourceFile, line: usize, lint: Lint) -> AllowState {
    let idx = line - 1;
    let mut candidates: Vec<&str> = vec![&sf.lines[idx].comment];
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let l = &sf.lines[k];
        if l.is_code_blank() && !l.comment.trim().is_empty() {
            candidates.push(&l.comment);
        } else {
            break;
        }
    }
    let needle = format!("ANALYZE-ALLOW({})", lint.id());
    for c in candidates {
        if let Some(pos) = c.find(&needle) {
            let rest = &c[pos + needle.len()..];
            let reason = rest.trim_start_matches([')', ':']).trim();
            return if reason.is_empty() {
                AllowState::MissingReason
            } else {
                AllowState::Justified
            };
        }
    }
    AllowState::None
}

/// `true` when the byte before `pos` (skipping spaces) is `want`.
fn prev_nonspace_is(code: &str, pos: usize, want: u8) -> bool {
    code.as_bytes()[..pos]
        .iter()
        .rev()
        .find(|b| **b != b' ')
        .is_some_and(|&b| b == want)
}

/// `true` when the byte at/after `pos` (skipping spaces) is `want`.
fn next_nonspace_is(code: &str, pos: usize, want: u8) -> bool {
    code.as_bytes()[pos..]
        .iter()
        .find(|b| **b != b' ')
        .is_some_and(|&b| b == want)
}

/// Iterates the identifiers of `code` as `(byte_offset, ident)`.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((start, &code[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

fn hw001_panic_free(sf: &SourceFile, path: &str, out: &mut Vec<Violation>) {
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pos, ident) in idents(&line.code) {
            let end = pos + ident.len();
            let violation = match ident {
                // `.unwrap()` / `.expect(...)`: a method call — the
                // receiver dot keeps field accesses and free fns out.
                "unwrap" | "expect" => {
                    prev_nonspace_is(&line.code, pos, b'.')
                        && next_nonspace_is(&line.code, end, b'(')
                }
                "panic" | "todo" | "unimplemented" => next_nonspace_is(&line.code, end, b'!'),
                _ => false,
            };
            if violation {
                let what = match ident {
                    "unwrap" | "expect" => format!(".{ident}()"),
                    _ => format!("{ident}!"),
                };
                out.push(Violation {
                    lint: Lint::Hw001PanicFree,
                    file: path.to_owned(),
                    line: idx + 1,
                    column: pos + 1,
                    message: format!(
                        "`{what}` in non-test library code — return a typed error instead"
                    ),
                });
            }
        }
    }
}

/// Parameter names that denote a temperature, current density, or
/// resistivity; an `f64` under one of these names in a public signature
/// should be a `hotwire-units` newtype.
fn dimensional_kind(name: &str) -> Option<&'static str> {
    let n = name.trim_start_matches('_');
    // A *coefficient* (e.g. `temperature_coefficient`, 1/K) is
    // dimensionally not the quantity itself.
    if n.contains("coeff") {
        return None;
    }
    if n.contains("temp") || n.contains("celsius") || n.contains("kelvin") {
        return Some("a temperature (use Kelvin or Celsius)");
    }
    if matches!(
        n,
        "t_ref" | "t_ambient" | "t_chip" | "t_stress" | "t_metal" | "t_line" | "t_sub" | "delta_t"
    ) {
        return Some("a temperature (use Kelvin or TemperatureDelta)");
    }
    if n == "j"
        || n == "j0"
        || n.starts_with("j_")
        || matches!(n, "jdc" | "jrms" | "jpeak" | "javg")
        || n.contains("current_density")
    {
        return Some("a current density (use CurrentDensity)");
    }
    if n == "rho" || n == "rho0" || n.starts_with("rho_") || n.contains("resistivity") {
        return Some("a resistivity (use Resistivity)");
    }
    None
}

fn hw002_raw_dimension(sf: &SourceFile, path: &str, out: &mut Vec<Violation>) {
    // Join the code channel to find signatures spanning lines; keep a
    // byte-offset → line map for diagnostics.
    let mut text = String::new();
    let mut line_starts = Vec::new();
    for line in &sf.lines {
        line_starts.push(text.len());
        text.push_str(&line.code);
        text.push('\n');
    }
    let locate = |off: usize| -> (usize, usize) {
        match line_starts.binary_search(&off) {
            Ok(k) => (k + 1, 1),
            Err(k) => (k, off - line_starts[k - 1] + 1),
        }
    };
    let toks = idents(&text);
    for (t, &(pos, ident)) in toks.iter().enumerate() {
        if ident != "pub" {
            continue;
        }
        let (line, _) = locate(pos);
        if sf.lines[line - 1].in_test {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        if next_nonspace_is(&text, pos + ident.len(), b'(') {
            continue;
        }
        // Skip qualifier keywords between `pub` and `fn`.
        let mut k = t + 1;
        while k < toks.len() && matches!(toks[k].1, "const" | "async" | "unsafe" | "extern") {
            k += 1;
        }
        if k >= toks.len() || toks[k].1 != "fn" || k > t + 4 {
            continue;
        }
        let Some(&(name_pos, fn_name)) = toks.get(k + 1) else {
            continue;
        };
        // Find the parameter list: first `(` after the fn name,
        // skipping a balanced `<…>` generics block.
        let Some(params) = extract_params(&text, name_pos + fn_name.len()) else {
            continue;
        };
        for (param_off, pname, ptype) in params {
            if ptype.trim() != "f64" {
                continue;
            }
            if let Some(kind) = dimensional_kind(&pname) {
                let (vline, vcol) = locate(param_off);
                out.push(Violation {
                    lint: Lint::Hw002RawDimension,
                    file: path.to_owned(),
                    line: vline,
                    column: vcol,
                    message: format!(
                        "public fn `{fn_name}` takes `{pname}: f64`, which names {kind}"
                    ),
                });
            }
        }
    }
}

/// Extracts `(offset, name, type)` for each parameter of the fn whose
/// name ends at `after`; `None` when no parameter list is found nearby.
fn extract_params(text: &str, after: usize) -> Option<Vec<(usize, String, String)>> {
    let bytes = text.as_bytes();
    let mut i = after;
    let mut angle = 0i32;
    // Find the opening paren, skipping generics.
    loop {
        let b = *bytes.get(i)?;
        match b {
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b'(' if angle == 0 => break,
            b'{' | b';' => return None,
            _ => {}
        }
        i += 1;
    }
    let open = i;
    let mut depth = 0i32;
    let mut end = None;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    let end = end?;
    let inner = &text[open + 1..end];
    let base = open + 1;
    let mut params = Vec::new();
    let mut start = 0;
    let mut depth = 0i32;
    let mut angle = 0i32;
    let flush = |params: &mut Vec<(usize, String, String)>, piece: &str, piece_start: usize| {
        let piece_trim = piece.trim();
        if piece_trim.is_empty() || piece_trim.ends_with("self") {
            return;
        }
        // `name: Type` split at the first top-level colon (skip `::`).
        let pb = piece.as_bytes();
        let mut d = 0i32;
        let mut a = 0i32;
        let mut split = None;
        let mut j = 0;
        while j < pb.len() {
            match pb[j] {
                b'(' | b'[' | b'{' => d += 1,
                b')' | b']' | b'}' => d -= 1,
                b'<' => a += 1,
                b'>' => a -= 1,
                b':' if d == 0 && a == 0 => {
                    if pb.get(j + 1) == Some(&b':') {
                        j += 2;
                        continue;
                    }
                    split = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(colon) = split else { return };
        let pat = piece[..colon].trim();
        let ty = piece[colon + 1..].trim();
        // The bound name is the last identifier of the pattern
        // (`mut j0`, `(a, b)` patterns keep their last binding).
        let name = idents(pat).last().map(|&(_, id)| id.to_owned());
        if let Some(name) = name {
            // Point at the parameter itself, not the whitespace (or
            // newline) that followed the previous comma.
            let lead = piece.len() - piece.trim_start().len();
            params.push((base + piece_start + lead, name, ty.to_owned()));
        }
    };
    let ib = inner.as_bytes();
    for (j, &b) in ib.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b',' if depth == 0 && angle <= 0 => {
                flush(&mut params, &inner[start..j], start);
                start = j + 1;
            }
            _ => {}
        }
    }
    flush(&mut params, &inner[start..], start);
    Some(params)
}

fn hw003_clock_and_sink(sf: &SourceFile, path: &str, out: &mut Vec<Violation>) {
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pos, ident) in idents(&line.code) {
            let end = pos + ident.len();
            let (hit, msg): (bool, &str) = match ident {
                "Instant" => (
                    line.code[end..].trim_start().starts_with("::now"),
                    "`Instant::now` outside crates/obs — use `hotwire_obs::Stopwatch` (single clock owner)",
                ),
                "SystemTime" => (
                    true,
                    "`SystemTime` outside crates/obs — wall-clock reads belong to the obs layer",
                ),
                "println" | "eprintln" => (
                    next_nonspace_is(&line.code, end, b'!'),
                    "direct stdout/stderr print outside crates/obs — emit a structured trace event instead",
                ),
                _ => (false, ""),
            };
            if hit {
                out.push(Violation {
                    lint: Lint::Hw003ClockAndSink,
                    file: path.to_owned(),
                    line: idx + 1,
                    column: pos + 1,
                    message: msg.to_owned(),
                });
            }
        }
    }
}

fn hw004_ordering_justified(sf: &SourceFile, path: &str, out: &mut Vec<Violation>) {
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(pos) = find_ordering_use(&line.code) else {
            continue;
        };
        if has_safety_comment(sf, idx) {
            continue;
        }
        out.push(Violation {
            lint: Lint::Hw004OrderingJustified,
            file: path.to_owned(),
            line: idx + 1,
            column: pos + 1,
            message: "`Ordering::` use without a `// SAFETY(ordering):` justification comment"
                .to_owned(),
        });
    }
}

/// The byte offset of a memory-ordering use (`Ordering::…`) on the
/// line, if any. Import lines (`use …::Ordering;`) don't count, and
/// neither does `cmp::Ordering` (same-name type, different concept).
fn find_ordering_use(code: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find("Ordering") {
        let pos = from + rel;
        from = pos + "Ordering".len();
        // Word boundary on the left.
        if pos > 0 {
            let prev = code.as_bytes()[pos - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let rest = &code[pos + "Ordering".len()..];
        if !rest.trim_start().starts_with("::") {
            continue;
        }
        // `cmp::Ordering::Less` — comparison, not memory ordering.
        let before = &code[..pos];
        if before.trim_end().ends_with("cmp::") {
            continue;
        }
        return Some(pos);
    }
    None
}

/// `true` when line `idx` (0-based), an earlier line of the same
/// statement, or the comment block directly above that statement
/// contains a `SAFETY(ordering):` justification.
fn has_safety_comment(sf: &SourceFile, idx: usize) -> bool {
    const NEEDLE: &str = "SAFETY(ordering):";
    if sf.lines[idx].comment.contains(NEEDLE) {
        return true;
    }
    // Walk to the first line of the enclosing statement: a predecessor
    // that ends with `;`, `{`, or `}` terminated something else, so the
    // statement starts after it.
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
        if sf.lines[k].comment.contains(NEEDLE) {
            return true;
        }
    }
    while k > 0 {
        k -= 1;
        let l = &sf.lines[k];
        if l.is_code_blank() && !l.comment.trim().is_empty() {
            if l.comment.contains(NEEDLE) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

fn collect_error_impls(sf: &SourceFile, out: &mut Vec<String>) {
    // `impl std::error::Error for X` / `impl Error for X`, possibly
    // with the target on the same line.
    for line in &sf.lines {
        let code = &line.code;
        let Some(pos) = code.find("impl") else {
            continue;
        };
        let rest = &code[pos..];
        if let Some(for_pos) = rest.find(" for ") {
            let head = &rest[..for_pos];
            if head.contains("Error") && !head.contains("From<") {
                let target = rest[for_pos + 5..]
                    .trim_start()
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or("");
                if !target.is_empty() {
                    out.push(target.to_owned());
                }
            }
        }
    }
}

fn hw005_error_hygiene(
    sf: &SourceFile,
    path: &str,
    error_impls: &[String],
    out: &mut Vec<Violation>,
) {
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let toks = idents(&line.code);
        for (t, &(pos, ident)) in toks.iter().enumerate() {
            if ident != "enum" {
                continue;
            }
            // Must be `pub enum` (not pub(crate)).
            let Some(&(pub_pos, prev)) = t.checked_sub(1).and_then(|p| toks.get(p)) else {
                continue;
            };
            if prev != "pub" || next_nonspace_is(&line.code, pub_pos + 3, b'(') {
                continue;
            }
            let Some(&(_, name)) = toks.get(t + 1) else {
                continue;
            };
            if !name.ends_with("Error") {
                continue;
            }
            if !attr_block_contains(sf, idx, "non_exhaustive") {
                out.push(Violation {
                    lint: Lint::Hw005ErrorHygiene,
                    file: path.to_owned(),
                    line: idx + 1,
                    column: pos + 1,
                    message: format!(
                        "public error enum `{name}` is not `#[non_exhaustive]` — \
                         adding a variant would be a breaking change"
                    ),
                });
            }
            if !error_impls.iter().any(|t| t == name) {
                out.push(Violation {
                    lint: Lint::Hw005ErrorHygiene,
                    file: path.to_owned(),
                    line: idx + 1,
                    column: pos + 1,
                    message: format!(
                        "public error enum `{name}` has no `std::error::Error` impl in its crate"
                    ),
                });
            }
        }
    }
}

/// `true` when the attribute block above line `idx` (0-based; contiguous
/// `#[…]`, comment, or attribute-continuation lines) contains `needle`.
fn attr_block_contains(sf: &SourceFile, idx: usize, needle: &str) -> bool {
    if sf.lines[idx].code.contains(needle) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let code = sf.lines[k].code.trim();
        // Stop at the end of the previous item.
        if code.contains(';') || code.contains('}') {
            return false;
        }
        if sf.lines[k].code.contains(needle) {
            return true;
        }
        let continues = code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#!")
            // derive lists and attr args spanning lines
            || code.ends_with(',')
            || code.ends_with('(')
            || code.starts_with(')')
            || code.ends_with(']');
        if !continues {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.lint.id()).collect()
    }

    #[test]
    fn hw001_flags_panics_not_tests() {
        let src = "\
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g() { panic!(\"boom\"); }
fn h(r: Result<u8, ()>) -> u8 { r.expect(\"msg\") }
fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
        let v = analyze_source("demo", "demo.rs", src);
        assert_eq!(ids(&v), vec!["HW001", "HW001", "HW001"]);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        assert_eq!(v[2].line, 3);
    }

    #[test]
    fn hw001_allow_needs_a_reason() {
        let allowed = "fn f() {\n  // ANALYZE-ALLOW(HW001): startup-only, config is compiled in\n  x.unwrap();\n}\n";
        // The allow comment is on its own line above the violation.
        let v = analyze_source("demo", "demo.rs", allowed);
        assert!(v.is_empty(), "{v:?}");
        let reasonless = "fn f() {\n  x.unwrap(); // ANALYZE-ALLOW(HW001):\n}\n";
        let v = analyze_source("demo", "demo.rs", reasonless);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].message.contains("non-empty reason"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn hw002_flags_dimensional_f64() {
        let src = "\
pub fn solve(temp_c: f64, width: f64) {}
pub fn black(j: f64, t_ref: f64) {}
pub fn fine(j: CurrentDensity, ratio: f64) {}
pub fn coeff(temperature_coefficient: f64) {}
pub(crate) fn internal(temp: f64) {}
fn private(rho: f64) {}
";
        let v = analyze_source("demo", "demo.rs", src);
        assert_eq!(ids(&v), vec!["HW002", "HW002", "HW002"]);
        assert!(v[0].message.contains("temp_c"));
        assert!(v[1].message.contains('j'));
        assert!(v[2].message.contains("t_ref"));
        // The units crate is the raw-f64 boundary — exempt.
        assert!(analyze_source("units", "demo.rs", src).is_empty());
    }

    #[test]
    fn hw002_handles_multiline_signatures() {
        let src = "pub fn long(\n    a: usize,\n    rho_al: f64,\n) -> f64 { 0.0 }\n";
        let v = analyze_source("demo", "demo.rs", src);
        assert_eq!(ids(&v), vec!["HW002"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn hw003_flags_clocks_and_prints_outside_obs() {
        let src = "\
fn f() { let t = std::time::Instant::now(); }
fn g() { println!(\"x\"); }
fn h(i: Instant) {}
";
        let v = analyze_source("core", "demo.rs", src);
        assert_eq!(ids(&v), vec!["HW003", "HW003"]);
        // The obs crate is exempt.
        assert!(analyze_source("obs", "demo.rs", src).is_empty());
    }

    #[test]
    fn hw004_requires_safety_comment() {
        let bare = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        let v = analyze_source("demo", "demo.rs", bare);
        assert_eq!(ids(&v), vec!["HW004"]);
        let justified = "\
fn f(a: &AtomicU64) {
    // SAFETY(ordering): independent counter, no cross-cell ordering.
    a.load(Ordering::Relaxed);
}
";
        assert!(analyze_source("demo", "demo.rs", justified).is_empty());
        let import = "use std::sync::atomic::Ordering;\n";
        assert!(analyze_source("demo", "demo.rs", import).is_empty());
        let cmp = "fn c() -> cmp::Ordering { cmp::Ordering::Less }\n";
        assert!(analyze_source("demo", "demo.rs", cmp).is_empty());
    }

    #[test]
    fn hw005_requires_non_exhaustive_and_error_impl() {
        let bad = "pub enum DemoError { A, B }\n";
        let v = analyze_source("demo", "demo.rs", bad);
        assert_eq!(ids(&v), vec!["HW005", "HW005"]);
        let good = "\
#[derive(Debug)]
#[non_exhaustive]
pub enum DemoError { A, B }
impl std::error::Error for DemoError {}
";
        assert!(analyze_source("demo", "demo.rs", good).is_empty());
        // Non-error enums and private enums are out of scope.
        assert!(analyze_source("demo", "demo.rs", "pub enum Mode { A }\n").is_empty());
        assert!(analyze_source("demo", "demo.rs", "enum InnerError { A }\n").is_empty());
    }

    #[test]
    fn hw005_sees_impls_in_sibling_files() {
        let files = vec![
            (
                "src/error.rs".to_owned(),
                "#[non_exhaustive]\npub enum CrossError { A }\n".to_owned(),
            ),
            (
                "src/impls.rs".to_owned(),
                "impl std::error::Error for CrossError {}\n".to_owned(),
            ),
        ];
        assert!(analyze_crate("demo", &files).is_empty());
    }
}
