//! Output checks. Every operation's output is parsed and held against
//! invariants that any correct program satisfies, against an oracle the
//! generator owns where one exists (tree segment counts, provably
//! immortal trees), and, for the seeds in `references.json`, against
//! recorded results. A failed check counts the operation as failed.

use hotwire::coupled::CoupledReport;
use hotwire::obs::json::{self, Json};

use crate::gen::DeckTree;

/// Exit code of a signoff that ran and found violations.
pub const EXIT_VIOLATION: i32 = 3;
pub const PEAK_T_TOLERANCE_K: f64 = 0.5;
pub const IR_DROP_TOLERANCE_MV: f64 = 1.0;
pub const VIOLATIONS_TOLERANCE: f64 = 0.01;
pub const TTF_TOLERANCE: f64 = 0.005;
/// `tree-signoff` prints the chip TTF to 0.01 years, so two recorded
/// values may also differ by one printed digit.
const TTF_PRINTED_YEARS: f64 = 0.01;
/// The coupled grids' pad voltage, substrate temperature and iteration
/// cap (the CLI defaults the benchmark runs with).
const VDD_MV: f64 = 2500.0;
const SUBSTRATE_C: f64 = 100.0;
const MAX_ITERATIONS: u64 = 100;
const HOURS_PER_YEAR: f64 = 24.0 * 365.25;

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one attempted operation and its outcome; returns the value
    /// of a success.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed: {what}: {e}");
                self.first_error.get_or_insert(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The result line of a coupled signoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledResult {
    pub iterations: u64,
    pub ir_drop_mv: f64,
    pub peak_c: f64,
    pub violations: u64,
}

impl CoupledResult {
    /// The same figures, from an in-process engine's report.
    pub fn from_report(report: &CoupledReport) -> Self {
        Self {
            iterations: report.iterations as u64,
            ir_drop_mv: report.worst_ir_drop.value() * 1e3,
            peak_c: report.peak_temperature.to_celsius().value(),
            violations: report.violations().len() as u64,
        }
    }

    pub fn to_json(self) -> Json {
        Json::object([
            ("iterations", Json::from(self.iterations)),
            ("ir_drop_mv", Json::from(self.ir_drop_mv)),
            ("peak_c", Json::from(self.peak_c)),
            ("violations", Json::from(self.violations)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            iterations: v.get("iterations")?.as_u64()?,
            ir_drop_mv: v.get("ir_drop_mv")?.as_f64()?,
            peak_c: v.get("peak_c")?.as_f64()?,
            violations: v.get("violations")?.as_u64()?,
        })
    }

    /// Agreement within the tolerances of a recorded or recomputed
    /// result.
    pub fn matches(&self, expected: &Self) -> Result<(), String> {
        let violations_slack = VIOLATIONS_TOLERANCE * expected.violations as f64;
        if (self.peak_c - expected.peak_c).abs() > PEAK_T_TOLERANCE_K
            || (self.ir_drop_mv - expected.ir_drop_mv).abs() > IR_DROP_TOLERANCE_MV
            || self.violations.abs_diff(expected.violations) as f64 > violations_slack
        {
            return Err(format!("got {self:?}, expected {expected:?}"));
        }
        Ok(())
    }
}

/// The number after `key` on the first line containing it.
fn number_after<T: std::str::FromStr>(text: &str, key: &str) -> Option<T> {
    let line = text.lines().find(|l| l.contains(key))?;
    let rest = &line[line.find(key)? + key.len()..];
    let token = rest.split_whitespace().next()?;
    token.trim_end_matches([')', ':']).parse().ok()
}

pub fn parse_coupled(stdout: &str) -> Result<CoupledResult, String> {
    let missing = |what: &str| format!("no {what} in output");
    let violations = if stdout.contains("straps pass") {
        0
    } else {
        number_after(stdout, "top violations (of ").ok_or_else(|| missing("violation count"))?
    };
    Ok(CoupledResult {
        iterations: number_after(stdout, "fixed point in ").ok_or_else(|| missing("iterations"))?,
        ir_drop_mv: number_after(stdout, "worst IR drop  = ").ok_or_else(|| missing("IR drop"))?,
        peak_c: number_after(stdout, "peak strap T   = ").ok_or_else(|| missing("peak T"))?,
        violations,
    })
}

/// Checks one `coupled-signoff` run on an `edge × edge` grid.
pub fn check_coupled(
    code: i32,
    stdout: &str,
    edge: usize,
    reference: Option<&CoupledResult>,
) -> Result<CoupledResult, String> {
    if code != EXIT_VIOLATION {
        return Err(format!("exit status {code}, expected {EXIT_VIOLATION}"));
    }
    let result = parse_coupled(stdout)?;
    let straps = (2 * edge * (edge - 1)) as u64;
    let plausible = (1..=MAX_ITERATIONS).contains(&result.iterations)
        && result.ir_drop_mv > 0.0
        && result.ir_drop_mv < VDD_MV
        && result.peak_c > SUBSTRATE_C
        && (1..=straps).contains(&result.violations);
    if !plausible {
        return Err(format!("implausible result {result:?} on {straps} straps"));
    }
    if let Some(expected) = reference {
        result.matches(expected)?;
    }
    Ok(result)
}

/// Checks one `POST /signoff` reply body against the engine's result for
/// the same grid.
pub fn check_signoff_reply(
    body: &str,
    edge: usize,
    expected: &CoupledResult,
) -> Result<(), String> {
    let v = json::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let field = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("reply has no numeric `{key}`"))
    };
    let straps = (2 * edge * (edge - 1)) as f64;
    if field("straps")? != straps {
        return Err(format!(
            "reply counts {} straps, expected {straps}",
            field("straps")?
        ));
    }
    let got = CoupledResult {
        iterations: field("iterations")? as u64,
        ir_drop_mv: field("worst_ir_drop_mv")?,
        peak_c: field("peak_temperature_c")?,
        violations: field("violations")? as u64,
    };
    if got.iterations != expected.iterations {
        return Err(format!("got {got:?}, expected {expected:?}"));
    }
    got.matches(expected)
}

/// The summary of one `tree-signoff` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeResult {
    pub immortal: u64,
    pub failing: u64,
    pub ttf_years: Option<f64>,
}

impl TreeResult {
    pub fn to_json(self) -> Json {
        Json::object([
            ("immortal", Json::from(self.immortal)),
            ("failing", Json::from(self.failing)),
            ("ttf_years", self.ttf_years.map_or(Json::Null, Json::from)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            immortal: v.get("immortal")?.as_u64()?,
            failing: v.get("failing")?.as_u64()?,
            ttf_years: v.get("ttf_years").and_then(Json::as_f64),
        })
    }
}

/// Checks one `tree-signoff` run on the deck of `trees`.
pub fn check_tree(
    code: i32,
    stdout: &str,
    trees: &[DeckTree],
    reference: Option<&TreeResult>,
) -> Result<TreeResult, String> {
    let mut rows = std::collections::HashMap::new();
    for line in stdout.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let [name, segments, _peak, immortal, outcome @ ..] = tokens.as_slice() {
            if let Ok(segments) = segments.parse::<usize>() {
                let failing = outcome.first() == Some(&"fails");
                rows.insert(*name, (segments, *immortal == "yes", failing));
            }
        }
    }
    if rows.len() != trees.len() {
        return Err(format!(
            "{} tree rows for {} trees",
            rows.len(),
            trees.len()
        ));
    }
    let (mut immortal, mut failing) = (0, 0);
    for tree in trees {
        let &(segments, is_immortal, is_failing) = rows
            .get(tree.name.as_str())
            .ok_or_else(|| format!("tree {} missing from output", tree.name))?;
        if segments != tree.segments {
            return Err(format!(
                "tree {} has {segments} segments, the deck has {}",
                tree.name, tree.segments
            ));
        }
        if tree.provably_immortal && !is_immortal {
            return Err(format!(
                "tree {} is provably immortal but reported mortal",
                tree.name
            ));
        }
        immortal += u64::from(is_immortal);
        failing += u64::from(is_failing);
    }
    let ttf_years = stdout
        .lines()
        .find(|l| l.starts_with("chip TTF = "))
        .map(|line| {
            let value: Option<f64> = number_after(line, "chip TTF = ");
            match (value, line.contains(" hours at ")) {
                (Some(v), true) => Ok(v / HOURS_PER_YEAR),
                (Some(v), false) => Ok(v),
                (None, _) => Err(format!("unreadable TTF line {line:?}")),
            }
        })
        .transpose()?;
    let expected_code = if failing > 0 { EXIT_VIOLATION } else { 0 };
    if code != expected_code || ttf_years.is_some() != (failing > 0) {
        return Err(format!(
            "exit status {code} and TTF {ttf_years:?} with {failing} failing trees"
        ));
    }
    let result = TreeResult {
        immortal,
        failing,
        ttf_years,
    };
    if let Some(expected) = reference {
        let ttf_ok = match (result.ttf_years, expected.ttf_years) {
            (Some(got), Some(want)) => {
                (got - want).abs() <= TTF_TOLERANCE * want + TTF_PRINTED_YEARS
            }
            (None, None) => true,
            _ => false,
        };
        if result.immortal != expected.immortal || result.failing != expected.failing || !ttf_ok {
            return Err(format!("got {result:?}, expected {expected:?}"));
        }
    }
    Ok(result)
}

/// FNV-1a (64-bit) digest, rendered `fnv-<16 hex digits>`.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv-{hash:016x}")
}

/// Checks one `repro` run: exit 0 and the recorded stdout digest.
pub fn check_repro(code: i32, stdout: &str, digest: &str) -> Result<(), String> {
    if code != 0 {
        return Err(format!("exit status {code}"));
    }
    let got = fnv1a(stdout.as_bytes());
    if got != digest {
        return Err(format!("stdout digest {got}, expected {digest}"));
    }
    Ok(())
}

/// Results recorded for some seeds (`references.json`).
pub struct References(Json);

impl References {
    pub fn load() -> Result<Self, String> {
        json::parse(include_str!("../references.json"))
            .map(Self)
            .map_err(|e| format!("references.json: {e}"))
    }

    fn input(&self, seed: u64, workload: &str, input: usize) -> Option<&Json> {
        self.0
            .get("seeds")?
            .get(&seed.to_string())?
            .get(workload)?
            .as_array()?
            .get(input)
    }

    pub fn coupled(&self, seed: u64, workload: &str, input: usize) -> Option<CoupledResult> {
        CoupledResult::from_json(self.input(seed, workload, input)?)
    }

    pub fn tree(&self, seed: u64, input: usize) -> Option<TreeResult> {
        TreeResult::from_json(self.input(seed, "tree-em", input)?)
    }

    pub fn repro_digest(&self) -> Option<&str> {
        self.0.get("repro_stdout_fnv1a")?.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUPLED: &str = "\
100×100 grid: fixed point in 13 iterations (last max |dT| = 4.721e-2 K)
  worst IR drop  = 1150.5 mV at node (49, 50)
  peak strap T   = 212.19 °C (485.34 K)
  chip TTF       = 8.61e0 h at the 1e-3 failure quantile (8812 mortal straps)

top violations (of 536):
strap                           T_m [°C]      j [MA/cm²]        util         governing
";

    fn reference() -> CoupledResult {
        CoupledResult {
            iterations: 13,
            ir_drop_mv: 1150.5,
            peak_c: 212.19,
            violations: 536,
        }
    }

    #[test]
    fn coupled_output_parses() {
        assert_eq!(parse_coupled(COUPLED).unwrap(), reference());
        let clean = COUPLED.replace("\ntop violations (of 536):", "all 19800 straps pass");
        assert_eq!(parse_coupled(&clean).unwrap().violations, 0);
    }

    #[test]
    fn doctored_coupled_output_is_counted_as_failed() {
        let mut tally = Tally::default();
        let good = check_coupled(3, COUPLED, 100, Some(&reference()));
        assert!(tally.record("good", good).is_some());
        let hotter = COUPLED.replace("212.19 °C", "213.19 °C");
        let wrong_exit = check_coupled(0, COUPLED, 100, None);
        let truncated = check_coupled(3, &COUPLED[..60], 100, None);
        let doctored = [
            check_coupled(3, &hotter, 100, Some(&reference())),
            wrong_exit,
            truncated,
        ];
        for outcome in doctored {
            assert!(tally.record("doctored", outcome).is_none());
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn signoff_reply_is_held_against_the_engine() {
        let reply = r#"{"ok": false, "iterations": 13, "worst_ir_drop_mv": 1150.5,
            "peak_temperature_c": 212.19, "straps": 19800, "violations": 536}"#;
        assert!(check_signoff_reply(reply, 100, &reference()).is_ok());
        let off = reply.replace("\"iterations\": 13", "\"iterations\": 14");
        assert!(check_signoff_reply(&off, 100, &reference()).is_err());
        assert!(check_signoff_reply(reply, 99, &reference()).is_err());
    }

    fn deck() -> Vec<DeckTree> {
        let tree = |name: &str, segments, full_tap| DeckTree {
            name: name.to_owned(),
            segments,
            full_tap,
            provably_immortal: !full_tap,
        };
        vec![tree("t0_0", 150, false), tree("t1_0", 400, true)]
    }

    const TREE: &str = "\
2 tree(s) from deck.sp at 110.0 °C (signoff horizon: 10.0 years)
tree              segments    peak σ [MPa]      immortal                         outcome
t0_0                   150             1.2           yes            below σ_crit forever
t1_0                   400           900.0            no            fails at 2.28 years
σ_crit = 41 MPa (cu, Blech-calibrated at 100 °C)
chip TTF = 2.28 years at the 1e-3 failure quantile (1 failing tree(s))
";

    #[test]
    fn tree_output_is_held_against_the_deck() {
        let expected = TreeResult {
            immortal: 1,
            failing: 1,
            ttf_years: Some(2.28),
        };
        assert_eq!(
            check_tree(3, TREE, &deck(), Some(&expected)).unwrap(),
            expected
        );
        let short = TREE.replace("400           900.0", "399           900.0");
        assert!(check_tree(3, &short, &deck(), None).is_err());
        let flipped = TREE.replace("1.2           yes", "1.2            no");
        assert!(check_tree(3, &flipped, &deck(), None).is_err());
        assert!(check_tree(0, TREE, &deck(), None).is_err());
        let later = TREE.replace("chip TTF = 2.28", "chip TTF = 2.40");
        assert!(check_tree(3, &later, &deck(), Some(&expected)).is_err());
    }

    #[test]
    fn repro_digest_must_match() {
        let digest = fnv1a(b"table 1\n");
        assert!(check_repro(0, "table 1\n", &digest).is_ok());
        assert!(check_repro(0, "table 1 \n", &digest).is_err());
        assert!(check_repro(1, "table 1\n", &digest).is_err());
    }

    #[test]
    fn references_file_parses() {
        let refs = References::load().unwrap();
        assert!(refs.repro_digest().is_some());
        assert!(refs.coupled(1, "coupled-picard", 0).is_some());
        assert!(refs.tree(2, 0).is_some());
    }
}
