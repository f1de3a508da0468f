//! The netlist parser against a naive model on random decks.
//!
//! Each case writes a deck from a small pool of node names in random
//! case (so names repeat), the ground aliases `0`/`gnd`/`GND`/`Gnd`, and
//! R/C/V/I lines in `DC`, bare-value and `PULSE(v0,v1,…)` form, with
//! every value suffix in either case, comments, blank lines and `.end`
//! followed by junk. Occasional faults ride along: a duplicate element
//! name in another case, a bad value after a comma, a wrong arity.
//!
//! While writing the deck the generator keeps the model: nodes numbered
//! by first use of their lowercased name, the uppercased element names,
//! every device, and the first fault in deck order with its line and
//! column. The parser must reproduce all of it.
//!
//! `PROPTEST_CASES` sets the number of random decks (default 64).

use hotwire_circuit::netlist::{Circuit, Device};
use hotwire_circuit::parser::{parse_netlist, ParseError};
use hotwire_circuit::sources::SourceWaveform;
use proptest::prelude::*;

/// Random decks per property: `PROPTEST_CASES`, else 64.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Splitmix64, so each case derives its whole deck from one seed.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// `text` with each ASCII letter's case drawn at random.
    fn any_case(&mut self, text: &str) -> String {
        text.chars()
            .map(|c| {
                if self.one_in(2) {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect()
    }
}

const NODE_POOL: [&str; 6] = ["a", "b", "mid", "vdd", "n1", "tap_2"];
const GROUND: [&str; 4] = ["0", "gnd", "GND", "Gnd"];
const SUFFIXES: [(&str, f64); 10] = [
    ("", 1.0),
    ("f", 1.0e-15),
    ("p", 1.0e-12),
    ("n", 1.0e-9),
    ("u", 1.0e-6),
    ("m", 1.0e-3),
    ("k", 1.0e3),
    ("meg", 1.0e6),
    ("g", 1.0e9),
    ("t", 1.0e12),
];
const MANTISSAS: [&str; 6] = ["1", "2.5", "0.47", "33", "1e2", "4.7E-1"];
/// Tokens that are not values under any reading of the suffixes.
const BAD_VALUES: [&str; 5] = ["1x", "2.5.1", "zz", "1k5", "1e"];

/// What the first fault in deck order must read as.
#[derive(Debug, Clone, PartialEq)]
enum Fault {
    BadValue(String),
    WrongArity,
    Duplicate(String),
}

/// The model of one deck, kept while it is written.
#[derive(Default)]
struct Model {
    text: String,
    line: usize,
    /// Lowercased node names; name `i` is node `i + 1`.
    nodes: Vec<String>,
    /// Every node spelling used, with the node it names.
    spellings: Vec<(String, usize)>,
    /// Element names as spelled, with their devices, in deck order.
    devices: Vec<(String, Device)>,
    /// The first fault: what it is, its line and its column.
    fault: Option<(Fault, usize, usize)>,
    ended: bool,
}

impl Model {
    fn node(&mut self, spelled: &str) -> usize {
        let key = spelled.to_ascii_lowercase();
        let id = if key == "0" || key == "gnd" {
            Circuit::GROUND
        } else if let Some(i) = self.nodes.iter().position(|n| *n == key) {
            i + 1
        } else {
            self.nodes.push(key);
            self.nodes.len()
        };
        self.spellings.push((spelled.to_owned(), id));
        id
    }

    /// Appends one raw line; it counts for the model only before `.end`
    /// and the first fault.
    fn push_line(&mut self, raw: &str, mix: &mut Mix) {
        self.line += 1;
        self.text.push_str(raw);
        self.text
            .push_str(if mix.one_in(8) { "\r\n" } else { "\n" });
    }

    fn live(&self) -> bool {
        !self.ended && self.fault.is_none()
    }
}

/// One deck line assembled token by token, keeping 1-based columns.
struct Line(String);

impl Line {
    fn push(&mut self, separator: &str, token: &str) -> usize {
        self.0.push_str(separator);
        let column = self.0.len() + 1;
        self.0.push_str(token);
        column
    }
}

/// A random value token and what it parses to.
fn value(mix: &mut Mix) -> (String, f64) {
    let mantissa = mix.pick(&MANTISSAS);
    let (suffix, mult) = SUFFIXES[mix.below(SUFFIXES.len())];
    let token = format!("{mantissa}{}", mix.any_case(suffix));
    let parsed: f64 = mantissa.parse().expect("the pool holds numbers");
    (token, parsed * mult)
}

fn element_line(model: &mut Model, mix: &mut Mix, count: usize) {
    let kind = mix.pick(&["R", "C", "V", "I"]);
    // Fault: 0 none, 1 duplicate name, 2 bad value after a comma, 3 wrong arity.
    let fault = if mix.one_in(25) { 1 + mix.below(3) } else { 0 };
    let earlier = (fault == 1 && !model.devices.is_empty())
        .then(|| model.devices[mix.below(model.devices.len())].0.clone());
    let name = match &earlier {
        // Another case of an earlier name: flip its first letter.
        Some(old) => {
            let mut chars: Vec<char> = old.chars().collect();
            chars[0] = if chars[0].is_ascii_uppercase() {
                chars[0].to_ascii_lowercase()
            } else {
                chars[0].to_ascii_uppercase()
            };
            chars.into_iter().collect()
        }
        None => {
            let stem = mix.pick(&["", "load", "x"]);
            mix.any_case(&format!("{kind}{stem}{count}"))
        }
    };
    let kind = name[..1].to_ascii_uppercase();
    let mut line = Line(mix.pick(&["", " ", "  ", "\t"]).to_owned());
    let name_col = line.push("", &name);
    let spelled: Vec<String> = (0..2)
        .map(|_| {
            if mix.one_in(4) {
                mix.pick(&GROUND).to_owned()
            } else {
                let node = mix.pick(&NODE_POOL);
                mix.any_case(node)
            }
        })
        .collect();
    let gap = |mix: &mut Mix| mix.pick(&[" ", "  ", "\t", " \t "]).to_owned();
    let mut fault_here: Option<(Fault, usize)> = None;
    let device = if kind == "R" || kind == "C" {
        line.push(&gap(mix), &spelled[0]);
        line.push(&gap(mix), &spelled[1]);
        let (token, v) = value(mix);
        if fault == 3 {
            fault_here = Some((Fault::WrongArity, name_col));
            if mix.one_in(2) {
                line.push(&gap(mix), &token);
                line.push(&gap(mix), "1k");
            }
        } else {
            line.push(&gap(mix), &token);
        }
        let (a, b) = (
            model_node(model, &spelled[0]),
            model_node(model, &spelled[1]),
        );
        if kind == "R" {
            Device::Resistor { a, b, ohms: v }
        } else {
            Device::Capacitor { a, b, farads: v }
        }
    } else {
        line.push(&gap(mix), &spelled[0]);
        line.push(&gap(mix), &spelled[1]);
        let form = if fault == 2 { 2 } else { mix.below(3) };
        let waveform = match form {
            0 => {
                let spec_col = line.push(&gap(mix), &mix.any_case("dc"));
                let (token, v) = value(mix);
                line.push(&gap(mix), &token);
                if fault == 3 {
                    line.push(&gap(mix), "2");
                    fault_here = Some((Fault::WrongArity, spec_col));
                }
                SourceWaveform::dc(v)
            }
            1 if fault != 3 => {
                let (token, v) = value(mix);
                line.push(&gap(mix), &token);
                SourceWaveform::dc(v)
            }
            _ => {
                let spec_col = line.push(&gap(mix), &mix.any_case("pulse"));
                let bad_at = (fault == 2).then(|| 1 + mix.below(6));
                let count = if fault == 3 { 6 } else { 7 };
                let mut v = [0.0; 7];
                for (k, slot) in v.iter_mut().enumerate().take(count) {
                    let separator = match k {
                        0 => mix.pick(&["(", " (", "( "]),
                        _ if Some(k) == bad_at => mix.pick(&[",", ", "]),
                        _ => mix.pick(&[" ", ",", ", "]),
                    };
                    if Some(k) == bad_at {
                        let bad = mix.pick(&BAD_VALUES);
                        let col = line.push(separator, bad);
                        fault_here = Some((Fault::BadValue(bad.to_owned()), col));
                    } else {
                        let (token, parsed) = value(mix);
                        line.push(separator, &token);
                        *slot = parsed;
                    }
                }
                line.push("", ")");
                if fault == 3 {
                    fault_here = Some((Fault::WrongArity, spec_col));
                }
                SourceWaveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6])
            }
        };
        let (plus, minus) = (
            model_node(model, &spelled[0]),
            model_node(model, &spelled[1]),
        );
        if kind == "V" {
            Device::VoltageSource {
                plus,
                minus,
                waveform,
            }
        } else {
            Device::CurrentSource {
                from: plus,
                into: minus,
                waveform,
            }
        }
    };
    if fault_here.is_none() && earlier.is_some() {
        fault_here = Some((Fault::Duplicate(name.to_ascii_uppercase()), name_col));
    }
    if model.live() {
        match fault_here {
            Some((fault, column)) => model.fault = Some((fault, model.line + 1, column)),
            None => model.devices.push((name, device)),
        }
    }
    model.push_line(&line.0, mix);
}

/// Resolves a node in the model while its lines still count.
fn model_node(model: &mut Model, spelled: &str) -> usize {
    if model.live() {
        model.node(spelled)
    } else {
        usize::MAX
    }
}

fn random_deck(seed: u64) -> Model {
    let mut mix = Mix(seed);
    let mut model = Model::default();
    let lines = 1 + mix.below(40);
    for count in 0..lines {
        match mix.below(20) {
            0 => {
                let comment = mix.pick(&["* R9 a b 1k", "# junk (,)", "  * indented", "*"]);
                model.push_line(comment, &mut mix);
            }
            1 => {
                let blank = mix.pick(&["", "   ", "\t"]);
                model.push_line(blank, &mut mix);
            }
            2 => model.push_line(mix.pick(&[".tran 1n 10n", ".OPTION x=1"]), &mut mix),
            3 if mix.one_in(3) => {
                let end = mix.pick(&[".end", ".END", " .End"]);
                model.push_line(end, &mut mix);
                model.ended = true;
                let junk = mix.pick(&["X1 a b 1k", "R1 a", "garbage(,)", "V1 a 0 PULSE(1"]);
                model.push_line(junk, &mut mix);
            }
            _ => element_line(&mut model, &mut mix, count),
        }
    }
    model
}

fn check_fault(err: &ParseError, want: &(Fault, usize, usize)) -> Result<(), TestCaseError> {
    let (fault, line, column) = want;
    prop_assert_eq!((err.line(), err.column()), (*line, *column), "{:?}", err);
    let same = match (fault, err) {
        (Fault::BadValue(t), ParseError::BadValue { token, .. }) => t == token,
        (Fault::WrongArity, ParseError::WrongArity { .. }) => true,
        (Fault::Duplicate(n), ParseError::DuplicateElement { name, .. }) => n == name,
        _ => false,
    };
    prop_assert!(same, "wanted {:?}, got {:?}", fault, err);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Nodes, elements, devices and the first error all match the model.
    #[test]
    fn parser_matches_a_naive_model(seed in any::<u64>()) {
        let model = random_deck(seed);
        let parsed = parse_netlist(&model.text);
        if let Some(want) = &model.fault {
            let err = parsed.expect_err("the deck holds a fault");
            check_fault(&err, want)?;
            return Ok(());
        }
        let parsed = match parsed {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("{e}\n{}", model.text))),
        };
        let listed: Vec<(String, usize)> =
            parsed.nodes().map(|(name, id)| (name.to_owned(), id)).collect();
        let expected: Vec<(String, usize)> =
            model.nodes.iter().enumerate().map(|(i, n)| (n.clone(), i + 1)).collect();
        prop_assert_eq!(listed, expected);
        prop_assert_eq!(parsed.circuit.node_count(), model.nodes.len());
        for (spelled, id) in &model.spellings {
            for spelling in [spelled.clone(), spelled.to_ascii_uppercase(), spelled.to_ascii_lowercase()] {
                prop_assert_eq!(parsed.node(&spelling), Some(*id), "node {}", spelling);
            }
        }
        for unused in NODE_POOL.iter().filter(|n| !model.nodes.iter().any(|m| m == *n)) {
            prop_assert_eq!(parsed.node(unused), None);
        }
        prop_assert_eq!(parsed.circuit.devices().len(), model.devices.len());
        for (k, (name, device)) in model.devices.iter().enumerate() {
            for spelling in [name.clone(), name.to_ascii_lowercase(), name.to_ascii_uppercase()] {
                prop_assert_eq!(parsed.device(&spelling), Some(k), "device {}", spelling);
            }
            prop_assert_eq!(&parsed.circuit.devices()[k], device, "device {}", name);
        }
        prop_assert_eq!(parsed.device("Z9"), None);
    }
}
