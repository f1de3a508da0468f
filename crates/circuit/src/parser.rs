//! A SPICE-flavoured netlist parser.
//!
//! The transient engine is usually driven programmatically (see
//! [`crate::repeater`]), but decks from files come through here, up to
//! the 100k-line supply decks of tree-EM: names are interned in one
//! buffer, so a line allocates nothing. The dialect is a SPICE subset:
//!
//! ```text
//! * comment lines start with '*' (or '#'); continuation is not needed
//! VDD vdd 0 DC 2.5
//! VIN in  0 PULSE(0 2.5 0 0.1n 0.1n 2n 4n)
//! R1  in  mid 1k
//! C1  mid 0   10f
//! I1  0   mid DC 1u
//! M1  out in  0   NMOS VT=0.5 K=1m LAMBDA=0.05
//! M2  out in  vdd PMOS VT=0.5 K=2m
//! .end
//! ```
//!
//! * Node `0` (also `gnd`, in any case) is ground; other node names are
//!   case-insensitive and numbered on first use ([`ParsedCircuit::nodes`]).
//! * Values accept the SPICE magnitude suffixes
//!   `f p n u m k meg g t` (case-insensitive).
//! * Device kinds are selected by the first letter of the element name:
//!   `R`, `C`, `V`, `I`, `M`.
//!
//! Parse failures come back as a typed [`ParseError`] carrying the
//! 1-based line and column of the offending token, so a CLI (or an
//! editor integration) can point at the deck rather than merely quote
//! it.
//!
//! ```
//! use hotwire_circuit::parser::parse_netlist;
//! use hotwire_circuit::transient::{simulate, TransientOptions};
//!
//! let deck = "\
//! * rc divider
//! V1 in 0 DC 1.0
//! R1 in out 1k
//! C1 out 0 1n
//! ";
//! let parsed = parse_netlist(deck)?;
//! let out = parsed.node("out").expect("declared in the deck");
//! let result = simulate(&parsed.circuit, 10.0e-6, TransientOptions::default())?;
//! assert!((result.voltage(out).last().unwrap() - 1.0).abs() < 1e-2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

use crate::netlist::{Circuit, MosParams, MosPolarity, NodeId};
use crate::sources::SourceWaveform;
use crate::CircuitError;

/// A netlist parse failure, pointing at the offending token.
///
/// Every variant carries `line` and `column` (both 1-based; the column
/// is a byte offset into the raw deck line), so diagnostics can be
/// rendered `deck.sp:12:7`-style.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseError {
    /// A token where a numeric value was expected does not parse as
    /// one (bad digits or an unknown magnitude suffix).
    BadValue {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the token.
        column: usize,
        /// The offending token, verbatim.
        token: String,
    },
    /// An element line has the wrong number of tokens for its kind.
    WrongArity {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the element name.
        column: usize,
        /// What the element kind expects, human-readable.
        expected: &'static str,
    },
    /// The element name starts with a letter no device kind claims.
    UnsupportedElement {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the element name.
        column: usize,
        /// The unrecognized leading letter.
        kind: char,
    },
    /// A MOSFET references a model other than `NMOS`/`PMOS`.
    UnknownModel {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the model token.
        column: usize,
        /// The unrecognized model name.
        model: String,
    },
    /// A MOSFET `KEY=value` parameter key is not recognized.
    UnknownParameter {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the parameter token.
        column: usize,
        /// The unrecognized key.
        parameter: String,
    },
    /// A source specification is neither `DC`, `PULSE`, nor a bare
    /// value.
    UnknownSourceSpec {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the spec token.
        column: usize,
        /// The unrecognized specification keyword.
        spec: String,
    },
    /// A MOSFET parameter token is not of the form `KEY=value`.
    ExpectedKeyValue {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the token.
        column: usize,
        /// The malformed token, verbatim.
        token: String,
    },
    /// Two elements share a name (names are case-insensitive).
    DuplicateElement {
        /// 1-based deck line of the *second* occurrence.
        line: usize,
        /// 1-based byte column of the element name.
        column: usize,
        /// The duplicated name (uppercased).
        name: String,
    },
    /// The parsed values were rejected by device construction
    /// (negative resistance, non-physical MOSFET parameters, …).
    Device {
        /// 1-based deck line.
        line: usize,
        /// 1-based byte column of the element name.
        column: usize,
        /// The device-level complaint.
        message: String,
    },
}

impl ParseError {
    /// The 1-based deck line the error points at.
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            Self::BadValue { line, .. }
            | Self::WrongArity { line, .. }
            | Self::UnsupportedElement { line, .. }
            | Self::UnknownModel { line, .. }
            | Self::UnknownParameter { line, .. }
            | Self::UnknownSourceSpec { line, .. }
            | Self::ExpectedKeyValue { line, .. }
            | Self::DuplicateElement { line, .. }
            | Self::Device { line, .. } => *line,
        }
    }

    /// The 1-based byte column the error points at.
    #[must_use]
    pub fn column(&self) -> usize {
        match self {
            Self::BadValue { column, .. }
            | Self::WrongArity { column, .. }
            | Self::UnsupportedElement { column, .. }
            | Self::UnknownModel { column, .. }
            | Self::UnknownParameter { column, .. }
            | Self::UnknownSourceSpec { column, .. }
            | Self::ExpectedKeyValue { column, .. }
            | Self::DuplicateElement { column, .. }
            | Self::Device { column, .. } => *column,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "netlist line {}, column {}: ",
            self.line(),
            self.column()
        )?;
        match self {
            Self::BadValue { token, .. } => write!(f, "`{token}` is not a numeric value"),
            Self::WrongArity { expected, .. } => f.write_str(expected),
            Self::UnsupportedElement { kind, .. } => {
                write!(
                    f,
                    "unsupported element type `{kind}` (supported: R C V I M)"
                )
            }
            Self::UnknownModel { model, .. } => write!(f, "unknown model `{model}`"),
            Self::UnknownParameter { parameter, .. } => {
                write!(f, "unknown parameter `{parameter}`")
            }
            Self::UnknownSourceSpec { spec, .. } => write!(f, "unknown source spec `{spec}`"),
            Self::ExpectedKeyValue { token, .. } => {
                write!(f, "expected KEY=value, got `{token}`")
            }
            Self::DuplicateElement { name, .. } => write!(f, "duplicate element name `{name}`"),
            Self::Device { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for CircuitError {
    fn from(e: ParseError) -> Self {
        Self::InvalidDevice {
            message: e.to_string(),
        }
    }
}

/// The result of parsing a netlist: the circuit plus name → node and
/// name → device-index maps for probing.
#[derive(Debug, Clone, Default)]
pub struct ParsedCircuit {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// Node names, lowercased: name `i` is node `i + 1`.
    nodes: Names,
    /// Element names, uppercased: name `k` is device `k`.
    devices: Names,
}

impl ParsedCircuit {
    /// Resolves a node name from the deck (ground aliases return
    /// [`Circuit::GROUND`]).
    #[must_use]
    pub fn node(&self, name: &str) -> Option<NodeId> {
        if is_ground(name) {
            return Some(Circuit::GROUND);
        }
        self.nodes.find(&name.to_ascii_lowercase()).map(|i| i + 1)
    }

    /// Resolves an element name (e.g. `"R1"`) to its device index, usable
    /// with the current probes of [`crate::transient::TransientResult`].
    #[must_use]
    pub fn device(&self, name: &str) -> Option<usize> {
        self.devices.find(&name.to_ascii_uppercase())
    }

    /// Every declared node name (lowercased) with its id, in order of
    /// first use in the deck. Ground aliases are not listed.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, NodeId)> {
        (0..self.nodes.ends.len()).map(|i| (self.nodes.name(i), i + 1))
    }
}

/// Ends a hash chain in [`Names::next`].
const NO_NAME: usize = usize::MAX;

/// A name interner: every name lives in one `String`, so a deck costs
/// no allocation per name, and names are found by a keyed hash of their
/// text, so a hostile deck cannot force collisions.
#[derive(Debug, Clone, Default)]
struct Names {
    /// The names back to back: name `i` ends at `ends[i]` and starts
    /// where name `i − 1` ends.
    text: String,
    ends: Vec<usize>,
    /// The next older name with the same 64-bit hash, or [`NO_NAME`].
    next: Vec<usize>,
    /// Each hash to its newest name.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    keys: RandomState,
}

impl Names {
    fn with_capacity(names: usize) -> Self {
        Self {
            ends: Vec::with_capacity(names),
            next: Vec::with_capacity(names),
            index: HashMap::with_capacity_and_hasher(names, BuildHasherDefault::default()),
            ..Self::default()
        }
    }

    fn name(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[id]]
    }

    /// The id of `name`, already case-folded, whose hash is `hash`.
    fn lookup(&self, hash: u64, name: &str) -> Option<usize> {
        let mut id = *self.index.get(&hash)?;
        while self.name(id) != name {
            id = self.next[id];
            if id == NO_NAME {
                return None;
            }
        }
        Some(id)
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.lookup(self.keys.hash_one(name), name)
    }

    /// Interns `raw` case-folded by `fold`: `Ok` with the id of a new
    /// name, `Err` with the id of one seen before.
    fn intern(&mut self, raw: &str, fold: fn(&mut str)) -> Result<usize, usize> {
        let start = self.text.len();
        self.text.push_str(raw);
        fold(&mut self.text[start..]);
        let name = &self.text[start..];
        let hash = self.keys.hash_one(name);
        if let Some(id) = self.lookup(hash, name) {
            self.text.truncate(start);
            return Err(id);
        }
        let id = self.ends.len();
        self.ends.push(self.text.len());
        self.next
            .push(self.index.insert(hash, id).unwrap_or(NO_NAME));
        Ok(id)
    }
}

/// The hasher of the name index. Its keys are keyed SipHash values
/// already, so a `u64` passes through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// The SPICE magnitude suffixes, tried in this order (`meg` before `g`).
const SUFFIXES: [(&str, f64); 9] = [
    ("meg", 1.0e6),
    ("f", 1.0e-15),
    ("p", 1.0e-12),
    ("n", 1.0e-9),
    ("u", 1.0e-6),
    ("m", 1.0e-3),
    ("k", 1.0e3),
    ("g", 1.0e9),
    ("t", 1.0e12),
];

/// The numeric value of a SPICE magnitude-suffixed token, if it is one.
/// Suffixes match in either case, as `f64` parsing does.
fn raw_value(token: &str) -> Option<f64> {
    let t = token.trim();
    let (mult, digits) = SUFFIXES
        .iter()
        .find_map(|&(suffix, mult)| {
            let (digits, tail) = t.split_at_checked(t.len().checked_sub(suffix.len())?)?;
            tail.eq_ignore_ascii_case(suffix).then_some((mult, digits))
        })
        .unwrap_or((1.0, t));
    digits.parse::<f64>().ok().map(|v| v * mult)
}

/// Parses a SPICE magnitude-suffixed value (`1k`, `10f`, `2.5`, `1meg`).
///
/// # Errors
///
/// Returns [`CircuitError::InvalidDevice`] for unparseable tokens.
pub fn parse_value(token: &str) -> Result<f64, CircuitError> {
    raw_value(token).ok_or_else(|| CircuitError::InvalidDevice {
        message: format!("`{token}` is not a numeric value"),
    })
}

/// One deck token with its 1-based byte column in the raw line.
struct Tok<'a> {
    text: &'a str,
    col: usize,
}

impl Tok<'_> {
    /// The token's numeric value, or a positioned [`ParseError`].
    fn value(&self, line: usize) -> Result<f64, ParseError> {
        raw_value(self.text).ok_or_else(|| ParseError::BadValue {
            line,
            column: self.col,
            token: self.text.to_owned(),
        })
    }
}

/// Splits a raw deck line into `out`'s tokens with their columns. `(`,
/// `)` and `,` separate tokens as whitespace does, so `PULSE(…)`
/// argument lists need no rewrite and columns are byte offsets into the
/// raw line.
fn tokenize<'t>(line: &'t str, out: &mut Vec<Tok<'t>>) {
    out.clear();
    let separates = |b: u8| b.is_ascii_whitespace() || matches!(b, b'(' | b')' | b',');
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if separates(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !separates(bytes[i]) {
            i += 1;
        }
        out.push(Tok {
            text: &line[start..i],
            col: start + 1,
        });
    }
}

/// Parses a whole deck into a [`ParsedCircuit`].
///
/// # Errors
///
/// Returns a [`ParseError`] pointing (line, column) at any malformed
/// element.
pub fn parse_netlist(text: &str) -> Result<ParsedCircuit, ParseError> {
    // An element takes a line of 8 bytes or more, and adds about one node.
    let names = (text.bytes().filter(|&b| b == b'\n').count() + 1).min(text.len() / 8);
    let mut parsed = ParsedCircuit {
        circuit: Circuit::new(),
        nodes: Names::with_capacity(names),
        devices: Names::with_capacity(names),
    };
    let mut tokens = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') || line.starts_with('#') {
            continue;
        }
        if line.starts_with('.') {
            // dot-commands: only .end is meaningful in this subset
            if matches!(line.get(..4), Some(d) if d.eq_ignore_ascii_case(".end")) {
                break;
            }
            continue;
        }
        tokenize(raw, &mut tokens);
        let Some(first) = tokens.first() else {
            continue;
        };
        let Some(kind) = first.text.chars().next() else {
            continue;
        };
        match kind.to_ascii_uppercase() {
            'R' => parse_resistor(&mut parsed, lineno, &tokens)?,
            'C' => parse_capacitor(&mut parsed, lineno, &tokens)?,
            'V' => parse_source(&mut parsed, lineno, &tokens, true)?,
            'I' => parse_source(&mut parsed, lineno, &tokens, false)?,
            'M' => parse_mosfet(&mut parsed, lineno, &tokens)?,
            other => {
                return Err(ParseError::UnsupportedElement {
                    line: lineno,
                    column: first.col,
                    kind: other,
                })
            }
        };
        // Each element line adds one device and one name.
        if let Err(seen) = parsed.devices.intern(first.text, str::make_ascii_uppercase) {
            return Err(ParseError::DuplicateElement {
                line: lineno,
                column: first.col,
                name: parsed.devices.name(seen).to_owned(),
            });
        }
    }
    Ok(parsed)
}

fn resolve_node(parsed: &mut ParsedCircuit, name: &str) -> NodeId {
    if is_ground(name) {
        return Circuit::GROUND;
    }
    match parsed.nodes.intern(name, str::make_ascii_lowercase) {
        // Only this function allocates nodes, so name `i` is node `i + 1`.
        Ok(_) => parsed.circuit.node(),
        Err(id) => id + 1,
    }
}

/// Wraps a device-construction failure with the element's position.
fn device_err(lineno: usize, column: usize) -> impl FnOnce(CircuitError) -> ParseError {
    move |e| ParseError::Device {
        line: lineno,
        column,
        message: e.to_string(),
    }
}

fn parse_resistor(
    parsed: &mut ParsedCircuit,
    lineno: usize,
    tokens: &[Tok<'_>],
) -> Result<usize, ParseError> {
    let [name, n1, n2, value] = tokens else {
        return Err(ParseError::WrongArity {
            line: lineno,
            column: tokens[0].col,
            expected: "expected `Rname n1 n2 value`",
        });
    };
    let a = resolve_node(parsed, n1.text);
    let b = resolve_node(parsed, n2.text);
    let ohms = value.value(lineno)?;
    parsed
        .circuit
        .try_resistor(a, b, ohms)
        .map_err(device_err(lineno, name.col))
}

fn parse_capacitor(
    parsed: &mut ParsedCircuit,
    lineno: usize,
    tokens: &[Tok<'_>],
) -> Result<usize, ParseError> {
    let [name, n1, n2, value] = tokens else {
        return Err(ParseError::WrongArity {
            line: lineno,
            column: tokens[0].col,
            expected: "expected `Cname n1 n2 value`",
        });
    };
    let a = resolve_node(parsed, n1.text);
    let b = resolve_node(parsed, n2.text);
    let farads = value.value(lineno)?;
    parsed
        .circuit
        .try_capacitor(a, b, farads)
        .map_err(device_err(lineno, name.col))
}

fn parse_source(
    parsed: &mut ParsedCircuit,
    lineno: usize,
    tokens: &[Tok<'_>],
    voltage: bool,
) -> Result<usize, ParseError> {
    if tokens.len() < 4 {
        return Err(ParseError::WrongArity {
            line: lineno,
            column: tokens[0].col,
            expected: "expected `Vname n+ n- DC v` or `Vname n+ n- PULSE(v0 v1 td tr tf pw per)`",
        });
    }
    let plus = resolve_node(parsed, tokens[1].text);
    let minus = resolve_node(parsed, tokens[2].text);
    let spec = tokens[3].text;
    let waveform = if spec.eq_ignore_ascii_case("DC") {
        if tokens.len() != 5 {
            return Err(ParseError::WrongArity {
                line: lineno,
                column: tokens[3].col,
                expected: "DC source needs one value",
            });
        }
        SourceWaveform::dc(tokens[4].value(lineno)?)
    } else if spec.eq_ignore_ascii_case("PULSE") {
        if tokens.len() != 11 {
            return Err(ParseError::WrongArity {
                line: lineno,
                column: tokens[3].col,
                expected: "PULSE needs 7 values: v0 v1 td tr tf pw per",
            });
        }
        let mut v = [0.0; 7];
        for (slot, tok) in v.iter_mut().zip(&tokens[4..11]) {
            *slot = tok.value(lineno)?;
        }
        SourceWaveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6])
    } else {
        // bare value shorthand: `V1 a 0 2.5`
        if tokens.len() != 4 {
            return Err(ParseError::UnknownSourceSpec {
                line: lineno,
                column: tokens[3].col,
                spec: spec.to_ascii_uppercase(),
            });
        }
        SourceWaveform::dc(tokens[3].value(lineno)?)
    };
    Ok(if voltage {
        parsed.circuit.voltage_source(plus, minus, waveform)
    } else {
        // SPICE convention: current flows from n+ through the source to n−
        parsed.circuit.current_source(plus, minus, waveform)
    })
}

fn parse_mosfet(
    parsed: &mut ParsedCircuit,
    lineno: usize,
    tokens: &[Tok<'_>],
) -> Result<usize, ParseError> {
    if tokens.len() < 5 {
        return Err(ParseError::WrongArity {
            line: lineno,
            column: tokens[0].col,
            expected: "expected `Mname d g s NMOS|PMOS [VT=..] [K=..] [LAMBDA=..]`",
        });
    }
    let d = resolve_node(parsed, tokens[1].text);
    let g = resolve_node(parsed, tokens[2].text);
    let s = resolve_node(parsed, tokens[3].text);
    let polarity = match tokens[4].text.to_ascii_uppercase().as_str() {
        "NMOS" => MosPolarity::Nmos,
        "PMOS" => MosPolarity::Pmos,
        other => {
            return Err(ParseError::UnknownModel {
                line: lineno,
                column: tokens[4].col,
                model: other.to_owned(),
            })
        }
    };
    let mut params = MosParams {
        vt: 0.5,
        k: 1.0e-3,
        lambda: 0.0,
    };
    for tok in &tokens[5..] {
        let Some((key, val)) = tok.text.split_once('=') else {
            return Err(ParseError::ExpectedKeyValue {
                line: lineno,
                column: tok.col,
                token: tok.text.to_owned(),
            });
        };
        let v = raw_value(val).ok_or_else(|| ParseError::BadValue {
            line: lineno,
            column: tok.col + key.len() + 1,
            token: val.to_owned(),
        })?;
        match key.to_ascii_uppercase().as_str() {
            "VT" => params.vt = v,
            "K" => params.k = v,
            "LAMBDA" => params.lambda = v,
            other => {
                return Err(ParseError::UnknownParameter {
                    line: lineno,
                    column: tok.col,
                    parameter: other.to_owned(),
                })
            }
        }
    }
    parsed
        .circuit
        .try_mosfet(d, g, s, params, polarity)
        .map_err(device_err(lineno, tokens[0].col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{simulate, TransientOptions};

    #[test]
    fn value_suffixes() {
        let close = |tok: &str, expect: f64| {
            let v = parse_value(tok).unwrap();
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "{tok}: {v} vs {expect}"
            );
        };
        close("1k", 1.0e3);
        close("10f", 1.0e-14);
        close("2.5", 2.5);
        close("1meg", 1.0e6);
        close("0.1N", 1.0e-10);
        close("3u", 3.0e-6);
        close("2m", 2.0e-3);
        close("1g", 1.0e9);
        close("1t", 1.0e12);
        assert!(parse_value("abc").is_err());
        assert!(parse_value("1x").is_err());
    }

    #[test]
    fn rc_deck_simulates() {
        let deck = "\
* rc filter
V1 in 0 DC 1.0
R1 in out 1k
C1 out gnd 1n
.end
ignored after end
";
        let p = parse_netlist(deck).unwrap();
        assert_eq!(p.circuit.devices().len(), 3);
        let out = p.node("out").unwrap();
        let r = simulate(&p.circuit, 1.0e-5, TransientOptions::default()).unwrap();
        assert!((r.voltage(out).last().unwrap() - 1.0).abs() < 1e-2);
        // current probe through the named resistor
        let i = r.resistor_current(&p.circuit, p.device("r1").unwrap());
        assert!(i[1] > 0.5e-3);
    }

    #[test]
    fn pulse_source_and_case_insensitivity() {
        let deck = "vin A 0 pulse(0 2.5 1n 0.2n 0.2n 3n 8n)\nr1 a 0 1K\n";
        let p = parse_netlist(deck).unwrap();
        // `A` and `a` are the same node
        assert_eq!(p.circuit.node_count(), 1);
        let r = simulate(
            &p.circuit,
            4.0e-9,
            TransientOptions {
                dt: Some(2.0e-11),
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let v = r.voltage(p.node("a").unwrap());
        let k = r.times.iter().position(|&t| t > 2.0e-9).unwrap();
        assert!((v[k] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn inverter_deck() {
        let deck = "\
VDD vdd 0 DC 2.5
VIN in 0 PULSE(0 2.5 1n 0.1n 0.1n 4n 10n)
M1 out in 0 NMOS VT=0.5 K=1m
M2 out in vdd PMOS VT=0.5 K=2m LAMBDA=0.05
CL out 0 20f
";
        let p = parse_netlist(deck).unwrap();
        let out = p.node("out").unwrap();
        let r = simulate(
            &p.circuit,
            10.0e-9,
            TransientOptions {
                dt: Some(5.0e-12),
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let k_pre = r.times.iter().position(|&t| t > 0.9e-9).unwrap();
        assert!(r.voltage_at(out, k_pre) > 2.2);
        let k_mid = r.times.iter().position(|&t| t > 3.0e-9).unwrap();
        assert!(r.voltage_at(out, k_mid) < 0.3);
    }

    #[test]
    fn current_source_direction() {
        // SPICE: current flows n+ → (through source) → n−, i.e. out of n−
        // into the external circuit. `I1 0 x 1m` pushes 1 mA into node x.
        let deck = "I1 0 x DC 1m\nR1 x 0 2k\n";
        let p = parse_netlist(deck).unwrap();
        let r = simulate(&p.circuit, 1.0e-6, TransientOptions::default()).unwrap();
        let v = r.voltage_at(p.node("x").unwrap(), 5);
        assert!((v - 2.0).abs() < 1e-6, "v = {v}");
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        for (deck, needle) in [
            ("R1 a b\n", "line 1"),
            ("R1 a b 1x\n", "not a numeric"),
            ("X1 a b 1k\n", "unsupported element"),
            ("V1 a 0 PULSE(1 2 3)\n", "PULSE needs 7"),
            ("M1 a b c QMOS\n", "unknown model"),
            ("M1 a b c NMOS FOO=1\n", "unknown parameter"),
            ("M1 a b c NMOS VT\n", "KEY=value"),
            ("R1 a 0 1k\nR1 a 0 1k\n", "duplicate element"),
            ("V1 a 0 AC 1\n", "unknown source spec"),
        ] {
            let err = parse_netlist(deck).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "deck {deck:?}: got `{err}`, wanted `{needle}`"
            );
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        // The bad value `1x` starts at byte 8 of line 2.
        let err = parse_netlist("* lead\nR1 a b  1x\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 9));
        assert!(matches!(err, ParseError::BadValue { ref token, .. } if token == "1x"));

        // The unknown model is the 5th token.
        let err = parse_netlist("M1 a b c QMOS\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (1, 10));
        assert!(matches!(err, ParseError::UnknownModel { ref model, .. } if model == "QMOS"));

        // Duplicate names point at the second occurrence.
        let err = parse_netlist("R1 a 0 1k\nR1 a 0 1k\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(matches!(err, ParseError::DuplicateElement { .. }));

        // Device-level rejection keeps the element position.
        let err = parse_netlist("R1 a 0 -5\n").unwrap_err();
        assert!(
            matches!(
                err,
                ParseError::Device {
                    line: 1,
                    column: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn parse_error_converts_to_circuit_error() {
        let err = parse_netlist("R1 a b\n").unwrap_err();
        let circuit_err = CircuitError::from(err);
        assert!(circuit_err.to_string().contains("line 1"));
    }

    #[test]
    fn node_names_listing() {
        let p = parse_netlist("R1 alpha beta 1k\nR2 beta 0 1k\n").unwrap();
        let mut names: Vec<(&str, usize)> = p.nodes().collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                ("alpha", p.node("ALPHA").unwrap()),
                ("beta", p.node("beta").unwrap())
            ]
        );
        assert_eq!(p.node("0"), Some(Circuit::GROUND));
        assert_eq!(p.node("GND"), Some(Circuit::GROUND));
        assert_eq!(p.node("missing"), None);
        assert_eq!(p.device("zz"), None);
    }
}
