//! A compact transient circuit simulator and interconnect-optimization
//! toolkit — the substitute for the paper's HSPICE + SPACE3D flow (§4).
//!
//! What the paper needed from SPICE is narrow: the **current waveform at
//! the output of an optimally sized repeater driving an optimally long
//! distributed RC line** (its Fig. 7), reduced to peak/RMS current
//! densities and an effective duty cycle (its Tables 5–6). This crate
//! rebuilds that flow from scratch:
//!
//! * [`linalg`] — dense LU with partial pivoting; [`sparse`] — sparse
//!   LU (Gilbert–Peierls) with factorization reuse; [`solver`] — the
//!   dense/sparse LU crossover general MNA assembly stamps into.
//! * [`cholesky`] — the AMD-ordered ([`ordering`]) supernodal LDLᵀ that
//!   [`grid_dc`] factors every reduced DC power grid with, behind
//!   [`power_grid`] and the coupled signoff.
//! * [`netlist`] — R/C/V/I devices plus a level-1 MOSFET and a CMOS
//!   inverter macro; [`sources`] provides DC/pulse/PWL waveforms.
//! * [`transient`] — MNA assembly, Newton iteration, and
//!   backward-Euler/trapezoidal integration.
//! * [`rcline`] — N-segment π-ladder distributed lines.
//! * [`extract`] — closed-form per-layer r and c extraction
//!   (Sakurai–Tamaru), replacing the 3-D field solver.
//! * [`repeater`] — the optimum of eqs. (16)–(17)
//!   (`l_opt`, `s_opt`), testbench construction, and waveform
//!   post-processing into [`hotwire_em::CurrentStats`].
//!
//! # Examples
//!
//! ```
//! use hotwire_circuit::netlist::Circuit;
//! use hotwire_circuit::sources::SourceWaveform;
//! use hotwire_circuit::transient::{simulate, TransientOptions};
//!
//! // An RC low-pass: 1 kΩ into 1 nF, driven by a 1 V step.
//! let mut c = Circuit::new();
//! let vin = c.node();
//! let vout = c.node();
//! c.voltage_source(vin, Circuit::GROUND, SourceWaveform::dc(1.0));
//! c.resistor(vin, vout, 1.0e3);
//! c.capacitor(vout, Circuit::GROUND, 1.0e-9);
//! let result = simulate(&c, 5.0e-6, TransientOptions::default())?;
//! let v_end = *result.voltage(vout).last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-2, "settles to the rail");
//! # Ok::<(), hotwire_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used deliberately throughout validation code: unlike
// `x <= 0.0` it also rejects NaN, which must never enter a solver.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cholesky;
mod error;
pub mod extract;
pub mod grid_dc;
pub mod linalg;
pub mod netlist;
pub mod ordering;
pub mod parser;
pub mod power_grid;
pub mod rcline;
pub mod repeater;
pub mod solver;
pub mod sources;
pub mod sparse;
pub mod transient;

pub use error::CircuitError;
pub use parser::ParseError;
