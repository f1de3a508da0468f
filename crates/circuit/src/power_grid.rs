//! Power-distribution-grid analysis: IR drop and electromigration
//! screening of supply straps.
//!
//! The paper's Tables 2–4 carry a dedicated "Power Lines (r = 1.0)"
//! block because supply straps carry unipolar, near-DC current — the
//! worst case for electromigration at a given RMS level. This module
//! builds the standard mesh model of a power grid (orthogonal straps,
//! ideal pads, per-node sink currents), solves it, and reports the two
//! quantities a sign-off flow needs: the worst IR drop and the worst
//! strap current *density* to compare against a self-consistent design
//! rule.
//!
//! ```
//! use hotwire_circuit::power_grid::{PowerGrid, PowerGridSpec};
//! use hotwire_units::{Area, Current, Resistance, Voltage};
//!
//! let spec = PowerGridSpec {
//!     rows: 5,
//!     cols: 5,
//!     segment_resistance: Resistance::new(0.5),
//!     strap_cross_section: Area::from_um2(1.44),
//!     vdd: Voltage::new(2.5),
//!     sink_per_node: Current::from_milliamps(0.4),
//!     pads: vec![(0, 0), (0, 4), (4, 0), (4, 4)],
//! };
//! let grid = PowerGrid::build(&spec)?;
//! let report = grid.analyze()?;
//! assert!(report.worst_ir_drop.value() < 0.1 * 2.5, "healthy grid");
//! # Ok::<(), hotwire_circuit::CircuitError>(())
//! ```

use hotwire_units::{Area, Current, CurrentDensity, Resistance, Voltage};
use serde::{Deserialize, Serialize};

use crate::grid_dc::DcGridSolver;
use crate::netlist::{Circuit, NodeId};
use crate::sources::SourceWaveform;
use crate::transient::TransientOptions;
use crate::CircuitError;

/// Specification of a rectangular power grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerGridSpec {
    /// Number of strap intersections vertically.
    pub rows: usize,
    /// Number of strap intersections horizontally.
    pub cols: usize,
    /// Resistance of one strap segment between adjacent intersections.
    pub segment_resistance: Resistance,
    /// Metal cross-section of a strap (for current-density reporting).
    pub strap_cross_section: Area,
    /// Supply voltage at the pads.
    pub vdd: Voltage,
    /// DC current drawn by the logic under each intersection.
    pub sink_per_node: Current,
    /// `(row, col)` intersections bonded to ideal supply pads.
    pub pads: Vec<(usize, usize)>,
}

/// One strap segment's solved operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentLoad {
    /// Segment tail intersection.
    pub from: (usize, usize),
    /// Segment head intersection.
    pub to: (usize, usize),
    /// Magnitude of the DC current through the segment.
    pub current: Current,
    /// The corresponding (average = RMS = peak, r = 1) current density.
    pub density: CurrentDensity,
}

/// The analysis result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerGridReport {
    /// Largest supply droop anywhere on the grid.
    pub worst_ir_drop: Voltage,
    /// The intersection with the largest droop (ties per [`worst_index`]).
    pub worst_node: (usize, usize),
    /// Every segment's load, unsorted.
    pub segments: Vec<SegmentLoad>,
    /// Index into `segments` of [`PowerGridReport::worst_segment`].
    worst_segment: usize,
}

impl PowerGridReport {
    /// The most stressed segment by current density, ties per
    /// [`worst_index`].
    ///
    /// # Panics
    ///
    /// Panics if the grid had no segments (1×1 grids are rejected at
    /// build time).
    #[must_use]
    pub fn worst_segment(&self) -> SegmentLoad {
        self.segments[self.worst_segment]
    }

    /// `true` when every segment's density stays below the given design
    /// rule (a "Power Lines (r = 1.0)" entry from the self-consistent
    /// tables).
    #[must_use]
    pub fn meets_rule(&self, j_limit: CurrentDensity) -> bool {
        self.segments.iter().all(|s| s.density <= j_limit)
    }

    /// The segments violating a design rule, most stressed first.
    #[must_use]
    pub fn violations(&self, j_limit: CurrentDensity) -> Vec<SegmentLoad> {
        let mut v: Vec<SegmentLoad> = self
            .segments
            .iter()
            .copied()
            .filter(|s| s.density > j_limit)
            .collect();
        v.sort_by(|a, b| b.density.value().total_cmp(&a.density.value()));
        v
    }
}

/// How far below the maximum a value may fall and still tie with it, in
/// units in the last place of the operands it was computed from. On
/// symmetric 5×5 to 40×40 grids, mirror twins solved by the LDLᵀ or the
/// LU differ by up to 10 such units in IR drop and 33 in strap density;
/// nodes that are not twins differ by ten orders of magnitude more.
const TIE_ULPS: f64 = 128.0;

/// The index of the largest of `values`, and that maximum. Values less
/// than 128 units in the last place of `scale` below the maximum tie
/// with it, and the lowest index among them wins.
///
/// `scale` is the magnitude of the operands the values were computed
/// from: an IR drop `vdd − v` carries the rounding of `v`, so its scale
/// is the supply, and a strap density `|v_a − v_b|·g/A` has scale
/// `vdd·g/A`. Mirror-image twins on a symmetric layout then name the
/// same node or strap (the first in row-major order) whichever solver
/// rounded them. `None` when `values` is empty.
///
/// ```
/// use hotwire_circuit::power_grid::worst_index;
///
/// // Drops from a 2.5 V supply: the first two are twins a rounding
/// // apart, so the first wins and the maximum is reported.
/// let drops = [0.25, 0.25 + 4e-16, 0.1];
/// assert_eq!(worst_index(drops.into_iter(), 2.5), Some((0, drops[1])));
/// ```
pub fn worst_index(values: impl Iterator<Item = f64> + Clone, scale: f64) -> Option<(usize, f64)> {
    let max = values.clone().reduce(f64::max)?;
    let floor = max - TIE_ULPS * f64::EPSILON * scale.abs().max(max.abs());
    values
        .enumerate()
        .find(|&(_, v)| v >= floor)
        .map(|(i, _)| (i, max))
}

/// A strap segment's bookkeeping: device index plus its two end
/// intersections.
type SegmentRef = (usize, (usize, usize), (usize, usize));

/// A built power grid ready for analysis.
#[derive(Debug, Clone)]
pub struct PowerGrid {
    spec: PowerGridSpec,
    circuit: Circuit,
    nodes: Vec<NodeId>,
    segments: Vec<SegmentRef>,
}

impl PowerGrid {
    /// Builds the mesh circuit for a spec.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] for degenerate dimensions,
    /// out-of-range pads, or non-positive electrical values.
    pub fn build(spec: &PowerGridSpec) -> Result<Self, CircuitError> {
        if spec.rows < 2 || spec.cols < 2 {
            return Err(CircuitError::InvalidDevice {
                message: "power grid needs at least 2×2 intersections".to_owned(),
            });
        }
        if spec.pads.is_empty() {
            return Err(CircuitError::InvalidDevice {
                message: "power grid needs at least one pad".to_owned(),
            });
        }
        for &(r, c) in &spec.pads {
            if r >= spec.rows || c >= spec.cols {
                return Err(CircuitError::InvalidDevice {
                    message: format!(
                        "pad ({r}, {c}) outside the {}×{} grid",
                        spec.rows, spec.cols
                    ),
                });
            }
        }
        if !(spec.strap_cross_section.value() > 0.0) {
            return Err(CircuitError::InvalidDevice {
                message: "strap cross-section must be positive".to_owned(),
            });
        }
        let mut circuit = Circuit::new();
        let nodes: Vec<NodeId> = (0..spec.rows * spec.cols).map(|_| circuit.node()).collect();
        let at = |r: usize, c: usize| nodes[r * spec.cols + c];

        let mut segments = Vec::new();
        for r in 0..spec.rows {
            for c in 0..spec.cols {
                if c + 1 < spec.cols {
                    let d = circuit.try_resistor(
                        at(r, c),
                        at(r, c + 1),
                        spec.segment_resistance.value(),
                    )?;
                    segments.push((d, (r, c), (r, c + 1)));
                }
                if r + 1 < spec.rows {
                    let d = circuit.try_resistor(
                        at(r, c),
                        at(r + 1, c),
                        spec.segment_resistance.value(),
                    )?;
                    segments.push((d, (r, c), (r + 1, c)));
                }
                // logic sink under the intersection
                circuit.current_source(
                    at(r, c),
                    Circuit::GROUND,
                    SourceWaveform::dc(spec.sink_per_node.value()),
                );
            }
        }
        for &(r, c) in &spec.pads {
            circuit.voltage_source(
                at(r, c),
                Circuit::GROUND,
                SourceWaveform::dc(spec.vdd.value()),
            );
        }
        Ok(Self {
            spec: spec.clone(),
            circuit,
            nodes,
            segments,
        })
    }

    /// The underlying circuit (e.g. for extra probing).
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The netlist node backing intersection `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the intersection is outside the grid.
    #[must_use]
    pub fn node_id(&self, row: usize, col: usize) -> NodeId {
        assert!(row < self.spec.rows && col < self.spec.cols);
        self.nodes[row * self.spec.cols + col]
    }

    /// Builds a [`DcGridSolver`] over this grid's topology: pads pinned
    /// at `vdd`, every intersection's sink installed, segment branches
    /// in segment order. This is the restampable surface the coupled
    /// electro-thermal loop iterates on — per-segment conductances can
    /// differ and change between solves.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] if the topology is
    /// degenerate (cannot happen for a grid that passed
    /// [`PowerGrid::build`]).
    pub fn dc_solver(&self) -> Result<DcGridSolver, CircuitError> {
        let cols = self.spec.cols;
        let n_cells = self.spec.rows * cols;
        let branches: Vec<(usize, usize)> = self
            .segments
            .iter()
            .map(|&(_, from, to)| (from.0 * cols + from.1, to.0 * cols + to.1))
            .collect();
        let pinned: Vec<(usize, f64)> = self
            .spec
            .pads
            .iter()
            .map(|&(r, c)| (r * cols + c, self.spec.vdd.value()))
            .collect();
        // Same node-to-ground leak the transient path uses, so islands
        // droop identically instead of going singular.
        let mut solver =
            DcGridSolver::new(n_cells, branches, &pinned, TransientOptions::default().gmin)?;
        for cell in 0..n_cells {
            solver.set_sink(cell, self.spec.sink_per_node.value());
        }
        Ok(solver)
    }

    /// Solves the DC operating point and reports droop and per-segment
    /// densities.
    ///
    /// The solve is a **direct DC formulation**: pad intersections are
    /// Dirichlet nodes held at `vdd` and eliminated from the system, so
    /// only the free intersections are unknowns — no voltage-source
    /// branches and no timestepping. [`DcGridSolver`] factors the reduced
    /// conductance matrix, symmetric positive definite at every size,
    /// with the AMD-ordered LDLᵀ.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (a grid with unreachable islands would
    /// be singular only without `g_min`; with it, islands simply droop to
    /// zero and show up as massive IR drop).
    pub fn analyze(&self) -> Result<PowerGridReport, CircuitError> {
        let g = 1.0 / self.spec.segment_resistance.value();
        let mut solver = self.dc_solver()?;
        solver.solve(&vec![g; self.segments.len()])?;
        Ok(self.report_from_voltages(solver.node_voltages()))
    }

    /// The seed's DC solve — one short transient step over the full MNA
    /// system (voltage-source branches included). Superseded by the
    /// direct formulation in [`PowerGrid::analyze`] and compiled only as
    /// the independent oracle of its tests.
    #[cfg(test)]
    fn analyze_via_transient(&self) -> Result<PowerGridReport, CircuitError> {
        // Purely resistive: one short "transient" step is the DC solve.
        let result = crate::transient::simulate(
            &self.circuit,
            1.0e-9,
            TransientOptions {
                dt: Some(1.0e-9),
                ..TransientOptions::default()
            },
        )?;
        let last = result.times.len() - 1;
        let mut node_v = vec![0.0; self.nodes.len()];
        for (cell, &node) in self.nodes.iter().enumerate() {
            node_v[cell] = result.voltage_at(node, last);
        }
        Ok(self.report_from_voltages(&node_v))
    }

    /// Builds the report from per-intersection voltages (row-major), with
    /// every buffer hoisted — no per-segment allocation.
    fn report_from_voltages(&self, node_v: &[f64]) -> PowerGridReport {
        let cols = self.spec.cols;
        let g = 1.0 / self.spec.segment_resistance.value();
        let vdd = self.spec.vdd.value();
        let (node, worst_drop) =
            worst_index(node_v.iter().map(|&v| vdd - v), vdd).unwrap_or((0, 0.0));
        let mut segments = Vec::with_capacity(self.segments.len());
        for &(_, from, to) in &self.segments {
            let i = ((node_v[from.0 * cols + from.1] - node_v[to.0 * cols + to.1]) * g).abs();
            segments.push(SegmentLoad {
                from,
                to,
                current: Current::new(i),
                density: Current::new(i) / self.spec.strap_cross_section,
            });
        }
        let density_scale = (Current::new(vdd * g) / self.spec.strap_cross_section).value();
        let worst_segment = worst_index(segments.iter().map(|s| s.density.value()), density_scale)
            .map_or(0, |(k, _)| k);
        PowerGridReport {
            worst_ir_drop: Voltage::new(worst_drop),
            worst_node: (node / cols, node % cols),
            segments,
            worst_segment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PowerGridSpec {
        PowerGridSpec {
            rows: 5,
            cols: 5,
            segment_resistance: Resistance::new(0.5),
            strap_cross_section: Area::from_um2(1.44),
            vdd: Voltage::new(2.5),
            sink_per_node: Current::from_milliamps(0.4),
            pads: vec![(0, 0), (0, 4), (4, 0), (4, 4)],
        }
    }

    #[test]
    fn build_validation() {
        let mut s = spec();
        s.rows = 1;
        assert!(PowerGrid::build(&s).is_err());
        let mut s = spec();
        s.pads.clear();
        assert!(PowerGrid::build(&s).is_err());
        let mut s = spec();
        s.pads = vec![(9, 9)];
        assert!(PowerGrid::build(&s).is_err());
        let mut s = spec();
        s.strap_cross_section = Area::ZERO;
        assert!(PowerGrid::build(&s).is_err());
    }

    #[test]
    fn symmetric_grid_drops_worst_in_the_center() {
        let grid = PowerGrid::build(&spec()).unwrap();
        let report = grid.analyze().unwrap();
        assert_eq!(report.worst_node, (2, 2), "four corner pads ⇒ center droop");
        assert!(report.worst_ir_drop.value() > 0.0);
        // total sink: 25 × 0.4 mA = 10 mA across ~Ω-scale paths ⇒ mV drops
        assert!(report.worst_ir_drop.value() < 0.05);
    }

    #[test]
    fn drop_scales_linearly_with_load() {
        let g1 = PowerGrid::build(&spec()).unwrap().analyze().unwrap();
        let mut s = spec();
        s.sink_per_node = Current::from_milliamps(0.8);
        let g2 = PowerGrid::build(&s).unwrap().analyze().unwrap();
        let ratio = g2.worst_ir_drop.value() / g1.worst_ir_drop.value();
        assert!(
            (ratio - 2.0).abs() < 1e-6,
            "linear network: ratio = {ratio}"
        );
    }

    #[test]
    fn fewer_pads_is_strictly_worse() {
        let all = PowerGrid::build(&spec()).unwrap().analyze().unwrap();
        let mut s = spec();
        s.pads = vec![(0, 0)];
        let one = PowerGrid::build(&s).unwrap().analyze().unwrap();
        assert!(one.worst_ir_drop > all.worst_ir_drop * 2.0);
        assert!(one.worst_segment().density > all.worst_segment().density);
        // With a single corner pad, the hottest segment is adjacent to it.
        let w = one.worst_segment();
        assert!(
            w.from == (0, 0) || w.to == (0, 0),
            "worst segment must touch the pad, got {:?}→{:?}",
            w.from,
            w.to
        );
    }

    #[test]
    fn kcl_current_budget_closes() {
        // The pad segments together must deliver every sink's current.
        let mut s = spec();
        s.pads = vec![(0, 0)];
        let grid = PowerGrid::build(&s).unwrap();
        let report = grid.analyze().unwrap();
        let pad_feed: f64 = report
            .segments
            .iter()
            .filter(|seg| seg.from == (0, 0) || seg.to == (0, 0))
            .map(|seg| seg.current.value())
            .sum();
        // The pad intersection's own sink is fed by the pad directly, so
        // the strap segments carry the other 24 nodes' demand.
        let total_sink = 24.0 * 0.4e-3;
        assert!(
            (pad_feed - total_sink).abs() < 1e-6,
            "pad feeds {pad_feed} vs sinks {total_sink}"
        );
    }

    #[test]
    fn rule_checking_flags_violations() {
        let mut s = spec();
        s.pads = vec![(0, 0)];
        s.sink_per_node = Current::from_milliamps(5.0);
        let report = PowerGrid::build(&s).unwrap().analyze().unwrap();
        // Pick a limit between min and max segment density.
        let worst = report.worst_segment().density;
        let limit = worst * 0.5;
        assert!(!report.meets_rule(limit));
        let v = report.violations(limit);
        assert!(!v.is_empty());
        // sorted descending
        for w in v.windows(2) {
            assert!(w[0].density >= w[1].density);
        }
        assert!(report.meets_rule(worst * 1.01));
        assert!(report.violations(worst * 1.01).is_empty());
    }

    /// The direct solve (the grid's LDLᵀ) against the full-MNA transient
    /// step (the general LU: dense at 5×5, sparse at 12×12 and 20×20,
    /// whose MNA systems pass `SPARSE_THRESHOLD`). The 5×5 centre pad
    /// ties its four corners and the 4-corner layouts tie their
    /// pad-adjacent straps; the tie rule names the same twin whichever
    /// solver rounded them.
    #[test]
    fn direct_dc_matches_transient_reference() {
        for (n, pads) in [
            (5, vec![(0, 0)]),
            (5, vec![(0, 0), (0, 4), (4, 0), (4, 4)]),
            (5, vec![(2, 2)]),
            (12, vec![(0, 0), (3, 11), (11, 5)]),
            (20, vec![(0, 2), (7, 19), (19, 0), (13, 11)]),
        ] {
            let mut s = spec();
            s.rows = n;
            s.cols = n;
            s.pads = pads;
            let grid = PowerGrid::build(&s).unwrap();
            let direct = grid.analyze().unwrap();
            let reference = grid.analyze_via_transient().unwrap();
            assert_eq!(direct.worst_node, reference.worst_node, "{n}x{n}");
            let (a, b) = (direct.worst_segment(), reference.worst_segment());
            assert_eq!((a.from, a.to), (b.from, b.to), "{n}x{n}");
            assert!(
                (direct.worst_ir_drop.value() - reference.worst_ir_drop.value()).abs() < 1e-9,
                "worst drop {} vs {}",
                direct.worst_ir_drop.value(),
                reference.worst_ir_drop.value()
            );
            for (a, b) in direct.segments.iter().zip(&reference.segments) {
                assert_eq!((a.from, a.to), (b.from, b.to));
                assert!((a.current.value() - b.current.value()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn duplicate_pads_are_harmless() {
        let mut s = spec();
        s.pads = vec![(0, 0), (0, 0), (4, 4)];
        let dup = PowerGrid::build(&s).unwrap().analyze().unwrap();
        s.pads = vec![(0, 0), (4, 4)];
        let uniq = PowerGrid::build(&s).unwrap().analyze().unwrap();
        assert!((dup.worst_ir_drop.value() - uniq.worst_ir_drop.value()).abs() < 1e-9);
    }

    #[test]
    fn segment_count_matches_mesh() {
        let grid = PowerGrid::build(&spec()).unwrap();
        // 5×5 mesh: 5 rows × 4 horizontal + 4 vertical × 5 cols = 40
        assert_eq!(grid.analyze().unwrap().segments.len(), 40);
    }
}
