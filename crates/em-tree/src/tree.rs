//! Interconnect-tree topology: segments, junctions, validation, and
//! construction helpers.
//!
//! A tree is a connected, cycle-free set of metal segments over
//! `node_count` nodes. Each segment carries its own geometry (length,
//! width, thickness), a signed conventional current density along its
//! `from → to` orientation, and a local metal temperature — junction
//! trees with per-branch widths and currents are exactly the scenario
//! class the per-strap Black/Blech model cannot express.

use hotwire_units::{Area, CurrentDensity, Kelvin, Length};
use serde::{Deserialize, Serialize};

use crate::TreeEmError;

/// One straight metal segment between two tree nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeSegment {
    /// Tail node index (the local `x = 0` end).
    pub from: usize,
    /// Head node index (the local `x = L` end).
    pub to: usize,
    /// Segment length.
    pub length: Length,
    /// Drawn width.
    pub width: Length,
    /// Metal thickness.
    pub thickness: Length,
    /// Conventional current density, signed along `from → to`
    /// (positive = conventional current flows from `from` into `to`,
    /// so tensile stress builds at `to`).
    pub current_density: CurrentDensity,
    /// Local metal temperature.
    pub temperature: Kelvin,
}

impl TreeSegment {
    /// Cross-sectional area `w · t`.
    #[must_use]
    pub fn area(&self) -> Area {
        Area::new(self.width.value() * self.thickness.value())
    }
}

/// A validated interconnect tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectTree {
    name: String,
    node_count: usize,
    segments: Vec<TreeSegment>,
}

impl InterconnectTree {
    /// Builds and validates a tree over `node_count` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::InvalidTree`] when the segments do not
    /// form a connected tree (exactly `node_count − 1` edges, one
    /// component), reference out-of-range nodes, or carry non-positive
    /// geometry / non-finite operating points.
    pub fn new(
        name: impl Into<String>,
        node_count: usize,
        segments: Vec<TreeSegment>,
    ) -> Result<Self, TreeEmError> {
        let name = name.into();
        let invalid = |message: String| TreeEmError::InvalidTree {
            message: format!("tree '{name}': {message}"),
        };
        if node_count < 2 {
            return Err(invalid(format!("need at least 2 nodes, got {node_count}")));
        }
        if segments.len() != node_count - 1 {
            return Err(invalid(format!(
                "{} segments over {node_count} nodes is not a tree (want {})",
                segments.len(),
                node_count - 1
            )));
        }
        for (i, s) in segments.iter().enumerate() {
            if s.from >= node_count || s.to >= node_count {
                return Err(invalid(format!(
                    "segment {i} references node {} outside 0..{node_count}",
                    s.from.max(s.to)
                )));
            }
            if s.from == s.to {
                return Err(invalid(format!(
                    "segment {i} is a self-loop at node {}",
                    s.from
                )));
            }
            for (what, v) in [
                ("length", s.length.value()),
                ("width", s.width.value()),
                ("thickness", s.thickness.value()),
                ("temperature", s.temperature.value()),
            ] {
                if !(v > 0.0) || !v.is_finite() {
                    return Err(invalid(format!(
                        "segment {i} {what} must be positive and finite, got {v}"
                    )));
                }
            }
            if !s.current_density.is_finite() {
                return Err(invalid(format!(
                    "segment {i} current density is not finite"
                )));
            }
        }
        let tree = Self {
            name,
            node_count,
            segments,
        };
        // Edge count is right; connectivity now rules out cycles too.
        let adj = tree.adjacency();
        let mut seen = vec![false; node_count];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(u) = stack.pop() {
            for &(_, v) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        if reached != node_count {
            return Err(TreeEmError::InvalidTree {
                message: format!(
                    "tree '{}': disconnected ({reached} of {node_count} nodes reachable)",
                    tree.name
                ),
            });
        }
        Ok(tree)
    }

    /// A uniform multi-segment straight line: `segment_count` equal
    /// segments in series (nodes `0 — 1 — … — segment_count`), all at
    /// the same density and temperature. The classic Blech/Korhonen
    /// test structure.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::InvalidTree`] on degenerate geometry or
    /// `segment_count == 0`.
    pub fn straight_line(
        name: impl Into<String>,
        segment_count: usize,
        segment_length: Length,
        width: Length,
        thickness: Length,
        density: CurrentDensity,
        temperature: Kelvin,
    ) -> Result<Self, TreeEmError> {
        let segments = (0..segment_count)
            .map(|i| TreeSegment {
                from: i,
                to: i + 1,
                length: segment_length,
                width,
                thickness,
                current_density: density,
                temperature,
            })
            .collect();
        Self::new(name, segment_count + 1, segments)
    }

    /// The tree's name (netlist component root, grid row/column, …).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (junctions + endpoints).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The validated segments.
    #[must_use]
    pub fn segments(&self) -> &[TreeSegment] {
        &self.segments
    }

    /// Total metal length.
    #[must_use]
    pub fn total_length(&self) -> Length {
        self.segments.iter().map(|s| s.length).sum()
    }

    /// Replaces each segment's operating point (density, temperature)
    /// while keeping the topology and geometry — the aging loop uses
    /// this to re-stamp a tree from a freshly converged electro-thermal
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::InvalidTree`] if the slice length does not
    /// match the segment count or an entry is non-finite/non-positive
    /// temperature.
    pub fn with_operating_points(
        &self,
        points: &[(CurrentDensity, Kelvin)],
    ) -> Result<Self, TreeEmError> {
        if points.len() != self.segments.len() {
            return Err(TreeEmError::InvalidTree {
                message: format!(
                    "tree '{}': {} operating points for {} segments",
                    self.name,
                    points.len(),
                    self.segments.len()
                ),
            });
        }
        let segments = self
            .segments
            .iter()
            .zip(points)
            .map(|(s, &(j, t))| TreeSegment {
                current_density: j,
                temperature: t,
                ..*s
            })
            .collect();
        Self::new(self.name.clone(), self.node_count, segments)
    }

    /// Each node's `(segment index, other endpoint)` pairs.
    #[must_use]
    pub(crate) fn adjacency(&self) -> Adjacency {
        let ends = self.segments.iter().map(|s| (s.from, s.to));
        Adjacency::new(self.node_count, ends)
    }
}

/// Compressed (CSR) adjacency: `adj[u]` is node `u`'s `(edge index, other
/// endpoint)` pairs in edge order, every node's in one allocation.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    /// Node `u`'s pairs are `pairs[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    pairs: Vec<(usize, usize)>,
}

impl Adjacency {
    /// The adjacency of `node_count` nodes joined by edges with these
    /// endpoints (each below `node_count`), in edge order.
    pub(crate) fn new<I>(node_count: usize, ends: I) -> Self
    where
        I: DoubleEndedIterator<Item = (usize, usize)> + ExactSizeIterator + Clone,
    {
        // Degrees, then their running sums: where each node's list ends.
        let mut offsets = vec![0; node_count + 1];
        for (a, b) in ends.clone() {
            offsets[a] += 1;
            offsets[b] += 1;
        }
        let mut end = 0;
        for offset in &mut offsets {
            end += *offset;
            *offset = end;
        }
        // Filling each list back to front from its end, last edge first,
        // leaves it in edge order and its offset at its start.
        let mut pairs = vec![(0, 0); end];
        for (e, (a, b)) in ends.enumerate().rev() {
            offsets[a] -= 1;
            pairs[offsets[a]] = (e, b);
            offsets[b] -= 1;
            pairs[offsets[b]] = (e, a);
        }
        Self { offsets, pairs }
    }
}

impl std::ops::Index<usize> for Adjacency {
    type Output = [(usize, usize)];

    fn index(&self, u: usize) -> &Self::Output {
        &self.pairs[self.offsets[u]..self.offsets[u + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(from: usize, to: usize) -> TreeSegment {
        TreeSegment {
            from,
            to,
            length: Length::from_micrometers(10.0),
            width: Length::from_micrometers(0.5),
            thickness: Length::from_micrometers(0.5),
            current_density: CurrentDensity::from_mega_amps_per_cm2(1.0),
            temperature: Kelvin::new(373.15),
        }
    }

    #[test]
    fn straight_line_and_junction_trees_validate() {
        let line = InterconnectTree::straight_line(
            "line",
            4,
            Length::from_micrometers(5.0),
            Length::from_micrometers(0.5),
            Length::from_micrometers(0.5),
            CurrentDensity::from_mega_amps_per_cm2(1.0),
            Kelvin::new(373.15),
        )
        .unwrap();
        assert_eq!(line.node_count(), 5);
        assert!((line.total_length().to_micrometers() - 20.0).abs() < 1e-9);

        // A T-junction: 0-1, 1-2, 1-3.
        let t = InterconnectTree::new("tee", 4, vec![seg(0, 1), seg(1, 2), seg(1, 3)]).unwrap();
        assert_eq!(t.adjacency()[1].len(), 3);
    }

    proptest! {
        /// On random trees, with their edges in random order and
        /// orientation, the compressed adjacency lists each node's pairs
        /// as one `Vec` per node filled edge by edge does.
        #[test]
        fn adjacency_matches_per_node_lists(
            draws in proptest::collection::vec(any::<u64>(), 1..80),
        ) {
            // Node k + 1 hangs off node `draw % (k + 1)`, the draw's top
            // bit orients the edge, and its rotation orders the edges.
            let mut keyed: Vec<(u64, (usize, usize))> = draws
                .iter()
                .enumerate()
                .map(|(k, &d)| {
                    let parent = (d % (k as u64 + 1)) as usize;
                    let ends = if d >> 63 == 1 { (k + 1, parent) } else { (parent, k + 1) };
                    (d.rotate_left(17), ends)
                })
                .collect();
            keyed.sort_unstable();
            let ends: Vec<(usize, usize)> = keyed.into_iter().map(|(_, e)| e).collect();
            let n = ends.len() + 1;
            let mut lists = vec![Vec::new(); n];
            for (e, &(a, b)) in ends.iter().enumerate() {
                lists[a].push((e, b));
                lists[b].push((e, a));
            }
            let adj = Adjacency::new(n, ends.iter().copied());
            for (u, list) in lists.iter().enumerate() {
                prop_assert_eq!(&adj[u], list.as_slice());
            }
        }
    }

    #[test]
    fn rejects_cycles_disconnects_and_bad_geometry() {
        // 3 edges over 3 nodes: a triangle.
        let r = InterconnectTree::new("cyc", 3, vec![seg(0, 1), seg(1, 2), seg(2, 0)]);
        assert!(matches!(r, Err(TreeEmError::InvalidTree { .. })));
        // Right edge count but disconnected (0-1, 2-3 over 4 nodes + dup).
        let r = InterconnectTree::new("disc", 4, vec![seg(0, 1), seg(0, 1), seg(2, 3)]);
        assert!(matches!(r, Err(TreeEmError::InvalidTree { .. })));
        // Self-loop.
        let r = InterconnectTree::new("loop", 2, vec![seg(1, 1)]);
        assert!(matches!(r, Err(TreeEmError::InvalidTree { .. })));
        // Zero width.
        let mut bad = seg(0, 1);
        bad.width = Length::new(0.0);
        let r = InterconnectTree::new("flat", 2, vec![bad]);
        assert!(matches!(r, Err(TreeEmError::InvalidTree { .. })));
    }

    #[test]
    fn operating_point_restamp_preserves_topology() {
        let t = InterconnectTree::new("tee", 4, vec![seg(0, 1), seg(1, 2), seg(1, 3)]).unwrap();
        let pts: Vec<_> = t
            .segments()
            .iter()
            .map(|_| {
                (
                    CurrentDensity::from_mega_amps_per_cm2(2.0),
                    Kelvin::new(400.0),
                )
            })
            .collect();
        let t2 = t.with_operating_points(&pts).unwrap();
        assert_eq!(t2.node_count(), 4);
        assert!((t2.segments()[0].current_density.to_mega_amps_per_cm2() - 2.0).abs() < 1e-12);
        assert!(t.with_operating_points(&pts[..2]).is_err());
    }
}
