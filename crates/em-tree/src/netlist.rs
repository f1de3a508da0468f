//! Interconnect-tree extraction from SPICE netlists.
//!
//! Supply trees come in through the existing netlist format
//! ([`hotwire_circuit::parser`]): resistors are metal segments, current
//! sources are the load taps, and a voltage source (or ground) marks
//! each tree's supply root. Because the network is a tree, every branch
//! current follows from Kirchhoff's current law alone — one DFS, no
//! matrix solve — which keeps the whole extract-and-filter path linear
//! in the segment count.
//!
//! Geometry that a netlist cannot carry (drawn width, metal thickness)
//! comes from [`NetlistTreeOptions`]; each resistor's length is
//! recovered from its resistance via `L = R·w·t/ρ(T)`.

use hotwire_circuit::netlist::{Circuit, Device};
use hotwire_circuit::parser::{parse_netlist, ParsedCircuit};
use hotwire_circuit::CircuitError;
use hotwire_obs::metrics;
use hotwire_tech::Metal;
use hotwire_units::{CurrentDensity, Kelvin, Length};

use crate::tree::{Adjacency, InterconnectTree, TreeSegment};
use crate::TreeEmError;

/// Uniform geometry and operating point applied to extracted trees.
#[derive(Debug, Clone)]
pub struct NetlistTreeOptions {
    /// Drawn wire width.
    pub width: Length,
    /// Metal thickness.
    pub thickness: Length,
    /// Metal system (resistivity fit for the R → length inversion).
    pub metal: Metal,
    /// Uniform metal temperature (the coupled engine refines this
    /// per-segment later).
    pub temperature: Kelvin,
}

/// One tree lifted out of a netlist, with its name mapping preserved.
#[derive(Debug, Clone)]
pub struct ExtractedTree {
    /// The validated tree. Local node 0 is the supply root; segments
    /// are oriented root-outward in DFS order.
    pub tree: InterconnectTree,
    /// Netlist node name for each tree-local node index.
    pub node_names: Vec<String>,
}

/// Extracts every resistor-connected component as a supply tree.
///
/// # Errors
///
/// Returns [`TreeEmError::UnsupportedNetlist`] when a component has a
/// resistor loop, no supply root, or more than one root (branch
/// currents would need a full solve), and propagates geometry errors
/// from tree validation.
pub fn trees_from_netlist(
    parsed: &ParsedCircuit,
    options: &NetlistTreeOptions,
) -> Result<Vec<ExtractedTree>, TreeEmError> {
    // `node_count()` counts non-ground nodes; ids span 0..=node_count.
    let n = parsed.circuit.node_count() + 1;
    let mut names: Vec<Option<&str>> = vec![None; n];
    if Circuit::GROUND < n {
        names[Circuit::GROUND] = Some("0");
    }
    for (name, id) in parsed.nodes() {
        names[id] = Some(name);
    }
    // A node the deck never named (one added in code) reads `n<id>`.
    let name = |i: usize| names[i].map_or_else(|| format!("n{i}"), str::to_owned);

    // Resistor edges, injections, and supply attachments.
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut injection = vec![0.0f64; n];
    let mut supply = vec![false; n];
    supply[Circuit::GROUND] = true;
    for d in parsed.circuit.devices() {
        match d {
            Device::Resistor { a, b, ohms } => edges.push((*a, *b, *ohms)),
            Device::CurrentSource {
                from,
                into,
                waveform,
            } => {
                let amps = waveform.at(0.0);
                injection[*into] += amps;
                injection[*from] -= amps;
            }
            Device::VoltageSource { plus, minus, .. } => {
                supply[*plus] = true;
                supply[*minus] = true;
            }
            Device::Capacitor { .. } => {} // no DC current path
            Device::Mosfet { .. } => {
                return Err(TreeEmError::UnsupportedNetlist {
                    message: "tree extraction handles linear R/I/V netlists only, found a MOSFET"
                        .into(),
                })
            }
        }
    }

    // Union resistor edges into components.
    if let Some((e, &(a, _, _))) = edges.iter().enumerate().find(|(_, (a, b, _))| a == b) {
        return Err(TreeEmError::UnsupportedNetlist {
            message: format!("resistor {e} is a self-loop at node '{}'", name(a)),
        });
    }
    let adj = Adjacency::new(n, edges.iter().map(|&(a, b, _)| (a, b)));

    let rho = options.metal.resistivity(options.temperature).value();
    let area = options.width.value() * options.thickness.value();
    let mut component = vec![usize::MAX; n];
    // Tree-local ids. Components are disjoint, so one table serves all.
    let mut local = vec![usize::MAX; n];
    let mut out = Vec::new();
    for start in 0..n {
        if component[start] != usize::MAX || adj[start].is_empty() {
            continue;
        }
        // Gather this component (iterative — trees can be 10k deep).
        let comp_id = out.len();
        let mut nodes = vec![start];
        component[start] = comp_id;
        let mut head = 0;
        while head < nodes.len() {
            let u = nodes[head];
            head += 1;
            for &(_, v) in &adj[u] {
                if component[v] == usize::MAX {
                    component[v] = comp_id;
                    nodes.push(v);
                }
            }
        }
        let edge_count: usize = nodes.iter().map(|&u| adj[u].len()).sum::<usize>() / 2;
        if edge_count != nodes.len() - 1 {
            return Err(TreeEmError::UnsupportedNetlist {
                message: format!(
                    "component at '{}' has {edge_count} resistors over {} nodes — resistor loops \
                     need a mesh solver, not the tree path",
                    name(start),
                    nodes.len()
                ),
            });
        }
        let roots: Vec<usize> = nodes.iter().copied().filter(|&u| supply[u]).collect();
        let root = match roots.as_slice() {
            [r] => *r,
            [] => {
                return Err(TreeEmError::UnsupportedNetlist {
                    message: format!(
                        "component at '{}' has no supply root (voltage source or ground)",
                        name(start)
                    ),
                })
            }
            many => {
                return Err(TreeEmError::UnsupportedNetlist {
                    message: format!(
                        "component at '{}' has {} supply roots — branch currents are not \
                         determined by KCL alone",
                        name(start),
                        many.len()
                    ),
                })
            }
        };

        // DFS from the root: local ids in pre-order (root = 0), subtree
        // injection sums give every branch current in one pass.
        local[root] = 0;
        let mut local_names = vec![name(root)];
        let mut order = vec![(root, usize::MAX)]; // (node, incoming edge)
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for &(e, v) in &adj[u] {
                if local[v] == usize::MAX {
                    local[v] = local_names.len();
                    local_names.push(name(v));
                    order.push((v, e));
                    stack.push(v);
                }
            }
        }
        // Subtree injection totals, children before parents.
        let mut subtree = vec![0.0f64; order.len()];
        for (k, &(u, _)) in order.iter().enumerate() {
            subtree[k] = injection[u];
        }
        let parent_of: Vec<usize> = {
            let mut p = vec![usize::MAX; order.len()];
            for (k, &(u, e)) in order.iter().enumerate().skip(1) {
                let (a, b, _) = edges[e];
                p[k] = local[if a == u { b } else { a }];
            }
            p
        };
        // Parents precede children in `order`, so a reverse sweep sums
        // each subtree before its parent consumes it.
        for k in (1..order.len()).rev() {
            let add = subtree[k];
            subtree[parent_of[k]] += add;
        }

        let mut segments = Vec::with_capacity(order.len() - 1);
        for (k, &(u, e)) in order.iter().enumerate().skip(1) {
            let (_, _, ohms) = edges[e];
            let length = ohms * area / rho;
            // Conventional current from parent into this subtree must
            // balance everything the subtree's taps draw.
            let amps = -subtree[k];
            segments.push(TreeSegment {
                from: parent_of[k],
                to: local[u],
                length: Length::new(length),
                width: options.width,
                thickness: options.thickness,
                current_density: CurrentDensity::new(amps / area),
                temperature: options.temperature,
            });
        }
        let tree = InterconnectTree::new(name(root), order.len(), segments)?;
        metrics::counter("em.tree.extracted").inc();
        out.push(ExtractedTree {
            tree,
            node_names: local_names,
        });
    }
    Ok(out)
}

/// Parses a netlist and extracts its supply trees in one call.
///
/// # Errors
///
/// Propagates parse errors as [`TreeEmError::Circuit`] and extraction
/// errors from [`trees_from_netlist`].
pub fn trees_from_netlist_text(
    text: &str,
    options: &NetlistTreeOptions,
) -> Result<Vec<ExtractedTree>, TreeEmError> {
    let parsed = parse_netlist(text).map_err(CircuitError::from)?;
    trees_from_netlist(&parsed, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> NetlistTreeOptions {
        NetlistTreeOptions {
            width: Length::from_micrometers(0.5),
            thickness: Length::from_micrometers(0.5),
            metal: Metal::copper(),
            temperature: Kelvin::new(373.15),
        }
    }

    #[test]
    fn straight_line_roundtrip() {
        // vdd --R1-- n1 --R2-- n2 --load(2 mA)--> gnd
        let text = "\
V1 vdd 0 DC 1.0
R1 vdd n1 10
R2 n1 n2 10
I1 n2 0 DC 2e-3
";
        let o = opts();
        let trees = trees_from_netlist_text(text, &o).unwrap();
        assert_eq!(trees.len(), 1);
        let t = &trees[0].tree;
        assert_eq!(t.name(), "vdd");
        assert_eq!(trees[0].node_names[0], "vdd");
        assert_eq!(t.segments().len(), 2);
        // Both segments carry the full 2 mA away from the root.
        let area = 0.25e-12;
        for s in t.segments() {
            assert!(
                (s.current_density.value() - 2.0e-3 / area).abs() / (2.0e-3 / area) < 1e-12,
                "j = {}",
                s.current_density
            );
            // L = R·A/ρ at 100 °C.
            let rho = o.metal.resistivity(o.temperature).value();
            assert!((s.length.value() - 10.0 * area / rho).abs() / s.length.value() < 1e-12);
        }
    }

    #[test]
    fn junction_tree_splits_current_by_kcl() {
        // One trunk feeding two branch loads of 1 mA and 3 mA.
        let text = "\
V1 vdd 0 DC 1.0
R1 vdd mid 5
R2 mid a 10
R3 mid b 10
I1 a 0 DC 1e-3
I2 b 0 DC 3e-3
";
        let trees = trees_from_netlist_text(text, &opts()).unwrap();
        assert_eq!(trees.len(), 1);
        let ex = &trees[0];
        let area = 0.25e-12;
        let by_head = |name: &str| {
            let idx = ex.node_names.iter().position(|n| n == name).unwrap();
            ex.tree
                .segments()
                .iter()
                .find(|s| s.to == idx)
                .unwrap()
                .current_density
                .value()
                * area
        };
        assert!((by_head("mid") - 4.0e-3).abs() < 1e-15);
        assert!((by_head("a") - 1.0e-3).abs() < 1e-15);
        assert!((by_head("b") - 3.0e-3).abs() < 1e-15);
    }

    #[test]
    fn rejects_loops_and_missing_roots() {
        let looped = "\
V1 vdd 0 DC 1.0
R1 vdd a 1
R2 a b 1
R3 b vdd 1
";
        assert!(matches!(
            trees_from_netlist_text(looped, &opts()),
            Err(TreeEmError::UnsupportedNetlist { .. })
        ));
        let floating = "\
R1 a b 1
I1 b a DC 1e-3
";
        assert!(matches!(
            trees_from_netlist_text(floating, &opts()),
            Err(TreeEmError::UnsupportedNetlist { .. })
        ));
    }

    #[test]
    fn two_components_give_two_trees() {
        let text = "\
V1 vdd1 0 DC 1.0
R1 vdd1 a 10
I1 a 0 DC 1e-3
V2 vdd2 0 DC 1.0
R2 vdd2 b 10
I2 b 0 DC 2e-3
";
        let trees = trees_from_netlist_text(text, &opts()).unwrap();
        assert_eq!(trees.len(), 2);
    }

    #[test]
    fn three_components_keep_their_netlist_names() {
        // Ground roots the first component; names come out lowercased,
        // each tree's in DFS order from its root.
        let text = "\
V1 VDD1 0 DC 1.0
R1 VDD1 A 10
I1 A 0 DC 1e-3
R2 0 B 10
R3 B C 10
I2 C B DC 1e-3
V2 vdd2 0 DC 1.0
R4 vdd2 d 10
R5 d e 10
I3 e 0 DC 2e-3
";
        let trees = trees_from_netlist_text(text, &opts()).unwrap();
        let got: Vec<(&str, Vec<&str>)> = trees
            .iter()
            .map(|t| {
                let names = t.node_names.iter().map(String::as_str).collect();
                (t.tree.name(), names)
            })
            .collect();
        assert_eq!(
            got,
            [
                ("0", vec!["0", "b", "c"]),
                ("vdd1", vec!["vdd1", "a"]),
                ("vdd2", vec!["vdd2", "d", "e"]),
            ]
        );
    }
}
