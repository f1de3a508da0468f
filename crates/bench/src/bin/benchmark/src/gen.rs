//! Seeded input generators: pad layouts for the coupled grids, supply
//! tree decks for `tree-signoff`, and the request schedule of the serve
//! clients. Every input is a pure function of `(seed, input index)`, so
//! one seed reproduces the same bytes on every machine.

use std::fmt::Write as _;

use hotwire::em_tree::model::KorhonenModel;
use hotwire::tech::Metal;
use hotwire::units::{Celsius, Kelvin};

const PAD_STREAM: u64 = 0x100;
const DECK_STREAM: u64 = 0x200;
const SERVE_STREAM: u64 = 0x300;

/// SplitMix64 (Steele, Lea and Flood, 2014): small, fast, and the same
/// sequence on every platform.
pub struct Rng(u64);

impl Rng {
    /// The generator of one input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// Supply pads of one coupled grid: the four corners plus one pad on
/// each edge. The edge pads stay in the middle half of their edge, which
/// keeps every layout converging in a narrow band of Picard iterations
/// (13–14 on the 100×100 grid), so the inputs of one seed cost about
/// what the inputs of another do.
pub fn pad_layout(seed: u64, input: usize, edge: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, PAD_STREAM + input as u64);
    let (lo, hi, last) = (edge / 4, 3 * edge / 4, edge - 1);
    vec![
        (0, 0),
        (0, last),
        (last, 0),
        (last, last),
        (0, rng.range(lo, hi)),
        (last, rng.range(lo, hi)),
        (rng.range(lo, hi), 0),
        (rng.range(lo, hi), last),
    ]
}

/// The `--pads` flag value of a layout: `r:c,r:c,...`.
pub fn pads_flag(pads: &[(usize, usize)]) -> String {
    let parts: Vec<String> = pads.iter().map(|(r, c)| format!("{r}:{c}")).collect();
    parts.join(",")
}

/// Trees per deck, and how many of them draw the full tap current.
pub const TREES: usize = 400;
pub const FULL_TAP_TREES: usize = 100;
const MIN_SEGMENTS: usize = 150;
const MAX_SEGMENTS: usize = 400;
/// Current of one tap on a full-tap tree. It overdrives every such tree
/// far past the Blech threshold, so each one fails within the 10-year
/// horizon and the Korhonen transient runs on all of them.
const FULL_TAP_AMPS: f64 = 150.0e-6;
/// Reduced trees draw this fraction of the full tap current, far enough
/// below the threshold that [`DeckTree::provably_immortal`] holds.
const REDUCED_TAP_FRACTION: f64 = 1.0 / 5000.0;
/// Probability that a new node extends the previous one (a spine)
/// rather than branching off a random earlier node.
const CHAIN_PROBABILITY: f64 = 0.7;
/// Probability that an inner node carries a tap; every leaf does.
const INNER_TAP_PROBABILITY: f64 = 0.1;
const MIN_SEGMENT_M: f64 = 5.0e-6;
const MAX_SEGMENT_M: f64 = 15.0e-6;

/// The `tree-signoff` flags the deck is generated for.
pub const TREE_WIDTH_UM: f64 = 0.5;
pub const TREE_THICKNESS_UM: f64 = 0.5;
pub const TREE_TEMP_C: f64 = 110.0;

/// What the generator knows about one tree of a deck.
#[derive(Debug, Clone, PartialEq)]
pub struct DeckTree {
    /// The tree's name in `tree-signoff` output: its root node.
    pub name: String,
    pub segments: usize,
    pub full_tap: bool,
    /// Σ|j|·L over the tree's segments is below half the implied Blech
    /// product. The steady stress anywhere differs from the zero mean by
    /// at most that sum times eZρ/Ω, so such a tree cannot reach σ_crit:
    /// an oracle for the immortality filter that shares none of its code.
    pub provably_immortal: bool,
}

/// A SPICE-subset deck of supply trees plus the generator's view of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDeck {
    pub text: String,
    pub trees: Vec<DeckTree>,
}

/// Segment counts spread evenly over `[MIN_SEGMENTS, MAX_SEGMENTS]`.
fn segment_counts(trees: usize) -> Vec<usize> {
    (0..trees)
        .map(|k| MIN_SEGMENTS + k * (MAX_SEGMENTS - MIN_SEGMENTS) / (trees - 1))
        .collect()
}

/// A deck of [`TREES`] random supply trees (150–400 segments each, about
/// 110k in all). Exactly [`FULL_TAP_TREES`] of them draw the full tap
/// current. The full-tap and the reduced trees each take their segment
/// counts from a fixed list in seeded order, so every seed's deck has the
/// same number of segments, mortal or not, and costs about the same.
pub fn tree_deck(seed: u64, input: usize) -> TreeDeck {
    let mut rng = Rng::new(seed, DECK_STREAM + input as u64);
    let mut full_counts = segment_counts(FULL_TAP_TREES);
    let mut reduced_counts = segment_counts(TREES - FULL_TAP_TREES);
    rng.shuffle(&mut full_counts);
    rng.shuffle(&mut reduced_counts);
    let mut full: Vec<bool> = (0..TREES).map(|k| k < FULL_TAP_TREES).collect();
    rng.shuffle(&mut full);

    let temperature: Kelvin = Celsius::new(TREE_TEMP_C).to_kelvin();
    let rho = Metal::copper().resistivity(temperature).value();
    let area = TREE_WIDTH_UM * TREE_THICKNESS_UM * 1.0e-12;
    let model = KorhonenModel::copper().expect("built-in copper Korhonen model");
    let immortal_below = 0.5 * model.implied_blech_product(temperature);

    let mut text = String::with_capacity(TREES * 300 * 45);
    let mut trees = Vec::with_capacity(TREES);
    for (k, &full_tap) in full.iter().enumerate() {
        let segments = if full_tap {
            full_counts.pop()
        } else {
            reduced_counts.pop()
        }
        .expect("one segment count per tree");
        let tap_amps = if full_tap {
            FULL_TAP_AMPS
        } else {
            FULL_TAP_AMPS * REDUCED_TAP_FRACTION
        };
        let _ = writeln!(text, "V{k} t{k}_0 0 DC 1.0");
        // Node 0 is the root; node i hangs off an earlier node, so
        // parent[i] < i and one reverse sweep sums every subtree.
        let mut parent = vec![0_usize; segments + 1];
        let mut length = vec![0.0_f64; segments + 1];
        let mut children = vec![0_u32; segments + 1];
        for i in 1..=segments {
            let p = if rng.unit() < CHAIN_PROBABILITY {
                i - 1
            } else {
                rng.range(0, i)
            };
            parent[i] = p;
            children[p] += 1;
            length[i] = MIN_SEGMENT_M + rng.unit() * (MAX_SEGMENT_M - MIN_SEGMENT_M);
            let _ = writeln!(
                text,
                "R{k}_{i} t{k}_{p} t{k}_{i} {:e}",
                rho * length[i] / area
            );
        }
        let mut drawn = vec![0.0_f64; segments + 1];
        for i in 1..=segments {
            if children[i] == 0 || rng.unit() < INNER_TAP_PROBABILITY {
                drawn[i] = tap_amps;
                let _ = writeln!(text, "I{k}_{i} t{k}_{i} 0 DC {tap_amps:e}");
            }
        }
        for i in (1..=segments).rev() {
            drawn[parent[i]] += drawn[i];
        }
        let wind: f64 = (1..=segments).map(|i| drawn[i] / area * length[i]).sum();
        trees.push(DeckTree {
            name: format!("t{k}_0"),
            segments,
            full_tap,
            provably_immortal: wind < immortal_below,
        });
    }
    TreeDeck { text, trees }
}

/// One request of a serve client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `POST /signoff` on an `edge × edge` grid.
    Signoff { edge: usize },
    /// `GET /metrics`.
    Metrics,
}

pub const MIN_EDGE: usize = 12;
pub const MAX_EDGE: usize = 40;
const METRICS_SHARE: f64 = 0.1;

/// The endless request sequence of serve client `client`: 90 %
/// signoffs on seeded grid edges in `[MIN_EDGE, MAX_EDGE]`, 10 % scrapes.
pub fn serve_schedule(seed: u64, client: usize) -> impl Iterator<Item = Request> {
    let mut rng = Rng::new(seed, SERVE_STREAM + client as u64);
    std::iter::repeat_with(move || {
        if rng.unit() < METRICS_SHARE {
            Request::Metrics
        } else {
            Request::Signoff {
                edge: rng.range(MIN_EDGE, MAX_EDGE + 1),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire::em_tree::netlist::{trees_from_netlist_text, NetlistTreeOptions};
    use hotwire::em_tree::steady::batch_steady_state;
    use hotwire::units::Length;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [1, 2, 77] {
            assert_eq!(
                pads_flag(&pad_layout(seed, 3, 100)),
                pads_flag(&pad_layout(seed, 3, 100))
            );
            assert_eq!(tree_deck(seed, 0).text, tree_deck(seed, 0).text);
            let a: Vec<Request> = serve_schedule(seed, 1).take(500).collect();
            let b: Vec<Request> = serve_schedule(seed, 1).take(500).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seeds_and_inputs_give_different_inputs() {
        assert_ne!(pad_layout(1, 0, 100), pad_layout(2, 0, 100));
        assert_ne!(pad_layout(1, 0, 100), pad_layout(1, 1, 100));
        assert_ne!(tree_deck(1, 0).text, tree_deck(2, 0).text);
        let a: Vec<Request> = serve_schedule(1, 0).take(50).collect();
        let b: Vec<Request> = serve_schedule(1, 1).take(50).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn pads_sit_on_the_edges_inside_the_grid() {
        for seed in 0..50 {
            let pads = pad_layout(seed, 0, 100);
            assert_eq!(pads.len(), 8);
            for &(r, c) in &pads {
                assert!(r < 100 && c < 100);
                assert!(r == 0 || r == 99 || c == 0 || c == 99);
            }
        }
    }

    #[test]
    fn every_deck_has_the_same_segment_total_and_full_tap_count() {
        let total = |d: &TreeDeck| d.trees.iter().map(|t| t.segments).sum::<usize>();
        let full = |d: &TreeDeck| d.trees.iter().filter(|t| t.full_tap).count();
        let first = tree_deck(1, 0);
        for seed in [2, 3, 99] {
            let deck = tree_deck(seed, 0);
            assert_eq!(total(&deck), total(&first));
            assert_eq!(full(&deck), FULL_TAP_TREES);
            assert_eq!(deck.trees.len(), TREES);
        }
    }

    #[test]
    fn reduced_trees_are_provably_immortal() {
        for seed in [1, 2] {
            let deck = tree_deck(seed, 0);
            assert!(deck
                .trees
                .iter()
                .filter(|t| !t.full_tap)
                .all(|t| t.provably_immortal));
            assert!(deck
                .trees
                .iter()
                .filter(|t| t.full_tap)
                .all(|t| !t.provably_immortal));
        }
    }

    #[test]
    fn seed_1_and_2_decks_keep_a_mortal_share_between_20_and_40_percent() {
        let options = NetlistTreeOptions {
            width: Length::from_micrometers(TREE_WIDTH_UM),
            thickness: Length::from_micrometers(TREE_THICKNESS_UM),
            metal: Metal::copper(),
            temperature: Celsius::new(TREE_TEMP_C).to_kelvin(),
        };
        let model = KorhonenModel::copper().unwrap();
        for seed in [1, 2] {
            let deck = tree_deck(seed, 0);
            let extracted = trees_from_netlist_text(&deck.text, &options).unwrap();
            let trees: Vec<_> = extracted.into_iter().map(|e| e.tree).collect();
            let steady = batch_steady_state(&trees, &model, true).unwrap();
            let mortal = steady.iter().filter(|s| !s.immortal).count();
            let share = mortal as f64 / trees.len() as f64;
            assert!(
                (0.2..=0.4).contains(&share),
                "seed {seed}: mortal share {share}"
            );
        }
    }
}
