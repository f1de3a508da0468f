//! Shared by the circuit crate's integration tests: the case count, a
//! seeded generator and the random sparsity shapes both the LDLᵀ and the
//! AMD suites draw from.

#![allow(dead_code)]

/// Random cases per property: `PROPTEST_CASES`, else 24.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Splitmix64 — a tiny deterministic generator so each case derives its
/// whole random grid from one proptest-supplied seed.
pub struct Mix(pub u64);

impl Mix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }
}

/// The sparsity structure of a random SPD system: couplings between
/// node pairs (repeats allowed — their stamps sum) over `n` nodes.
pub struct Network {
    pub n: usize,
    pub edges: Vec<(usize, usize)>,
}

impl Network {
    /// A `rows × cols` grid with Dirichlet holes: about one node in six
    /// is pinned and eliminated, so its couplings only add to the
    /// diagonal of the kept neighbour.
    pub fn holey_grid(rows: usize, cols: usize, mix: &mut Mix) -> (Self, Vec<usize>) {
        let kept: Vec<bool> = (0..rows * cols)
            .map(|_| !mix.next_u64().is_multiple_of(6))
            .collect();
        let mut index = vec![usize::MAX; rows * cols];
        let mut n = 0;
        for (i, _) in kept.iter().enumerate().filter(|(_, &k)| k) {
            index[i] = n;
            n += 1;
        }
        let (mut edges, mut pinned) = (Vec::new(), Vec::new());
        for r in 0..rows {
            for c in 0..cols {
                let here = r * cols + c;
                let right = (c + 1 < cols).then_some(here + 1);
                let down = (r + 1 < rows).then_some(here + cols);
                for there in [right, down].into_iter().flatten() {
                    match (kept[here], kept[there]) {
                        (true, true) => edges.push((index[here], index[there])),
                        (true, false) => pinned.push(index[here]),
                        (false, true) => pinned.push(index[there]),
                        (false, false) => {}
                    }
                }
            }
        }
        (Self { n, edges }, pinned)
    }

    /// A random sparse graph: each node couples to up to three random
    /// others, so fill and supernodes come out irregular.
    pub fn random_graph(n: usize, mix: &mut Mix) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for _ in 0..mix.next_u64() % 4 {
                let b = (mix.next_u64() % n as u64) as usize;
                if b != a {
                    edges.push((a, b));
                }
            }
        }
        Self { n, edges }
    }

    /// A forest of chains with branches, extra roots and isolated
    /// nodes: no fill, width-1 supernodes, several children per front.
    pub fn forest(n: usize, mix: &mut Mix) -> Self {
        let mut edges = Vec::new();
        for i in 1..n {
            match mix.next_u64() % 10 {
                0 | 1 => {} // an isolated node or a new root
                2 | 3 => edges.push(((mix.next_u64() % i as u64) as usize, i)),
                _ => edges.push((i - 1, i)),
            }
        }
        Self { n, edges }
    }

    /// One of the three shapes with about `size` nodes.
    pub fn of_shape(shape: usize, size: usize, mix: &mut Mix) -> (Self, Vec<usize>) {
        match shape {
            0 => {
                let rows = 1 + (mix.next_u64() % 17) as usize;
                let cols = size.div_ceil(rows).clamp(1, 17);
                Self::holey_grid(rows, cols, mix)
            }
            1 => (Self::random_graph(size, mix), Vec::new()),
            _ => (Self::forest(size, mix), Vec::new()),
        }
    }
}
