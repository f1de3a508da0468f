//! Integration properties of the SPD Cholesky fast path, checked against
//! oracles that share no code with it: dense LU solves
//! ([`hotwire_circuit::linalg::Matrix`]) of random SPD systems whose
//! patterns give many supernode shapes, dense boolean elimination for
//! the symbolic pattern, and the error paths. Also agreement with the
//! sparse LU.
//!
//! `PROPTEST_CASES` sets the number of random cases per property
//! (default 24).

use hotwire_circuit::linalg::Matrix;
use hotwire_circuit::sparse::SparseMatrix;
use hotwire_circuit::CircuitError;
use proptest::prelude::*;

mod common;

use common::{cases, Mix, Network};

/// Stamps the weighted 5-point Laplacian of a `rows × cols` grid plus a
/// per-node leak to ground — exactly the shape `DcGridSolver` stamps,
/// and SPD by construction (diagonally dominant with positive diagonal).
fn random_spd_grid(rows: usize, cols: usize, mix: &mut Mix) -> SparseMatrix {
    let n = rows * cols;
    let mut m = SparseMatrix::zeros(n);
    let branch = |m: &mut SparseMatrix, a: usize, b: usize, g: f64| {
        m.add(a, a, g);
        m.add(b, b, g);
        m.add(a, b, -g);
        m.add(b, a, -g);
    };
    for r in 0..rows {
        for c in 0..cols {
            let here = r * cols + c;
            if c + 1 < cols {
                branch(&mut m, here, here + 1, mix.in_range(0.1, 10.0));
            }
            if r + 1 < rows {
                branch(&mut m, here, here + cols, mix.in_range(0.1, 10.0));
            }
            m.add(here, here, mix.in_range(1.0e-3, 1.0));
        }
    }
    m
}

fn random_rhs(n: usize, mix: &mut Mix) -> Vec<f64> {
    (0..n).map(|_| mix.in_range(-1.0, 1.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// On any SPD grid stamp the LDLᵀ solution must agree with the
    /// Gilbert–Peierls LU solution to 1e-9 relative.
    #[test]
    fn cholesky_agrees_with_lu_on_random_spd_grids(
        rows in 2_usize..14,
        cols in 2_usize..14,
        seed in 0_u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let m = random_spd_grid(rows, cols, &mut mix);
        let b = random_rhs(rows * cols, &mut mix);
        let chol = m.factor_cholesky().expect("grid stamp is SPD");
        let lu = m.factor().expect("grid stamp is nonsingular");
        let xc = chol.solve(&b);
        let xl = lu.solve(&b);
        let scale = xl.iter().fold(1.0_f64, |s, &v| s.max(v.abs()));
        for (k, (&a, &r)) in xc.iter().zip(&xl).enumerate() {
            prop_assert!(
                (a - r).abs() <= 1.0e-9 * scale,
                "node {k}: cholesky {a} vs lu {r} (scale {scale})"
            );
        }
    }
}

impl Network {
    /// Stamps an SPD matrix on this pattern with values drawn from
    /// `mix`: couplings of either sign, a diagonal that dominates them,
    /// and a positive leak on every node (plus the pinned neighbours'
    /// conductances). The stamping order depends only on the pattern.
    fn stamps(&self, pinned: &[usize], mix: &mut Mix) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            out.push((i, i, mix.in_range(1.0e-3, 1.0)));
        }
        for &i in pinned {
            out.push((i, i, mix.in_range(0.1, 10.0)));
        }
        for &(a, b) in &self.edges {
            let g = mix.in_range(0.1, 10.0)
                * if mix.next_u64().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
            out.extend([(a, a, g.abs()), (b, b, g.abs()), (a, b, -g), (b, a, -g)]);
        }
        out
    }
}

fn sparse_of(n: usize, stamps: &[(usize, usize, f64)]) -> SparseMatrix {
    let mut m = SparseMatrix::zeros(n);
    for &(r, c, v) in stamps {
        m.add(r, c, v);
    }
    m
}

/// The dense-LU oracle: `A⁻¹·b` through [`Matrix::solve`] (a holey grid
/// can pin every node, and the dense LU has no empty case).
fn dense_solve(n: usize, stamps: &[(usize, usize, f64)], b: &[f64]) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let mut m = Matrix::zeros(n, n);
    for &(r, c, v) in stamps {
        m.add(r, c, v);
    }
    m.solve(b).expect("SPD stamps are nonsingular")
}

/// `max |x − y| / max(1, max |y|)`.
fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    let scale = y.iter().fold(1.0_f64, |s, v| s.max(v.abs()));
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
        / scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A fresh factor and a refactor with new values on the same
    /// pattern both solve to the dense LU answer within 1e-10 relative,
    /// on holey grids, random graphs and forests of 1 to 300 nodes.
    #[test]
    fn factor_and_refactor_match_dense_lu(
        shape in 0_usize..3,
        size in 1_usize..300,
        seed in 0_u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let (net, pinned) = Network::of_shape(shape, size, &mut mix);
        let n = net.n;
        let first = net.stamps(&pinned, &mut mix);
        let second = net.stamps(&pinned, &mut mix);
        let b = random_rhs(n, &mut mix);

        let mut f = sparse_of(n, &first).factor_cholesky().expect("SPD by construction");
        let err = rel_diff(&f.solve(&b), &dense_solve(n, &first, &b));
        prop_assert!(err <= 1e-10, "factor: n = {n}, shape {shape}, error {err:e}");

        f.refactor(&sparse_of(n, &second)).expect("same pattern, still SPD");
        let err = rel_diff(&f.solve(&b), &dense_solve(n, &second, &b));
        prop_assert!(err <= 1e-10, "refactor: n = {n}, shape {shape}, error {err:e}");
    }

    /// The symbolic phase's pattern of L equals the one dense boolean
    /// elimination of `P·A·Pᵀ` produces, and every supernode's columns
    /// share the below-block rows of its last column.
    #[test]
    fn symbolic_pattern_matches_dense_elimination(
        shape in 0_usize..3,
        size in 1_usize..60,
        seed in 0_u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let (net, pinned) = Network::of_shape(shape, size, &mut mix);
        let n = net.n;
        let stamps = net.stamps(&pinned, &mut mix);
        let f = sparse_of(n, &stamps).factor_cholesky().expect("SPD by construction");

        // Dense boolean elimination in pivot order.
        let mut pinv = vec![0; n];
        for (k, &p) in f.ordering().iter().enumerate() {
            pinv[p as usize] = k;
        }
        let mut filled = vec![vec![false; n]; n];
        for &(r, c, _) in &stamps {
            filled[pinv[r]][pinv[c]] = true;
        }
        for k in 0..n {
            let below: Vec<usize> = (k + 1..n).filter(|&i| filled[i][k]).collect();
            for &i in &below {
                for &j in &below {
                    filled[i][j] = true;
                }
            }
        }
        let (ptr, rows) = (f.l_col_ptr(), f.l_row_indices());
        prop_assert_eq!(ptr.len(), n + 1);
        for k in 0..n {
            let want: Vec<u32> = (k + 1..n).filter(|&i| filled[i][k]).map(|i| i as u32).collect();
            prop_assert_eq!(&rows[ptr[k]..ptr[k + 1]], &want[..], "column {}", k);
        }

        let sn = f.supernodes();
        prop_assert_eq!(sn.first().copied().unwrap_or(0), 0);
        prop_assert_eq!(sn.last().copied().unwrap_or(0), n);
        for w in sn.windows(2) {
            prop_assert!(w[0] < w[1], "empty supernode {:?}", w);
            let last = w[1] - 1;
            let shared = &rows[ptr[last]..ptr[last + 1]];
            for c in w[0]..w[1] {
                let col = &rows[ptr[c]..ptr[c + 1]];
                let in_block: Vec<u32> = (c + 1..w[1]).map(|i| i as u32).collect();
                prop_assert_eq!(&col[..in_block.len()], &in_block[..], "column {}", c);
                prop_assert_eq!(&col[in_block.len()..], shared, "column {}", c);
            }
        }
    }
}

/// A path network of `n` nodes (no fill: `L` has exactly A's pattern).
fn chain(n: usize) -> Network {
    Network {
        n,
        edges: (1..n).map(|i| (i - 1, i)).collect(),
    }
}

#[test]
fn refactor_with_a_stamp_outside_the_pattern_is_singular() {
    let net = chain(40);
    let mut mix = Mix(7);
    let base = net.stamps(&[], &mut mix);
    let mut f = sparse_of(40, &base).factor_cholesky().unwrap();
    // Couple the two ends: no path node has both in its column of L.
    let mut drifted = base.clone();
    drifted.extend([(0, 0, 1.0), (39, 39, 1.0), (0, 39, -1.0), (39, 0, -1.0)]);
    assert!(matches!(
        f.refactor(&sparse_of(40, &drifted)),
        Err(CircuitError::Singular { .. })
    ));
    // The failed refactor leaves NaN behind rather than a stale answer;
    // a good refactor brings the factor back.
    assert!(f.solve(&vec![1.0; 40]).iter().all(|v| v.is_nan()));
    f.refactor(&sparse_of(40, &base)).unwrap();
    let b = vec![1.0; 40];
    assert!(rel_diff(&f.solve(&b), &dense_solve(40, &base, &b)) <= 1e-10);
}

/// Symmetric, positive diagonal, but indefinite: nodes 0 and 1 couple
/// more strongly than their diagonals allow.
fn indefinite(base: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let mut out = base.to_vec();
    out.extend([(0, 1, -50.0), (1, 0, -50.0)]);
    out
}

#[test]
fn indefinite_values_are_not_positive_definite() {
    let net = chain(40);
    let base = net.stamps(&[], &mut Mix(11));
    let bad = sparse_of(40, &indefinite(&base));
    assert!(matches!(
        bad.factor_cholesky(),
        Err(CircuitError::NotPositiveDefinite { .. })
    ));
    let mut f = sparse_of(40, &base).factor_cholesky().unwrap();
    assert!(matches!(
        f.refactor(&bad),
        Err(CircuitError::NotPositiveDefinite { .. })
    ));
}
