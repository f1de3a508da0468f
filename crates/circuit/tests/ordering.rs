//! Properties of the approximate-minimum-degree ordering
//! ([`hotwire_circuit::ordering::amd`]) on its own. On every pattern
//! shape the LDLᵀ suite draws from, and on hubs, empty columns,
//! duplicate entries and the smallest sizes, it returns a permutation,
//! the same one on a second call, without panicking. On the reduced
//! DC-grid patterns the coupled signoff factors, its fill stays within a
//! few percent of recorded figures, counted by an elimination-tree walk
//! that shares no code with the crate.
//!
//! `PROPTEST_CASES` sets the number of random cases (default 24).

use hotwire_circuit::ordering::amd;
use proptest::prelude::*;

mod common;

use common::{cases, Mix, Network};

/// A CSC pattern: column pointers and row indices.
type Pattern = (Vec<usize>, Vec<u32>);

/// The pattern `SparseMatrix::to_csc` builds from the stamps of `edges`
/// over `n` nodes: each edge in both columns, every diagonal, rows
/// sorted and deduplicated.
fn clean_pattern(n: usize, edges: &[(usize, usize)]) -> Pattern {
    let mut cols: Vec<Vec<u32>> = (0..n).map(|i| vec![i as u32]).collect();
    for &(a, b) in edges {
        cols[a].push(b as u32);
        cols[b].push(a as u32);
    }
    let mut col_ptr = vec![0];
    let mut rows = Vec::new();
    for mut col in cols {
        col.sort_unstable();
        col.dedup();
        rows.extend(col);
        col_ptr.push(rows.len());
    }
    (col_ptr, rows)
}

/// The same pattern as raw as the signature allows: rows in stamping
/// order, each edge listed again for every repeat, and the diagonal only
/// on even columns.
fn raw_pattern(n: usize, edges: &[(usize, usize)]) -> Pattern {
    let mut cols: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                vec![i as u32]
            } else {
                Vec::new()
            }
        })
        .collect();
    for &(a, b) in edges {
        cols[a].extend([b as u32, b as u32]);
        cols[b].push(a as u32);
    }
    let mut col_ptr = vec![0];
    let mut rows = Vec::new();
    for col in cols {
        rows.extend(col);
        col_ptr.push(rows.len());
    }
    (col_ptr, rows)
}

/// Orders `(col_ptr, rows)` twice and checks both results are one and
/// the same permutation of `0..n`.
fn assert_deterministic_permutation(n: usize, (col_ptr, rows): &Pattern) {
    let perm = amd(n, col_ptr, rows);
    assert_eq!(perm.len(), n, "length");
    let mut seen = vec![false; n];
    for &p in &perm {
        assert!((p as usize) < n, "{p} out of range for n = {n}");
        assert!(!seen[p as usize], "{p} appears twice");
        seen[p as usize] = true;
    }
    assert_eq!(perm, amd(n, col_ptr, rows), "second call differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Holey grids, random graphs and forests of 1 to 400 nodes, both as
    /// `to_csc` would pass them and raw.
    #[test]
    fn amd_is_a_deterministic_permutation(
        shape in 0_usize..3,
        size in 1_usize..400,
        seed in 0_u64..u64::MAX,
    ) {
        let (net, _) = Network::of_shape(shape, size, &mut Mix(seed));
        assert_deterministic_permutation(net.n, &clean_pattern(net.n, &net.edges));
        assert_deterministic_permutation(net.n, &raw_pattern(net.n, &net.edges));
    }
}

#[test]
fn hubs_empty_columns_duplicates_and_tiny_sizes() {
    // A hub joined to every node, alone and on top of a chain; the hub
    // sits first, in the middle and last.
    for n in [2, 3, 17, 40, 401] {
        for hub in [0, n / 2, n - 1] {
            let star: Vec<_> = (0..n).filter(|&i| i != hub).map(|i| (hub, i)).collect();
            let mut chained = star.clone();
            chained.extend((1..n).map(|i| (i - 1, i)));
            for edges in [star, chained] {
                assert_deterministic_permutation(n, &clean_pattern(n, &edges));
                assert_deterministic_permutation(n, &raw_pattern(n, &edges));
            }
        }
    }
    // Every column empty (no diagonal either), and a few empty columns
    // among coupled ones.
    for n in [1, 2, 5, 64] {
        assert_deterministic_permutation(n, &(vec![0; n + 1], Vec::new()));
    }
    let edges: Vec<_> = (0..30).map(|i| (i, i + 7)).collect();
    let (mut col_ptr, mut rows) = raw_pattern(60, &edges);
    col_ptr.extend([rows.len(); 5]);
    assert_deterministic_permutation(65, &(col_ptr.clone(), rows.clone()));
    // Every entry listed three times, diagonal included.
    rows = rows.iter().flat_map(|&r| [r, r, r]).collect();
    for p in &mut col_ptr {
        *p *= 3;
    }
    assert_deterministic_permutation(65, &(col_ptr, rows));
    // n = 1 and n = 2, with and without the diagonal and the coupling.
    assert_deterministic_permutation(1, &(vec![0, 1], vec![0]));
    assert_deterministic_permutation(1, &(vec![0, 0], Vec::new()));
    assert_deterministic_permutation(2, &clean_pattern(2, &[]));
    assert_deterministic_permutation(2, &clean_pattern(2, &[(0, 1)]));
    assert_deterministic_permutation(2, &(vec![0, 1, 1], vec![1]));
}

/// The reduced pattern a `DcGridSolver` factors for a `k × k` grid with
/// `pads` pinned: free nodes numbered row-major, joined where the grid
/// joins them.
fn reduced_grid(k: usize, pads: &[(usize, usize)]) -> (usize, Pattern) {
    let mut unknown = vec![usize::MAX; k * k];
    let mut n = 0;
    for (node, u) in unknown.iter_mut().enumerate() {
        if !pads.contains(&(node / k, node % k)) {
            *u = n;
            n += 1;
        }
    }
    let mut edges = Vec::new();
    for r in 0..k {
        for c in 0..k {
            let here = unknown[r * k + c];
            for there in [
                (c + 1 < k).then(|| r * k + c + 1),
                (r + 1 < k).then(|| (r + 1) * k + c),
            ]
            .into_iter()
            .flatten()
            {
                if here != usize::MAX && unknown[there] != usize::MAX {
                    edges.push((here, unknown[there]));
                }
            }
        }
    }
    (n, clean_pattern(n, &edges))
}

/// Nonzeros of `L` (diagonal included) when the pattern is eliminated in
/// the order `perm`: Liu's elimination tree with path compression, then
/// one flagged walk up the tree per entry of each row of `L`.
fn fill(n: usize, (col_ptr, rows): &Pattern, perm: &[u32]) -> usize {
    let mut pinv = vec![0; n];
    for (k, &p) in perm.iter().enumerate() {
        pinv[p as usize] = k;
    }
    let mut upper = vec![Vec::new(); n];
    for c in 0..n {
        for &r in &rows[col_ptr[c]..col_ptr[c + 1]] {
            let (i, k) = (pinv[r as usize], pinv[c]);
            if i < k {
                upper[k].push(i);
            }
        }
    }
    const ROOT: usize = usize::MAX;
    let mut parent = vec![ROOT; n];
    let mut ancestor = vec![ROOT; n];
    for (k, col) in upper.iter().enumerate() {
        for &start in col {
            let mut i = start;
            while i != ROOT && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == ROOT {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    let mut flag = vec![ROOT; n];
    let mut nnz = n;
    for (k, col) in upper.iter().enumerate() {
        flag[k] = k;
        for &start in col {
            let mut i = start;
            while flag[i] != k {
                flag[i] = k;
                nnz += 1;
                i = parent[i];
            }
        }
    }
    nnz
}

/// The four corners of a `k × k` grid.
fn corners(k: usize) -> Vec<(usize, usize)> {
    vec![(0, 0), (0, k - 1), (k - 1, 0), (k - 1, k - 1)]
}

/// The corners and the midpoints of the four edges.
fn eight_pads(k: usize) -> Vec<(usize, usize)> {
    let m = k / 2;
    let mut pads = corners(k);
    pads.extend([(0, m), (m, 0), (m, k - 1), (k - 1, m)]);
    pads
}

#[test]
fn fill_holds_on_reduced_grids() {
    // nnz(L) of the quotient-graph AMD this ordering replaced (per-node
    // list vectors, lowest-index ties), counted by `fill` above on the
    // same patterns.
    const BEFORE: [(usize, bool, usize); 6] = [
        (20, false, 3_678),
        (20, true, 3_493),
        (50, false, 35_499),
        (50, true, 33_984),
        (100, false, 199_368),
        (100, true, 190_722),
    ];
    let (mut now_sum, mut before_sum) = (0, 0);
    for (k, eight, before) in BEFORE {
        let pads = if eight { eight_pads(k) } else { corners(k) };
        let (n, pattern) = reduced_grid(k, &pads);
        let now = fill(n, &pattern, &amd(n, &pattern.0, &pattern.1));
        println!(
            "{k}x{k} with {} pads: fill {now} (before {before})",
            pads.len()
        );
        assert!(
            now as f64 <= 1.06 * before as f64,
            "{k}x{k}, {} pads: fill {now} against {before}",
            pads.len()
        );
        now_sum += now;
        before_sum += before;
    }
    assert!(
        now_sum as f64 <= 1.02 * before_sum as f64,
        "total fill {now_sum} against {before_sum}"
    );
}
