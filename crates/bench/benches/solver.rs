//! Criterion benchmarks for the self-consistent solver (the inner loop of
//! every design-rule table — Figs. 2–3, Tables 2–4).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hotwire_circuit::linalg::Matrix;
use hotwire_circuit::sparse::SparseMatrix;
use hotwire_core::sweep::{duty_cycle_sweep, log_spaced};
use hotwire_core::SelfConsistentProblem;
use hotwire_tech::{Dielectric, Metal};
use hotwire_thermal::impedance::{InsulatorStack, LineGeometry, QUASI_1D_PHI};
use hotwire_units::{CurrentDensity, Length};

fn problem(r: f64) -> SelfConsistentProblem {
    let um = Length::from_micrometers;
    SelfConsistentProblem::builder()
        .metal(Metal::copper().with_design_rule_j0(CurrentDensity::from_amps_per_cm2(6.0e5)))
        .line(LineGeometry::new(um(3.0), um(0.5), um(1000.0)).unwrap())
        .stack(InsulatorStack::single(um(3.0), &Dielectric::oxide()))
        .phi(QUASI_1D_PHI)
        .duty_cycle(r)
        .build()
        .unwrap()
}

fn bench_single_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("self_consistent_solve");
    for r in [1.0, 0.1, 1.0e-4] {
        let p = problem(r);
        group.bench_with_input(BenchmarkId::from_parameter(r), &p, |b, p| {
            b.iter(|| black_box(p.solve().unwrap()));
        });
    }
    group.finish();
}

fn bench_fig2_sweep(c: &mut Criterion) {
    let p = problem(0.1);
    let rs = log_spaced(1.0e-4, 1.0, 17);
    c.bench_function("fig2_duty_cycle_sweep_17pts", |b| {
        b.iter(|| black_box(duty_cycle_sweep(&p, &rs).unwrap()));
    });
}

/// A randomized-workload bench: 64 solves over a pre-generated population
/// of line geometries and duty cycles, the shape of a full-chip EM scan.
fn bench_random_geometry_scan(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xD0C5_1999);
    let um = Length::from_micrometers;
    let population: Vec<SelfConsistentProblem> = (0..64)
        .map(|_| {
            SelfConsistentProblem::builder()
                .metal(
                    Metal::copper().with_design_rule_j0(CurrentDensity::from_amps_per_cm2(
                        rng.gen_range(3.0e5..2.0e6),
                    )),
                )
                .line(
                    LineGeometry::new(
                        um(rng.gen_range(0.3..4.0)),
                        um(rng.gen_range(0.3..1.5)),
                        um(1000.0),
                    )
                    .expect("generated geometry is positive"),
                )
                .stack(InsulatorStack::single(
                    um(rng.gen_range(0.5..6.0)),
                    &Dielectric::oxide(),
                ))
                .phi(QUASI_1D_PHI)
                .duty_cycle(rng.gen_range(1.0e-3..1.0))
                .build()
                .expect("generated problem is valid")
        })
        .collect();
    c.bench_function("random_geometry_scan_64", |b| {
        b.iter(|| {
            let mut melt_limited = 0usize;
            for p in &population {
                match p.solve() {
                    Ok(sol) => {
                        black_box(sol);
                    }
                    Err(_) => melt_limited += 1,
                }
            }
            black_box(melt_limited)
        });
    });
}

/// The stamps of an `n × n` grid Laplacian with a leak on every node —
/// the structure of every power-grid and RC-mesh MNA system.
fn grid_laplacian_stamps(n: usize) -> Vec<(usize, usize, f64)> {
    let at = |r: usize, c: usize| r * n + c;
    let mut stamps = Vec::new();
    let mut couple = |a: usize, b: usize, g: f64| {
        stamps.extend([(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]);
    };
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                couple(at(r, c), at(r, c + 1), 2.0);
            }
            if r + 1 < n {
                couple(at(r, c), at(r + 1, c), 2.0);
            }
        }
    }
    stamps.extend((0..n * n).map(|i| (i, i, 0.05)));
    stamps
}

/// Stamps an `n × n` grid Laplacian into both matrix representations.
fn stamp_grid_laplacian(n: usize) -> (Matrix, SparseMatrix) {
    let unknowns = n * n;
    let mut dense = Matrix::zeros(unknowns, unknowns);
    let mut sparse = SparseMatrix::zeros(unknowns);
    for (r, c, v) in grid_laplacian_stamps(n) {
        dense.add(r, c, v);
        sparse.add(r, c, v);
    }
    (dense, sparse)
}

/// The sparse grid Laplacian alone, for sizes a dense copy cannot hold.
fn sparse_grid_laplacian(n: usize) -> SparseMatrix {
    let mut sparse = SparseMatrix::zeros(n * n);
    for (r, c, v) in grid_laplacian_stamps(n) {
        sparse.add(r, c, v);
    }
    sparse
}

/// The Laplacian of an `n`-node random tree of chains with a leak on
/// every node — the shape of the em-tree stress systems: node `i`
/// extends the chain through `i − 1`, except that one node in eight
/// branches off a pseudo-random earlier node. No fill, width-1
/// supernodes.
fn tree_laplacian(n: usize) -> SparseMatrix {
    let mut m = SparseMatrix::zeros(n);
    for i in 0..n {
        m.add(i, i, 0.05);
    }
    for i in 1..n {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        #[allow(clippy::cast_possible_truncation)]
        let p = if h.is_multiple_of(8) {
            h as usize % i
        } else {
            i - 1
        };
        m.add(i, i, 2.0);
        m.add(p, p, 2.0);
        m.add(i, p, -2.0);
        m.add(p, i, -2.0);
    }
    m
}

#[allow(clippy::cast_precision_loss)]
fn grid_rhs(unknowns: usize) -> Vec<f64> {
    (0..unknowns).map(|i| ((i % 7) as f64) - 3.0).collect()
}

/// Dense vs sparse one-shot solve on grid-shaped MNA systems. The dense
/// side is capped at 24×24 (576 unknowns) — it is O(n⁶) in the grid edge
/// and already the clear loser there.
fn bench_dense_vs_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("mna_lu_solve");
    group.sample_size(10);
    for n in [10usize, 16, 24] {
        let (dense, sparse) = stamp_grid_laplacian(n);
        let b = grid_rhs(n * n);
        group.bench_with_input(BenchmarkId::new("dense", n), &(), |bench, ()| {
            bench.iter(|| black_box(dense.solve(&b).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("sparse", n), &(), |bench, ()| {
            bench.iter(|| black_box(sparse.factor().unwrap().solve(&b)));
        });
    }
    for n in [50usize, 100] {
        let sparse = sparse_grid_laplacian(n);
        let b = grid_rhs(n * n);
        group.bench_with_input(BenchmarkId::new("sparse", n), &(), |bench, ()| {
            bench.iter(|| black_box(sparse.factor().unwrap().solve(&b)));
        });
    }
    group.finish();
}

/// What factorization reuse buys per timestep: a fresh symbolic+numeric
/// factor, a numeric-only refactor on the stored pattern, and a pure
/// re-solve against an existing factorization.
fn bench_factor_reuse(c: &mut Criterion) {
    let n = 32usize;
    let (dense, sparse) = stamp_grid_laplacian(n);
    let b = grid_rhs(n * n);
    let mut group = c.benchmark_group("factor_reuse_32x32");
    group.sample_size(10);
    group.bench_function("fresh_factor_and_solve", |bench| {
        bench.iter(|| black_box(sparse.factor().unwrap().solve(&b)));
    });
    group.bench_function("refactor_and_solve", |bench| {
        let mut f = sparse.factor().unwrap();
        let mut x = Vec::new();
        bench.iter(|| {
            f.refactor(&sparse).unwrap();
            f.solve_into(&b, &mut x);
            black_box(x.last().copied())
        });
    });
    group.bench_function("solve_only", |bench| {
        let f = sparse.factor().unwrap();
        let mut x = Vec::new();
        bench.iter(|| {
            f.solve_into(&b, &mut x);
            black_box(x.last().copied())
        });
    });
    group.bench_function("dense_solve_factored_only", |bench| {
        let mut lu = dense.clone();
        lu.factor().unwrap();
        let mut x = Vec::new();
        bench.iter(|| {
            lu.solve_factored_into(&b, &mut x);
            black_box(x.last().copied())
        });
    });
    group.finish();
}

/// Per-size sweep of the SPD kernel: a fresh factor (ordering, symbolic
/// and numeric phases), a numeric-only refactor, and one solve, on grid
/// Laplacians from 12×12 to 300×300 and on a 2k-node tree. Each matrix
/// first prints its multiply-add count, Σ c(c+1)/2 over the column
/// counts c of L, so a time converts to an achieved rate.
fn bench_cholesky_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky_sweep");
    group.sample_size(10);
    let mut cases: Vec<(String, SparseMatrix)> = [12usize, 20, 40, 100, 300]
        .iter()
        .map(|&n| (format!("grid{n}"), sparse_grid_laplacian(n)))
        .collect();
    cases.push(("tree2000".to_string(), tree_laplacian(2000)));
    for (name, m) in &cases {
        let b = grid_rhs(m.n());
        let f = m.factor_cholesky().expect("Laplacian with leaks is SPD");
        let madds: usize = f
            .l_col_ptr()
            .windows(2)
            .map(|w| (w[1] - w[0]) * (w[1] - w[0] + 1) / 2)
            .sum();
        println!(
            "cholesky_sweep/{name}: n {}, nnz(L+D) {}, supernodes {}, multiply-adds {madds}",
            m.n(),
            f.nnz(),
            f.supernodes().len().saturating_sub(1),
        );
        group.bench_with_input(BenchmarkId::new("factor", name), &(), |bench, ()| {
            bench.iter(|| black_box(m.factor_cholesky().unwrap().nnz()));
        });
        group.bench_with_input(BenchmarkId::new("refactor", name), &(), |bench, ()| {
            let mut f = f.clone();
            bench.iter(|| {
                f.refactor(m).unwrap();
                black_box(f.diagonal()[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("solve", name), &(), |bench, ()| {
            let mut x = Vec::new();
            bench.iter(|| {
                f.solve_into(&b, &mut x);
                black_box(x[0])
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_solve,
    bench_fig2_sweep,
    bench_random_geometry_scan,
    bench_dense_vs_sparse,
    bench_factor_reuse,
    bench_cholesky_sweep
);
criterion_main!(benches);
