//! Criterion benchmarks for the finite-volume cross-section solver and
//! the power-grid DC analysis, per mesh density and grid size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hotwire_circuit::power_grid::{PowerGrid, PowerGridSpec};
use hotwire_thermal::grid2d::{MeshControl, SingleWireStructure};
use hotwire_units::{Area, Current, Length, Resistance, Voltage};

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

fn bench_mesh_density(c: &mut Criterion) {
    let sw = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2));
    let mut group = c.benchmark_group("grid2d_fig5_cell_size");
    group.sample_size(10);
    for cell_um in [0.15, 0.08, 0.05] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cell_um),
            &cell_um,
            |b, &cell| {
                let control = MeshControl::resolving(um(cell), 1);
                b.iter(|| black_box(sw.solve(um(6.0), control).unwrap().rise_per_line_power()));
            },
        );
    }
    group.finish();
}

fn power_grid(n: usize) -> PowerGrid {
    PowerGrid::build(&PowerGridSpec {
        rows: n,
        cols: n,
        segment_resistance: Resistance::new(0.5),
        strap_cross_section: Area::from_um2(1.44),
        vdd: Voltage::new(2.5),
        sink_per_node: Current::from_milliamps(0.4),
        pads: vec![(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)],
    })
    .expect("valid grid spec")
}

/// The direct DC analysis across grid sizes, every one through the
/// AMD-ordered LDLᵀ.
fn bench_power_grid_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_grid_analyze");
    group.sample_size(10);
    for n in [10usize, 20, 50, 100, 200] {
        let grid = power_grid(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &grid, |b, grid| {
            b.iter(|| black_box(grid.analyze().unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mesh_density, bench_power_grid_analyze);
criterion_main!(benches);
