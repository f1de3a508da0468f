//! Chip-level coupled EM–IR–thermal signoff of a power grid — the
//! whole-chip generalization of the paper's per-line self-consistent
//! loop (eq. 13): IR drop sets the strap currents, Joule heating raises
//! the strap temperatures, hotter metal is more resistive, and the loop
//! iterates to a fixed point before electromigration is judged at each
//! strap's *local* temperature.
//!
//! Run with: `cargo run --example power_grid_coupled`

use hotwire::coupled::{coupled_signoff, CoupledGridSpec, CoupledOptions};
use hotwire::units::Current;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A comfortable grid: light per-node load, everything passes.
    let light = CoupledGridSpec {
        sink_per_node: Current::from_milliamps(0.1),
        ..CoupledGridSpec::demo(40, 40)
    };
    let report = coupled_signoff(light, CoupledOptions::default())?;
    println!(
        "40×40 @ 0.1 mA/node: {} iterations, peak strap {:.2}, worst droop {:.1} mV — {}",
        report.iterations,
        report.peak_temperature.to_celsius(),
        report.worst_ir_drop.value() * 1e3,
        if report.passes() {
            "clean"
        } else {
            "violations!"
        },
    );

    // 2. Crank the load: the electro-thermal feedback now matters (watch
    //    the iteration count grow) and near-pad straps blow through their
    //    self-consistent allowance.
    let heavy = CoupledGridSpec {
        sink_per_node: Current::from_milliamps(0.3),
        ..CoupledGridSpec::demo(40, 40)
    };
    let report = coupled_signoff(heavy, CoupledOptions::default())?;
    println!(
        "\n40×40 @ 0.3 mA/node: {} iterations, peak strap {:.2}, worst droop {:.1} mV",
        report.iterations,
        report.peak_temperature.to_celsius(),
        report.worst_ir_drop.value() * 1e3,
    );
    println!(
        "convergence trace (max |dT| per iteration): {}",
        report
            .trace
            .records
            .iter()
            .map(|r| format!("{:.2}", r.max_delta_t))
            .collect::<Vec<_>>()
            .join(" → ")
    );
    let violations = report.violations();
    println!("\n{} straps in violation; worst five:", violations.len());
    for v in violations.iter().take(5) {
        println!(
            "  {:<24} T_m = {:.1}, j = {:.2} MA/cm², {:.2}× its {} limit",
            v.verdict.net,
            v.temperature.to_celsius(),
            v.density.to_mega_amps_per_cm2(),
            v.verdict.utilization,
            v.verdict.governing.label(),
        );
    }

    // 3. The reliability rollup: every mortal strap contributes a
    //    lognormal TTF population member; the chip fails when the first
    //    strap does (weakest link).
    if let Some(ttf) = report.chip_ttf {
        println!(
            "\nchip-level TTF at the 0.1 % quantile: {:.2e} h ({} mortal straps of {})",
            ttf.value() / 3600.0,
            report.chip_failure.as_ref().map_or(0, |p| p.len()),
            report.branches.len(),
        );
    }
    Ok(())
}
