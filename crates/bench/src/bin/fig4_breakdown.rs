//! **Fig. 4** — wall-time distribution of one time step.
//!
//! The paper reports the split of a 16,384-GCD LUMI step into Pressure
//! (> 85 %), Velocity, Temperature and the rest. Reproduced twice:
//!
//! 1. **measured** — the real solver's phase timers over an RBC run on
//!    this machine;
//! 2. **modelled** — the cost model's breakdown at 16,384 GCDs on LUMI.
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin fig4_breakdown
//! ```

use rbx::core::Phase;
use rbx::perf::{lumi, CaseSize, CostModel, SolverMix};
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::bench_record;
use rbx_bench::{developed_box, out_dir, write_csv};

fn main() {
    println!("Fig. 4 reproduction: wall-time distribution of one time step\n");

    // ---- measured ---------------------------------------------------------
    // The paper's linear coarse space (§5.3), not the solver default.
    let mut sim = developed_box(6, 1, 10);
    sim.timers.reset();
    for _ in 0..60 {
        assert!(sim.step().converged);
    }
    let pct = sim.timers.percentages();
    println!("measured (real solver, this machine, degree 6, Ra = 1e5):");
    for (phase, p) in Phase::ALL.iter().zip(pct) {
        println!("  {:<12} {:>5.1} %", phase.name(), p);
    }
    println!(
        "  avg time/step: {:.2} ms\n",
        1e3 * sim.timers.avg_per_step()
    );

    // ---- modelled at paper scale -------------------------------------------
    let model = CostModel::new(lumi(), CaseSize::paper_ra1e15(), SolverMix::default());
    let b = model.time_per_step(16384);
    let mpct = b.percentages();
    println!("modelled (LUMI, 16,384 GCDs, 108M elements — the paper's Fig. 4 point):");
    for (name, p) in ["Pressure", "Velocity", "Temperature", "Other"]
        .iter()
        .zip(mpct)
    {
        println!("  {name:<12} {p:>5.1} %");
    }
    println!("  modelled time/step: {:.1} ms", 1e3 * b.total());
    println!(
        "\npaper claim: \"pressure constituting more than 85% of the time for computing a time-step\" → modelled {:.1} %",
        mpct[0]
    );
    assert!(mpct[0] > 85.0, "model drifted away from the paper's Fig. 4");

    let dir = out_dir("fig4_breakdown");
    write_csv(
        &dir.join("fig4.csv"),
        "source,pressure_pct,velocity_pct,temperature_pct,other_pct",
        &[
            format!("measured,{},{},{},{}", pct[0], pct[1], pct[2], pct[3]),
            format!(
                "modelled_lumi_16384,{},{},{},{}",
                mpct[0], mpct[1], mpct[2], mpct[3]
            ),
        ],
    );
    println!("wrote {}", dir.join("fig4.csv").display());

    // Machine-readable record mirroring the CSV, for CI consumption.
    let pct_row = |source: &str, p: [f64; 4]| {
        vec![
            Value::str(source),
            Value::num(p[0]),
            Value::num(p[1]),
            Value::num(p[2]),
            Value::num(p[3]),
        ]
    };
    let record = bench_record(
        "fig4_breakdown",
        &[
            "source",
            "pressure_pct",
            "velocity_pct",
            "temperature_pct",
            "other_pct",
        ],
        vec![
            pct_row("measured", pct),
            pct_row("modelled_lumi_16384", mpct),
        ],
        vec![
            ("order", Value::int(6)),
            ("steps", Value::int(60)),
            (
                "measured_ms_per_step",
                Value::num(1e3 * sim.timers.avg_per_step()),
            ),
            ("modelled_ms_per_step", Value::num(1e3 * b.total())),
        ],
    );
    let json_path = dir.join("fig4.json");
    std::fs::write(&json_path, format!("{record}\n")).expect("write fig4.json");
    println!("wrote {}", json_path.display());
}
