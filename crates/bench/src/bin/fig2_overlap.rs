//! **Fig. 2** — serial vs task-parallel additive Schwarz preconditioner.
//!
//! The paper shows trace timelines of both variants on an NVIDIA A100 and
//! reports ≈20 % wall-time reduction of the Schwarz phase over 50 time
//! steps for a small strong-scaling-regime test case. Two reproductions:
//!
//! 1. **device simulation (virtual time)** — the Schwarz phase's kernel
//!    mix (many tiny coarse-solve kernels that are launch-latency bound +
//!    a few large smoother kernels) scheduled on the discrete-event device
//!    simulator: serial single-stream launching vs dual-host-thread,
//!    dual-stream launching with priorities. Deterministic and
//!    host-independent;
//! 2. **real solver** — the actual `SchwarzMg` preconditioner in Serial vs
//!    Overlapped mode inside the pressure solve of an RBC run, on the
//!    paper's linear coarse space (`coarse_order` 1; the coarse problem is
//!    solved exactly rather than by the paper's 10-iteration PCG). (Note: real
//!    thread overlap needs > 1 host core to pay off; the output reports
//!    the host's parallelism.)
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin fig2_overlap
//! ```

use rbx::device::{simulate, SimConfig, SimKernel, StreamPriority};
use rbx::la::SchwarzMode;
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::bench_record;
use rbx_bench::{developed_box, out_dir, write_csv};

/// Kernel mix of one Schwarz application in the strong-scaling regime:
/// the coarse solve is ~10 PCG iterations of tiny kernels (launch-latency
/// dominated), the fine level is a few large memory-bound kernels.
const COARSE_KERNELS: usize = 30; // 10 iterations × 3 kernels
const COARSE_KERNEL_US: f64 = 12.0;
const FINE_KERNELS: usize = 4;
const FINE_KERNEL_US: f64 = 330.0;
const LAUNCH_US: f64 = 8.0;
const STEPS: usize = 50;

fn coarse_kernels(stream: usize) -> Vec<SimKernel> {
    (0..COARSE_KERNELS)
        .map(|i| SimKernel {
            stream,
            name: format!("c{i}"),
            duration_us: COARSE_KERNEL_US,
        })
        .collect()
}

fn fine_kernels(stream: usize) -> Vec<SimKernel> {
    (0..FINE_KERNELS)
        .map(|i| SimKernel {
            stream,
            name: format!("F{i}"),
            duration_us: FINE_KERNEL_US,
        })
        .collect()
}

fn main() {
    println!("Fig. 2 reproduction: serial (A) vs task-parallel (B) additive Schwarz\n");

    // ---- (A) serial: one host thread, one stream -------------------------
    let serial_cfg = SimConfig {
        executors: 2,
        launch_latency_us: LAUNCH_US,
        stream_priorities: vec![StreamPriority::Normal],
    };
    let mut serial_launches = coarse_kernels(0);
    serial_launches.extend(fine_kernels(0));
    let serial = simulate(&serial_cfg, &[serial_launches]);

    // ---- (B) task-parallel: two host threads, two prioritized streams ----
    let overlap_cfg = SimConfig {
        executors: 2,
        launch_latency_us: LAUNCH_US,
        stream_priorities: vec![StreamPriority::High, StreamPriority::Normal],
    };
    let overlap = simulate(&overlap_cfg, &[coarse_kernels(0), fine_kernels(1)]);

    let reduction = 100.0 * (1.0 - overlap.makespan_us / serial.makespan_us);
    println!("device simulation (one Schwarz application; virtual time):");
    println!(
        "  (A) serial       : {:>7.1} µs   device utilization {:.0} %",
        serial.makespan_us,
        100.0 * serial.utilization()
    );
    println!(
        "  (B) task-parallel: {:>7.1} µs   device utilization {:.0} %",
        overlap.makespan_us,
        100.0 * overlap.utilization()
    );
    println!("  wall-time reduction of the Schwarz phase: {reduction:.1} %");
    println!(
        "  over {STEPS} time steps: {:.2} ms → {:.2} ms",
        serial.makespan_us * STEPS as f64 / 1e3,
        overlap.makespan_us * STEPS as f64 / 1e3
    );
    println!("  (paper: ≈20 % on 4×A100 for a comparable small test case)\n");

    println!("trace timeline, serial (c = coarse-solve kernels, F = fine smoother):");
    println!(
        "{}",
        rbx_bench::render_timeline_unit(&serial.trace, 100, "µs")
    );
    println!("trace timeline, task-parallel (coarse on high-priority stream 0):");
    println!(
        "{}",
        rbx_bench::render_timeline_unit(&overlap.trace, 100, "µs")
    );

    // ---- real-solver measurement ------------------------------------------
    let cores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    println!(
        "real-solver experiment ({STEPS} RBC steps, pressure phase; host has {cores} core(s)):"
    );
    let mut sim = developed_box(5, 1, 5);
    sim.cfg.schwarz_mode = SchwarzMode::Serial;
    sim.timers.reset();
    for _ in 0..STEPS {
        assert!(sim.step().converged);
    }
    let real_serial = sim.timers.seconds(rbx::core::Phase::Pressure);

    let mut sim = developed_box(5, 1, 5);
    sim.cfg.schwarz_mode = SchwarzMode::Overlapped;
    sim.timers.reset();
    for _ in 0..STEPS {
        assert!(sim.step().converged);
    }
    let real_overlap = sim.timers.seconds(rbx::core::Phase::Pressure);
    let real_reduction = 100.0 * (1.0 - real_overlap / real_serial);
    println!("  serial Schwarz    : {real_serial:.3} s");
    println!("  overlapped Schwarz: {real_overlap:.3} s");
    println!("  pressure-phase reduction: {real_reduction:.1} %");
    if cores == 1 {
        println!("  (single-core host: the coarse-solve helper thread cannot run");
        println!("   concurrently, so no real-time gain is expected here; the");
        println!("   virtual-time result above carries the Fig. 2 comparison)");
    }

    let dir = out_dir("fig2_overlap");
    write_csv(
        &dir.join("fig2.csv"),
        "experiment,serial,overlapped,reduction_pct",
        &[
            format!(
                "device_sim_us,{},{},{reduction}",
                serial.makespan_us, overlap.makespan_us
            ),
            format!("real_solver_s,{real_serial},{real_overlap},{real_reduction}"),
        ],
    );
    println!("\nwrote {}", dir.join("fig2.csv").display());

    // Machine-readable record mirroring the CSV, for CI consumption.
    let record = bench_record(
        "fig2_overlap",
        &["experiment", "serial", "overlapped", "reduction_pct"],
        vec![
            vec![
                Value::str("device_sim_us"),
                Value::num(serial.makespan_us),
                Value::num(overlap.makespan_us),
                Value::num(reduction),
            ],
            vec![
                Value::str("real_solver_s"),
                Value::num(real_serial),
                Value::num(real_overlap),
                Value::num(real_reduction),
            ],
        ],
        vec![
            ("steps", Value::int(STEPS as u64)),
            ("host_cores", Value::int(cores as u64)),
        ],
    );
    let json_path = dir.join("fig2.json");
    std::fs::write(&json_path, format!("{record}\n")).expect("write fig2.json");
    println!("wrote {}", json_path.display());
}
