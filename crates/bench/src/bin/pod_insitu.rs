//! **§5.2 in-situ analysis** — streaming POD while the solver runs.
//!
//! Reproduces the paper's asynchronous post-processing architecture: the
//! solver streams snapshots through the staging engine to a POD consumer
//! on a separate CPU thread. Reports modal energies, agreement with the
//! offline method of snapshots, and the overhead the streaming imposes on
//! the solver (the paper claims "low impact on the simulation
//! performance").
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin pod_insitu
//! ```

use rbx::insitu::{PodBatch, PodConsumer};
use rbx::io::{staging_channel, StepData, Variable};
use rbx_bench::{developed_box, out_dir, write_csv};

const STEPS: usize = 200;
const SAMPLE_EVERY: usize = 10;

fn main() {
    println!("in-situ streaming POD (paper §5.2)\n");

    // ---- baseline: solver only -------------------------------------------
    let mut sim = developed_box(5, 2, 20);
    let t0 = std::time::Instant::now();
    for _ in 0..STEPS {
        assert!(sim.step().converged);
    }
    let solver_only = t0.elapsed().as_secs_f64();

    // ---- solver + in-situ POD ---------------------------------------------
    let mut sim = developed_box(5, 2, 20);
    let n = sim.n_local();
    let weights = sim.geom.mass.clone();
    let comm = rbx::comm::SingleComm::new();
    let (writer, reader) = staging_channel(4);
    let consumer =
        PodConsumer::spawn(reader, "uz", weights.clone(), 16).expect("spawn POD consumer");
    let mut kept = Vec::new();
    let t0 = std::time::Instant::now();
    for step in 1..=STEPS {
        assert!(sim.step().converged);
        if step % SAMPLE_EVERY == 0 {
            let snap = sim.state.u[2].clone();
            writer
                .put(StepData {
                    step: step as u64,
                    time: sim.state.time,
                    vars: vec![Variable::f64("uz", vec![n as u64], snap.clone())],
                })
                .expect("POD consumer alive");
            kept.push(snap);
        }
    }
    writer.close();
    let with_insitu = t0.elapsed().as_secs_f64();
    let pod = consumer.join().expect("POD consumer finished cleanly");

    println!("overhead of in-situ processing:");
    println!("  solver only     : {:.2} s for {STEPS} steps", solver_only);
    println!("  solver + POD    : {:.2} s", with_insitu);
    println!(
        "  overhead        : {:.1} % (paper: \"low impact on the simulation performance\")\n",
        100.0 * (with_insitu / solver_only - 1.0)
    );

    let offline = PodBatch::new(weights).compute(&kept, &comm);
    println!(
        "modal spectrum ({} snapshots, streaming rank {}):",
        pod.count(),
        pod.rank()
    );
    println!("  mode   σ (streaming)   σ (offline)    energy frac");
    let total: f64 = offline.singular_values.iter().map(|s| s * s).sum();
    let mut rows = Vec::new();
    for k in 0..offline.singular_values.len().min(8) {
        let s_stream = pod.singular_values().get(k).copied().unwrap_or(0.0);
        let s_off = offline.singular_values[k];
        println!(
            "  {k:>4}   {s_stream:>12.5e}   {s_off:>12.5e}   {:>10.4}",
            s_off * s_off / total
        );
        rows.push(format!("{k},{s_stream},{s_off},{}", s_off * s_off / total));
    }
    println!("\n  (tail modes beyond the energetic leading ones differ between the");
    println!("   rank-capped streaming update and the offline reference — expected");
    println!("   for truncated incremental SVD; the captured energy matches)");
    let dir = out_dir("pod_insitu");
    write_csv(
        &dir.join("pod_spectrum.csv"),
        "mode,sigma_streaming,sigma_offline,energy_fraction",
        &rows,
    );
    println!("\nwrote {}", dir.join("pod_spectrum.csv").display());
}
