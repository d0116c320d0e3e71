//! The paper's in-situ workflow (§5.2): while the solver runs, snapshots
//! stream through a staging channel to (a) the asynchronous lossy
//! compressor and (b) a streaming-POD consumer — both on separate CPU
//! threads, off the solver's critical path — and no snapshot history is
//! ever stored.
//!
//! ```sh
//! cargo run --release --example compress_insitu
//! ```

use rbx::basis::ModalBasis;
use rbx::comm::SingleComm;
use rbx::compress::{decompress_field, weighted_l2_error, AsyncFieldCompressor, CompressionConfig};
use rbx::core::{Simulation, SolverConfig};
use rbx::insitu::PodConsumer;
use rbx::io::{staging_channel, StepData, Variable};
use std::collections::BTreeMap;

fn main() {
    let case = rbx::core::rbc_box_case(2.0, 3, 3, false, 1);
    let comm = SingleComm::new();
    let cfg = SolverConfig {
        ra: 1e5,
        order: 5,
        dt: 2e-3,
        ic_noise: 0.05,
        ..Default::default()
    };
    let mut sim = Simulation::new(
        cfg.clone(),
        &case.mesh,
        &case.part,
        case.elems[0].clone(),
        &comm,
    );
    sim.init_rbc();
    let n = sim.n_local();

    // In-situ POD consumer on its own thread (the paper's "data processor
    // running on the mostly unused CPUs").
    let (writer, reader) = staging_channel(4);
    let pod = PodConsumer::spawn(reader, "temperature", sim.geom.mass.clone(), 10)
        .expect("spawn the in-situ POD consumer");

    // Encoding also runs off-thread: the solver only snapshots into the
    // double-buffered stage (drop-if-busy) and drains finished results.
    let mut encoder =
        AsyncFieldCompressor::new(&sim.geom, cfg.order + 1, CompressionConfig::default());
    let basis = ModalBasis::new(cfg.order + 1);
    let mut total_raw = 0usize;
    let mut total_compressed = 0usize;
    let mut worst_error = 0.0f64;
    // Originals still in flight inside the encoder, kept only until their
    // encoding lands (bounded at 2 by the double-buffering contract).
    let mut in_flight: BTreeMap<u64, Vec<f64>> = BTreeMap::new();

    let mass = sim.geom.mass.clone();
    let mut account = |done: rbx::compress::CompressedField,
                       in_flight: &mut BTreeMap<u64, Vec<f64>>| {
        let original = in_flight.remove(&done.step).expect("original retained");
        let recon = decompress_field(&done.compressed, &basis);
        let err = weighted_l2_error(&original, &recon, &mass);
        total_raw += done.compressed.original_bytes();
        total_compressed += done.compressed.data.len();
        worst_error = worst_error.max(err);
    };

    println!("running {} nodes, sampling every 20 steps", n);
    for step in 1..=400 {
        let stats = sim.step();
        assert!(stats.converged);
        if step % 20 == 0 {
            // Stream the raw snapshot to the POD consumer…
            writer
                .put(StepData {
                    step: step as u64,
                    time: sim.state.time,
                    vars: vec![Variable::f64(
                        "temperature",
                        vec![n as u64],
                        sim.state.t.clone(),
                    )],
                })
                .expect("POD consumer alive");
            // …and hand the vertical velocity to the async encoder.
            if encoder.try_submit(step as u64, sim.state.time, "uz", &sim.state.u[2]) {
                in_flight.insert(step as u64, sim.state.u[2].clone());
            }
            while let Some(done) = encoder.poll() {
                account(done, &mut in_flight);
            }
        }
    }
    writer.close();
    let (tail, enc_stats) = encoder.finish();
    for done in tail {
        account(done, &mut in_flight);
    }
    let pod = pod.join().expect("POD consumer finished cleanly");

    println!("\ncompression (paper §5.2 / Fig. 5 style, encoded off-thread):");
    println!(
        "  total reduction: {:.1} %  (raw {} KiB → {} KiB, {} snapshots, {} busy-dropped)",
        100.0 * (1.0 - total_compressed as f64 / total_raw as f64),
        total_raw / 1024,
        total_compressed / 1024,
        enc_stats.submitted,
        enc_stats.busy_dropped
    );
    println!(
        "  worst relative weighted-L2 error: {:.3} %",
        100.0 * worst_error
    );

    println!(
        "\nstreaming POD ({} snapshots ingested in-situ):",
        pod.count()
    );
    let sv = pod.singular_values();
    let total_energy: f64 = sv.iter().map(|s| s * s).sum();
    for (k, s) in sv.iter().take(5).enumerate() {
        println!(
            "  mode {k}: σ = {s:.4e}  energy fraction = {:.4}",
            s * s / total_energy
        );
    }
}
