//! The full in-situ pipeline: solver → staging channel → streaming POD on
//! a separate thread, validated against the offline method of snapshots on
//! the identical data.

use rbx::comm::SingleComm;
use rbx::core::{Simulation, SolverConfig};
use rbx::insitu::{PodBatch, PodConsumer};
use rbx::io::{staging_channel, StepData, Variable};

#[test]
fn insitu_pod_matches_offline_on_solver_data() {
    let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
    let comm = SingleComm::new();
    let cfg = SolverConfig {
        ra: 5e4,
        order: 4,
        dt: 2e-3,
        ic_noise: 0.05,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg, &case.mesh, &case.part, case.elems[0].clone(), &comm);
    sim.init_rbc();
    let n = sim.n_local();
    let weights = sim.geom.mass.clone();

    let (writer, reader) = staging_channel(3);
    let consumer =
        PodConsumer::spawn(reader, "uz", weights.clone(), 12).expect("spawn POD consumer");

    // Run and stream; also keep copies for the offline reference.
    let mut kept = Vec::new();
    for step in 1..=80 {
        assert!(sim.step().converged);
        if step % 10 == 0 {
            let snap = sim.state.u[2].clone();
            writer
                .put(StepData {
                    step,
                    time: sim.state.time,
                    vars: vec![Variable::f64("uz", vec![n as u64], snap.clone())],
                })
                .unwrap();
            kept.push(snap);
        }
    }
    writer.close();
    let streaming = consumer.join().expect("POD consumer finished cleanly");
    assert_eq!(streaming.count(), kept.len());

    let offline = PodBatch::new(weights).compute(&kept, &comm);
    assert!(!offline.singular_values.is_empty());
    // Compare the energetic modes; the numerical-noise tail (σ ≲ 1e-4 of
    // the leading mode) is not uniquely determined and may differ between
    // the rank-capped streaming update and the offline reference.
    let sigma0 = offline.singular_values[0];
    let mut compared = 0;
    for (k, (s, o)) in streaming
        .singular_values()
        .iter()
        .zip(&offline.singular_values)
        .enumerate()
    {
        if *o < 1e-4 * sigma0 {
            break;
        }
        assert!(
            (s - o).abs() <= 1e-4 * sigma0,
            "mode {k}: streaming σ {s:.6e} vs offline {o:.6e}"
        );
        compared += 1;
    }
    assert!(
        compared >= 2,
        "too few energetic modes compared: {compared}"
    );
}

#[test]
fn async_file_engine_runs_alongside_solver() {
    // Async BPL writer ingests snapshots while the solver advances; the
    // file must contain every step afterwards.
    use rbx::io::{read_bpl, AsyncBplWriter};
    let case = rbx::core::rbc_box_case(1.0, 2, 2, false, 1);
    let comm = SingleComm::new();
    let cfg = SolverConfig {
        ra: 1e4,
        order: 3,
        dt: 2e-3,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg, &case.mesh, &case.part, case.elems[0].clone(), &comm);
    sim.init_rbc();
    let dir = std::env::temp_dir().join("rbx_insitu_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("solver_stream.bpl");
    let writer = AsyncBplWriter::create(&path, 2).unwrap();
    let n = sim.n_local();
    for step in 1..=10u64 {
        assert!(sim.step().converged);
        writer.put(StepData {
            step,
            time: sim.state.time,
            vars: vec![Variable::f64("t", vec![n as u64], sim.state.t.clone())],
        });
    }
    let written = writer.close().unwrap();
    assert_eq!(written, 10);
    let steps = read_bpl(&path).unwrap();
    assert_eq!(steps.len(), 10);
    assert!((steps[9].time - sim.state.time).abs() < 1e-14);
}
