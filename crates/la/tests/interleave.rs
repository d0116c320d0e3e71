//! Exhaustive interleaving verification of the overlapped Schwarz apply.
//!
//! The paper's §5.3 innovation runs the coarse-grid correction and the
//! element-local FDM sweep concurrently. `schwarz.rs` has a stress test
//! showing Serial and Overlapped agree bitwise *on the schedules the OS
//! happened to produce*; this test makes the stronger claim: the apply is
//! decomposed into its scheduling-relevant atomic steps (coarse restrict /
//! solve / prolong on one thread, the FDM sweep on another, the combine
//! gated on both) and **every** interleaving is executed by the
//! deterministic schedule explorer. All schedules must complete (no
//! deadlock) and produce one bitwise-identical result, equal to what both
//! real execution modes compute.

use rbx_comm::{Communicator, SingleComm};
use rbx_device::explore::{
    count_interleavings, explore, fingerprint_f64, StepStatus, ThreadProgram,
};
use rbx_gs::{GatherScatter, GsOp};
use rbx_la::bc::dirichlet_mask;
use rbx_la::coarse::CoarseGrid;
use rbx_la::fdm::ElementFdm;
use rbx_la::ops::hadamard;
use rbx_la::schwarz::{SchwarzMg, SchwarzMode};
use rbx_mesh::generators::box_mesh;
use rbx_mesh::{BoundaryTag, GeomFactors};
use std::sync::Arc;

const ALL_WALLS: [BoundaryTag; 3] = [
    BoundaryTag::Wall,
    BoundaryTag::HotWall,
    BoundaryTag::ColdWall,
];

/// Shared state of the modelled apply: the buffers both tasks touch plus
/// the completion flags the combine step waits on.
struct ApplyState {
    r_coarse: Vec<f64>,
    z0: Vec<f64>,
    z_coarse: Vec<f64>,
    z_fine: Vec<f64>,
    coarse_done: bool,
    fine_done: bool,
    z: Vec<f64>,
}

#[test]
fn every_interleaving_of_overlapped_schwarz_is_bitwise_identical() {
    let p = 4;
    let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
    let comm = SingleComm::new();
    let part = vec![0usize; mesh.num_elements()];
    let my: Vec<usize> = (0..mesh.num_elements()).collect();
    let geom = GeomFactors::new(&mesh, p);
    let gs = Arc::new(GatherScatter::build(&mesh, p, &part, &my, &comm));
    let mask = dirichlet_mask(&mesh, p, &my, &ALL_WALLS, &gs, &comm);
    let mult = gs.multiplicity(&comm);
    let wt: Vec<f64> = mult.iter().map(|&m| 1.0 / m).collect();
    let fdm = ElementFdm::new(&geom);
    let coarse = CoarseGrid::build(&mesh, p, 1, &part, &my, &ALL_WALLS, &comm);
    let n = geom.total_nodes();
    let nc = coarse.len();

    // An assembled, masked residual (same construction as the schwarz.rs
    // bitwise test).
    let mut r: Vec<f64> = (0..n).map(|i| ((i * 29 % 23) as f64) - 11.0).collect();
    gs.apply(&mut r, GsOp::Add, &comm);
    hadamard(&mask, &mut r);
    let rw: Vec<f64> = r.iter().zip(&wt).map(|(v, w)| v * w).collect();

    // Reference: both real execution modes of the assembled preconditioner.
    let schwarz = SchwarzMg::new(
        ElementFdm::new(&geom),
        CoarseGrid::build(&mesh, p, 1, &part, &my, &ALL_WALLS, &comm),
        gs.clone(),
        &mult,
        mask.clone(),
        &rbx_device::WorkerPool::new(1),
    );
    let mut z_serial = vec![0.0; n];
    let mut z_overlap = vec![0.0; n];
    schwarz.apply(&r, &mut z_serial, SchwarzMode::Serial, &comm);
    schwarz.apply(&r, &mut z_overlap, SchwarzMode::Overlapped, &comm);
    let fp_serial = fingerprint_f64(&z_serial);
    let fp_overlap = fingerprint_f64(&z_overlap);
    assert_eq!(fp_serial, fp_overlap, "execution modes must agree bitwise");

    // The modelled apply: coarse = restrict → solve → prolong (the helper
    // thread of SchwarzMode::Overlapped), fine = the FDM sweep (the
    // calling thread), combine = gs-average + sum + mask, gated on both.
    let coarse_ref = &coarse;
    let fdm_ref = &fdm;
    let gs_ref = &gs;
    let comm_ref: &dyn Communicator = &comm;
    let rw_ref = &rw;
    let wt_ref = &wt;
    let mask_ref = &mask;

    let report = explore(
        move || {
            let state = ApplyState {
                r_coarse: vec![0.0; nc],
                z0: vec![0.0; nc],
                z_coarse: vec![0.0; n],
                z_fine: vec![0.0; n],
                coarse_done: false,
                fine_done: false,
                z: vec![0.0; n],
            };
            let mut restrict_scratch = rbx_basis::TensorScratch::new();
            let mut prolong_scratch = rbx_basis::TensorScratch::new();
            let coarse_task = ThreadProgram::new("coarse")
                .run(move |s: &mut ApplyState| {
                    coarse_ref.restrict(rw_ref, &mut s.r_coarse, &mut restrict_scratch, comm_ref);
                })
                .run(move |s: &mut ApplyState| {
                    coarse_ref.solve(&s.r_coarse, &mut s.z0, comm_ref);
                })
                .run(move |s: &mut ApplyState| {
                    coarse_ref.prolong_add(&s.z0, &mut s.z_coarse, &mut prolong_scratch);
                    s.coarse_done = true;
                });
            let fine_task = ThreadProgram::new("fine").run(move |s: &mut ApplyState| {
                fdm_ref.apply_add(rw_ref, &mut s.z_fine, 1.0, 0.0);
                s.fine_done = true;
            });
            let combine_task = ThreadProgram::new("combine").step(move |s: &mut ApplyState| {
                if !(s.coarse_done && s.fine_done) {
                    return StepStatus::Blocked; // the scope-join barrier
                }
                for (v, w) in s.z_fine.iter_mut().zip(wt_ref) {
                    *v *= w;
                }
                gs_ref.apply(&mut s.z_fine, GsOp::Add, comm_ref);
                for i in 0..s.z.len() {
                    s.z[i] = s.z_coarse[i] + s.z_fine[i];
                }
                hadamard(mask_ref, &mut s.z);
                StepStatus::Ran
            });
            (state, vec![coarse_task, fine_task, combine_task])
        },
        |s| fingerprint_f64(&s.z),
        10_000,
    );

    // Deadlock-free, exhaustive, and one single outcome…
    assert!(report.is_deterministic(), "{report:?}");
    assert_eq!(report.deadlocks, 0);
    // …over every placement of the fine sweep among the three coarse
    // stages (the combine is pinned last by its guard, so the free choices
    // are the interleavings of 3 coarse steps with 1 fine step).
    assert_eq!(report.schedules as u128, count_interleavings(&[3, 1]));
    // …and that outcome is bitwise what both real execution modes compute.
    assert_eq!(report.outcomes, vec![fp_serial]);
}
