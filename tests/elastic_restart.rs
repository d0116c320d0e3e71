//! Elastic restart: checkpoints are topology-independent, so a run
//! checkpointed at N ranks restores and continues on M ranks — and the
//! physics after the restart is byte-identical to an uninterrupted run at
//! the target rank count. The foundation is the canonical-reduction
//! contract: every global reduction and every gather-scatter combine
//! folds in global-element-id order, so the bits never depend on how
//! elements are distributed (nor, at any pool size, on the thread count).

use rbx::comm::{run_on_ranks, Communicator, SingleComm};
use rbx::core::{read_checkpoint, write_checkpoint, Simulation, SolverConfig};
use rbx::la::SchwarzMode;
use std::path::PathBuf;

fn test_cfg() -> SolverConfig {
    SolverConfig {
        ra: 2e4,
        order: 3,
        dt: 2e-3,
        ic_noise: 1e-2,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbx_elastic_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `steps` steps on `nranks` ranks and return the state fields
/// assembled into global-element order: (t, u0, u1, u2, p).
fn global_run(
    case: &rbx::core::CaseSetup,
    cfg: &SolverConfig,
    nranks: usize,
    steps: usize,
) -> [Vec<f64>; 5] {
    let n_per = (cfg.order + 1).pow(3);
    let nelem = case.mesh.num_elements();
    let mut global: [Vec<f64>; 5] = std::array::from_fn(|_| vec![0.0; nelem * n_per]);
    if nranks == 1 {
        let comm = SingleComm::new();
        let part = vec![0usize; nelem];
        let all: Vec<usize> = (0..nelem).collect();
        let mut sim = Simulation::new(cfg.clone(), &case.mesh, &part, all, &comm);
        sim.init_rbc();
        for _ in 0..steps {
            assert!(sim.step().converged);
        }
        for (f, dst) in [
            &sim.state.t,
            &sim.state.u[0],
            &sim.state.u[1],
            &sim.state.u[2],
            &sim.state.p,
        ]
        .into_iter()
        .zip(global.iter_mut())
        {
            dst.copy_from_slice(f);
        }
        return global;
    }
    let results = run_on_ranks(nranks, move |comm| {
        let mut sim = Simulation::new(
            cfg.clone(),
            &case.mesh,
            &case.part,
            case.elems[comm.rank()].clone(),
            comm,
        );
        sim.init_rbc();
        for _ in 0..steps {
            assert!(sim.step().converged, "rank {}", comm.rank());
        }
        (
            sim.my_elems.clone(),
            [
                sim.state.t.clone(),
                sim.state.u[0].clone(),
                sim.state.u[1].clone(),
                sim.state.u[2].clone(),
                sim.state.p.clone(),
            ],
        )
    });
    for (my, fields) in results {
        for (le, &ge) in my.iter().enumerate() {
            for (f, dst) in fields.iter().zip(global.iter_mut()) {
                dst[ge * n_per..(ge + 1) * n_per].copy_from_slice(&f[le * n_per..(le + 1) * n_per]);
            }
        }
    }
    global
}

fn assert_bitwise(a: &[Vec<f64>; 5], b: &[Vec<f64>; 5], what: &str) {
    let names = ["t", "u0", "u1", "u2", "p"];
    for ((fa, fb), name) in a.iter().zip(b.iter()).zip(names) {
        assert_eq!(fa.len(), fb.len());
        for (i, (x, y)) in fa.iter().zip(fb.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: field {name} differs at {i}: {x:?} vs {y:?}"
            );
        }
    }
}

/// The canonical-reduction contract itself: the same case run on 1, 2 and
/// 4 ranks produces byte-identical fields. Everything else in this file
/// builds on this.
#[test]
fn rank_count_is_bitwise_invisible() {
    let case = rbx::core::rbc_box_case(2.0, 4, 2, false, 4);
    let cfg = test_cfg();
    let steps = 4;
    let r1 = global_run(&case, &cfg, 1, steps);
    let case2 = rbx::core::rbc_box_case(2.0, 4, 2, false, 2);
    let r2 = global_run(&case2, &cfg, 2, steps);
    let r4 = global_run(&case, &cfg, 4, steps);
    assert_bitwise(&r1, &r2, "1 vs 2 ranks");
    assert_bitwise(&r1, &r4, "1 vs 4 ranks");
}

/// Run `k1` steps on `n_src` ranks, checkpoint (topology-free, shared
/// file), restore on `n_dst` ranks, run `k2` more steps there, and return
/// the final fields in global element order.
fn restart_run(
    cfg: &SolverConfig,
    n_src: usize,
    n_dst: usize,
    k1: usize,
    k2: usize,
    chk: &std::path::Path,
) -> [Vec<f64>; 5] {
    let n_per = (cfg.order + 1).pow(3);
    let case_src = rbx::core::rbc_box_case(2.0, 4, 2, false, n_src);
    let cfg_ref = cfg;
    let case_ref = &case_src;
    run_on_ranks(n_src, move |comm| {
        let mut sim = Simulation::new(
            cfg_ref.clone(),
            &case_ref.mesh,
            &case_ref.part,
            case_ref.elems[comm.rank()].clone(),
            comm,
        );
        sim.init_rbc();
        for _ in 0..k1 {
            assert!(sim.step().converged);
        }
        write_checkpoint(&sim, chk).unwrap();
    });

    let case_dst = rbx::core::rbc_box_case(2.0, 4, 2, false, n_dst);
    let nelem = case_dst.mesh.num_elements();
    let mut global: [Vec<f64>; 5] = std::array::from_fn(|_| vec![0.0; nelem * n_per]);
    let case_ref = &case_dst;
    let results = run_on_ranks(n_dst, move |comm| {
        let mut sim = Simulation::new(
            cfg_ref.clone(),
            &case_ref.mesh,
            &case_ref.part,
            case_ref.elems[comm.rank()].clone(),
            comm,
        );
        read_checkpoint(&mut sim, chk).unwrap();
        assert_eq!(sim.state.istep, k1);
        for _ in 0..k2 {
            assert!(sim.step().converged, "rank {}", comm.rank());
        }
        (
            sim.my_elems.clone(),
            [
                sim.state.t.clone(),
                sim.state.u[0].clone(),
                sim.state.u[1].clone(),
                sim.state.u[2].clone(),
                sim.state.p.clone(),
            ],
        )
    });
    for (my, fields) in results {
        for (le, &ge) in my.iter().enumerate() {
            for (f, dst) in fields.iter().zip(global.iter_mut()) {
                dst[ge * n_per..(ge + 1) * n_per].copy_from_slice(&f[le * n_per..(le + 1) * n_per]);
            }
        }
    }
    global
}

/// Shrink restart: checkpoint at 4 ranks, restore and continue on 2. The
/// continued physics must be byte-identical to an uninterrupted 2-rank
/// run — in both Schwarz preconditioner modes.
#[test]
fn four_to_two_restart_is_bitwise() {
    for (mode, tag) in [
        (SchwarzMode::Serial, "serial"),
        (SchwarzMode::Overlapped, "overlapped"),
    ] {
        let cfg = SolverConfig {
            schwarz_mode: mode,
            ..test_cfg()
        };
        let chk = tmpdir(&format!("4to2_{tag}")).join("chk.bpl");
        let restarted = restart_run(&cfg, 4, 2, 3, 3, &chk);
        let case = rbx::core::rbc_box_case(2.0, 4, 2, false, 2);
        let uninterrupted = global_run(&case, &cfg, 2, 6);
        assert_bitwise(&restarted, &uninterrupted, &format!("4→2 restart ({tag})"));
    }
}

/// Grow restart: checkpoint at 2 ranks, restore and continue on 4.
#[test]
fn two_to_four_restart_is_bitwise() {
    for (mode, tag) in [
        (SchwarzMode::Serial, "serial"),
        (SchwarzMode::Overlapped, "overlapped"),
    ] {
        let cfg = SolverConfig {
            schwarz_mode: mode,
            ..test_cfg()
        };
        let chk = tmpdir(&format!("2to4_{tag}")).join("chk.bpl");
        let restarted = restart_run(&cfg, 2, 4, 3, 3, &chk);
        let case = rbx::core::rbc_box_case(2.0, 4, 2, false, 4);
        let uninterrupted = global_run(&case, &cfg, 4, 6);
        assert_bitwise(&restarted, &uninterrupted, &format!("2→4 restart ({tag})"));
    }
}

/// Odd target: restore a 4-rank checkpoint on 7 ranks (non-divisor,
/// non-power-of-two — exercises the repartitioner's general path).
#[test]
fn four_to_seven_restart_is_bitwise() {
    let cfg = test_cfg();
    let chk = tmpdir("4to7").join("chk.bpl");
    let restarted = restart_run(&cfg, 4, 7, 3, 3, &chk);
    let case = rbx::core::rbc_box_case(2.0, 4, 2, false, 7);
    let uninterrupted = global_run(&case, &cfg, 7, 6);
    assert_bitwise(&restarted, &uninterrupted, "4→7 restart");
}
