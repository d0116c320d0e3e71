//! Thread-count independence of the pooled runtime: a full RBC time loop
//! driven through the persistent worker pool must produce **bitwise
//! identical** fields for every pool size. This is the end-to-end version
//! of the per-kernel determinism unit tests — it exercises the pooled
//! Helmholtz applies inside PCG/FGMRES, the deterministic pooled dot
//! products, the pooled dealiased advection, the pooled element-FDM
//! Schwarz fine level (in both Serial and Overlapped composition), and
//! the pooled gather-scatter local phases, all composed over several
//! steps of the real time integrator.
//!
//! The contract (DESIGN.md §10): each element/group is reduced in index
//! order on a single worker, and global sums fold per-element partials in
//! global element order — so neither the schedule nor the partition leaks
//! into the floating-point result.

use rbx::comm::{run_on_ranks, Communicator, SingleComm};
use rbx::core::{Simulation, SolverConfig};
use rbx::device::WorkerPool;
use rbx::la::SchwarzMode;

/// Run `steps` steps on `nranks` ranks (one `SingleComm` rank, or
/// `ThreadComm` ranks), each rank on its own pool of `threads`, and return
/// `(uz, p, t)` assembled in global element order.
fn run_steps(
    mode: SchwarzMode,
    threads: usize,
    nranks: usize,
    steps: usize,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let case = rbx::core::rbc_box_case(2.0, 3, 2, false, nranks);
    let cfg = SolverConfig {
        ra: 2e4,
        order: 4,
        dt: 2e-3,
        ic_noise: 1e-2,
        schwarz_mode: mode,
        ..Default::default()
    };
    let rank_run = |comm: &dyn Communicator| {
        let my = case.elems[comm.rank()].clone();
        let mut sim = Simulation::new(cfg.clone(), &case.mesh, &case.part, my, comm);
        let pool = WorkerPool::new(threads);
        sim.set_pool(&pool);
        sim.init_rbc();
        for s in 0..steps {
            let st = sim.step();
            assert!(
                st.converged,
                "threads={threads} ranks={nranks} step={s}: {st:?}"
            );
        }
        let fields = [
            sim.state.u[2].clone(),
            sim.state.p.clone(),
            sim.state.t.clone(),
        ];
        (sim.my_elems.clone(), fields)
    };
    let per_rank = if nranks == 1 {
        vec![rank_run(&SingleComm::new())]
    } else {
        run_on_ranks(nranks, |comm| rank_run(comm))
    };
    let n_per = (cfg.order + 1).pow(3);
    let mut global: [Vec<f64>; 3] =
        std::array::from_fn(|_| vec![0.0; case.mesh.num_elements() * n_per]);
    for (my, fields) in per_rank {
        for (le, &ge) in my.iter().enumerate() {
            for (f, dst) in fields.iter().zip(global.iter_mut()) {
                dst[ge * n_per..(ge + 1) * n_per].copy_from_slice(&f[le * n_per..(le + 1) * n_per]);
            }
        }
    }
    let [uz, p, t] = global;
    (uz, p, t)
}

fn assert_bitwise(label: &str, threads: usize, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}[{i}] differs at {threads} threads: {x:e} vs {y:e}"
        );
    }
}

#[test]
fn full_steps_bitwise_identical_across_pool_sizes() {
    for mode in [SchwarzMode::Serial, SchwarzMode::Overlapped] {
        let (uz1, p1, t1) = run_steps(mode, 1, 1, 4);
        for threads in [4usize, 7] {
            let (uz, p, t) = run_steps(mode, threads, 1, 4);
            assert_bitwise("uz", threads, &uz1, &uz);
            assert_bitwise("p", threads, &p1, &p);
            assert_bitwise("t", threads, &t1, &t);
        }
    }
}

/// The joint contract: thread count and rank count together are invisible
/// in the bits. Two `ThreadComm` ranks with two pool threads each must
/// reproduce a one-rank, one-thread run exactly — every reduction folds
/// per-element partials in global element order, whatever the partition
/// and the schedule.
#[test]
fn two_ranks_by_two_threads_match_one_rank_one_thread() {
    for mode in [SchwarzMode::Serial, SchwarzMode::Overlapped] {
        let (uz1, p1, t1) = run_steps(mode, 1, 1, 3);
        let (uz, p, t) = run_steps(mode, 2, 2, 3);
        let label = format!("{mode:?} 2 ranks x 2");
        assert_bitwise(&format!("{label} uz"), 2, &uz1, &uz);
        assert_bitwise(&format!("{label} p"), 2, &p1, &p);
        assert_bitwise(&format!("{label} t"), 2, &t1, &t);
    }
}
