//! A counting and timing [`Communicator`] wrapper for the traced run.
//!
//! Every call is forwarded to the wrapped communicator unchanged —
//! collectives included, so the reduction algorithm, and therefore every
//! bit of the result, is the wrapped communicator's own. The wrapper only
//! counts and times on the way through:
//!
//! * `allreduces` — calls to any allreduce (on one rank these are the
//!   solver's synchronisation points even though no message moves);
//! * `msgs` / `bytes` — point-to-point sends the program makes itself
//!   (gather-scatter shared phase, checkpoint gather). Messages inside a
//!   collective are the wrapped communicator's business and are counted
//!   as the collective, not as messages;
//! * `wait` — time blocked in receives, barriers, broadcasts and
//!   allreduces.

use rbx::comm::{CommError, CommTuning, Communicator, Payload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounts {
    /// Allreduce calls (sum, max or min).
    pub allreduces: u64,
    /// Point-to-point messages sent.
    pub msgs: u64,
    /// Payload bytes of those messages.
    pub bytes: u64,
    /// Nanoseconds blocked in receives and collectives.
    pub wait_ns: u64,
}

impl CommCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &CommCounts) -> CommCounts {
        CommCounts {
            allreduces: self.allreduces - earlier.allreduces,
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            wait_ns: self.wait_ns - earlier.wait_ns,
        }
    }
}

/// Forwarding communicator that counts and times what passes through.
pub struct CountingComm<'a> {
    inner: &'a dyn Communicator,
    // Statistics only: Relaxed, they publish no other data.
    allreduces: AtomicU64,
    msgs: AtomicU64,
    bytes: AtomicU64,
    wait_ns: AtomicU64,
}

fn payload_bytes(p: &Payload) -> u64 {
    let n = match p {
        Payload::F64(v) => v.len() * 8,
        Payload::U64(v) => v.len() * 8,
        Payload::Bytes(v) => v.len(),
    };
    n as u64
}

impl<'a> CountingComm<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn Communicator) -> Self {
        Self {
            inner,
            allreduces: AtomicU64::new(0),
            msgs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        }
    }

    /// Current counter values.
    pub fn counts(&self) -> CommCounts {
        CommCounts {
            allreduces: self.allreduces.load(Ordering::Relaxed),
            msgs: self.msgs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
        }
    }

    fn waited<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn reduced<T>(&self, f: impl FnOnce() -> T) -> T {
        self.allreduces.fetch_add(1, Ordering::Relaxed);
        self.waited(f)
    }

    fn sent(&self, p: &Payload) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes(p), Ordering::Relaxed);
    }
}

impl Communicator for CountingComm<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn send(&self, dest: usize, tag: u64, payload: Payload) {
        self.sent(&payload);
        self.inner.send(dest, tag, payload)
    }
    fn recv(&self, src: usize, tag: u64) -> Payload {
        self.waited(|| self.inner.recv(src, tag))
    }
    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        self.waited(|| self.inner.recv_deadline(src, tag, timeout))
    }
    fn barrier(&self) {
        self.waited(|| self.inner.barrier())
    }
    fn try_barrier(&self) -> Result<(), CommError> {
        self.waited(|| self.inner.try_barrier())
    }
    fn allreduce_sum(&self, x: &mut [f64]) {
        self.reduced(|| self.inner.allreduce_sum(x))
    }
    fn allreduce_max(&self, x: &mut [f64]) {
        self.reduced(|| self.inner.allreduce_max(x))
    }
    fn allreduce_min(&self, x: &mut [f64]) {
        self.reduced(|| self.inner.allreduce_min(x))
    }
    fn try_allreduce_sum(&self, x: &mut [f64]) -> Result<(), CommError> {
        self.reduced(|| self.inner.try_allreduce_sum(x))
    }
    fn try_allreduce_max(&self, x: &mut [f64]) -> Result<(), CommError> {
        self.reduced(|| self.inner.try_allreduce_max(x))
    }
    fn try_allreduce_min(&self, x: &mut [f64]) -> Result<(), CommError> {
        self.reduced(|| self.inner.try_allreduce_min(x))
    }
    fn bcast(&self, root: usize, x: &mut Payload) {
        self.waited(|| self.inner.bcast(root, x))
    }
    fn try_bcast(&self, root: usize, x: &mut Payload) -> Result<(), CommError> {
        self.waited(|| self.inner.try_bcast(root, x))
    }
    fn wtime(&self) -> f64 {
        self.inner.wtime()
    }
    fn tuning(&self) -> CommTuning {
        self.inner.tuning()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn poison(&self, reason: &CommError) {
        self.inner.poison(reason)
    }
    fn poisoned(&self) -> Option<CommError> {
        self.inner.poisoned()
    }
    fn set_fault(&self, e: CommError) {
        self.inner.set_fault(e)
    }
    fn take_fault(&self) -> Option<CommError> {
        self.inner.take_fault()
    }
    fn recover_epoch(&self) {
        self.inner.recover_epoch()
    }
    fn pending_highwater(&self) -> usize {
        self.inner.pending_highwater()
    }
    fn send_best_effort(&self, dest: usize, tag: u64, payload: Payload) {
        self.sent(&payload);
        self.inner.send_best_effort(dest, tag, payload)
    }
    fn probe_recv(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        self.waited(|| self.inner.probe_recv(src, tag, timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx::comm::{run_on_ranks, SingleComm};
    use rbx::core::{Simulation, SolverConfig};

    /// A few pooled steps of a tiny box on `comm`, as the benchmark runs
    /// them; returns every primary field.
    fn tiny_run(comm: &dyn Communicator, nranks: usize) -> Vec<Vec<f64>> {
        let case = rbx::core::rbc_box_case(1.0, 2, 2, false, nranks);
        let cfg = SolverConfig {
            ra: 1e4,
            order: 3,
            dt: 2e-3,
            ic_noise: 0.05,
            ..Default::default()
        };
        let elems = case.elems[comm.rank()].clone();
        let mut sim = Simulation::new(cfg, &case.mesh, &case.part, elems, comm);
        sim.set_pool(&rbx::device::WorkerPool::new(1));
        sim.init_rbc();
        for _ in 0..4 {
            assert!(sim.step().converged);
        }
        let s = &sim.state;
        vec![
            s.u[0].clone(),
            s.u[1].clone(),
            s.u[2].clone(),
            s.p.clone(),
            s.t.clone(),
        ]
    }

    fn bits(fields: &[Vec<f64>]) -> Vec<Vec<u64>> {
        fields
            .iter()
            .map(|f| f.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn wrapper_is_bit_identical_on_one_rank() {
        let single = SingleComm::new();
        let plain = tiny_run(&single, 1);
        let counting = CountingComm::new(&single);
        let wrapped = tiny_run(&counting, 1);
        assert_eq!(bits(&plain), bits(&wrapped));
        let c = counting.counts();
        assert!(
            c.allreduces > 0,
            "dot products synchronise even on one rank"
        );
        assert_eq!(c.msgs, 0);
        assert_eq!(c.bytes, 0);
    }

    #[test]
    fn wrapper_is_bit_identical_on_two_ranks() {
        let plain = run_on_ranks(2, |c| tiny_run(c, 2));
        let wrapped = run_on_ranks(2, |c| {
            let counting = CountingComm::new(c);
            let out = tiny_run(&counting, 2);
            (out, counting.counts())
        });
        for (p, (w, counts)) in plain.iter().zip(&wrapped) {
            assert_eq!(bits(p), bits(w));
            assert!(counts.allreduces > 0);
            assert!(counts.msgs > 0, "the shared gather-scatter phase sends");
            assert!(counts.bytes >= 8 * counts.msgs);
        }
    }
}
