//! # rbx-comm — message-passing runtime
//!
//! The paper's solver distributes elements across MPI ranks (one rank per
//! logical GPU). Supercomputer MPI is not available here, so this crate
//! provides the substitution described in DESIGN.md: a [`Communicator`]
//! trait with the collective and point-to-point operations the solver
//! needs, implemented by
//!
//! * [`SingleComm`] — a one-rank communicator for serial runs,
//! * [`ThreadComm`] — a multi-rank runtime where ranks are OS threads
//!   exchanging messages over crossbeam channels,
//!
//! plus two layering wrappers that turn the runtime into a chaos-testable,
//! fault-surviving stack (DESIGN.md §11):
//!
//! * [`HardenedComm`] — CRC-64 framing, duplicate suppression, and
//!   deadline/retry receives with telemetry, and
//! * [`ChaosComm`] — deterministic seeded message-level fault injection
//!   (drop / delay / duplicate / reorder / corrupt / stall / crash).
//!
//! The production stack is `HardenedComm<ChaosComm<&ThreadComm>>` in chaos
//! runs and `HardenedComm<&ThreadComm>` otherwise; the solver only ever
//! sees `&dyn Communicator`. Collectives are *provided* trait methods
//! built from `send`/`recv_deadline`, so whatever layer is outermost
//! carries — and may fail, retry, or chaos-perturb — all collective
//! traffic too.
//!
//! When any rank times out or detects corruption it **poisons the current
//! communication epoch**: every blocking receive on every rank notices the
//! poison within one poll slice and unwinds with
//! [`CommError::EpochAborted`] instead of deadlocking. Ranks then
//! rendezvous in [`Communicator::recover_epoch`], drain stale traffic, and
//! resume in a fresh epoch (the recovery loop in `rbx-core` rolls the
//! solution state back to a verified checkpoint first).

mod chaos;
mod collective;
pub mod elastic;
mod error;
pub mod frame;
mod hardened;
pub mod integrity;
pub mod oob;
mod single;
pub mod slab;
mod subset;
mod thread;

pub use chaos::{ChaosComm, CommFaultPlan};
pub use error::{CommError, CommErrorKind, CommTuning};
pub use hardened::HardenedComm;
pub use oob::{drain_step_health, send_step_health, StepHealthReport, OBS_HEALTH_TAG};
pub use single::SingleComm;
pub use slab::{
    SlabOffer, SlabPoll, SlabReceiver, SlabReceiverStats, SlabSender, SlabSenderStats,
    SLAB_ACK_TAG, SLAB_DATA_TAG,
};
pub use subset::SubsetComm;
pub use thread::{run_on_ranks, run_on_ranks_tuned, ThreadComm};

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed message payloads exchanged between ranks.
///
/// Solver traffic is `f64` (field data, reduction partials); `u64` carries
/// global ids during gather-scatter setup; `Bytes` serves the I/O layer
/// and the CRC framing of [`frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Double-precision data (field values, residuals, …).
    F64(Vec<f64>),
    /// Unsigned ids (global numbering exchange during setup).
    U64(Vec<u64>),
    /// Raw bytes (serialized I/O buffers, framed traffic).
    Bytes(Vec<u8>),
}

impl Payload {
    /// Borrow as `f64` slice.
    ///
    /// # Panics
    /// Panics if the payload holds a different type. Solver paths use
    /// [`Payload::try_as_f64`] instead.
    pub fn as_f64(&self) -> &[f64] {
        match self.try_as_f64() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Consume into a `f64` vector.
    ///
    /// # Panics
    /// Panics on type mismatch; solver paths use [`Payload::try_into_f64`].
    pub fn into_f64(self) -> Vec<f64> {
        match self.try_into_f64() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Consume into a `u64` vector.
    ///
    /// # Panics
    /// Panics on type mismatch; fallible sites use [`Payload::try_into_u64`].
    pub fn into_u64(self) -> Vec<u64> {
        match self.try_into_u64() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Consume into raw bytes.
    ///
    /// # Panics
    /// Panics on type mismatch; fallible sites use [`Payload::try_into_bytes`].
    pub fn into_bytes(self) -> Vec<u8> {
        match self.try_into_bytes() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Borrow as `f64` slice, reporting type confusion as data.
    pub fn try_as_f64(&self) -> Result<&[f64], CommError> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(CommError::TypeMismatch {
                expected: "F64",
                got: other.kind(),
            }),
        }
    }

    /// Consume into a `f64` vector, reporting type confusion as data.
    pub fn try_into_f64(self) -> Result<Vec<f64>, CommError> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(CommError::TypeMismatch {
                expected: "F64",
                got: other.kind(),
            }),
        }
    }

    /// Consume into a `u64` vector, reporting type confusion as data.
    pub fn try_into_u64(self) -> Result<Vec<u64>, CommError> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(CommError::TypeMismatch {
                expected: "U64",
                got: other.kind(),
            }),
        }
    }

    /// Consume into raw bytes, reporting type confusion as data.
    pub fn try_into_bytes(self) -> Result<Vec<u8>, CommError> {
        match self {
            Payload::Bytes(v) => Ok(v),
            other => Err(CommError::TypeMismatch {
                expected: "Bytes",
                got: other.kind(),
            }),
        }
    }

    /// The payload's type name ("F64" / "U64" / "Bytes").
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
            Payload::Bytes(_) => "Bytes",
        }
    }
}

impl TryFrom<Payload> for Vec<f64> {
    type Error = CommError;
    fn try_from(p: Payload) -> Result<Self, CommError> {
        p.try_into_f64()
    }
}

impl TryFrom<Payload> for Vec<u64> {
    type Error = CommError;
    fn try_from(p: Payload) -> Result<Self, CommError> {
        p.try_into_u64()
    }
}

impl TryFrom<Payload> for Vec<u8> {
    type Error = CommError;
    fn try_from(p: Payload) -> Result<Self, CommError> {
        p.try_into_bytes()
    }
}

/// Tag namespace reserved for internal collective traffic; user tags must
/// stay below this value.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 60;

/// Fill a buffer with NaN — the fail-stop poison value the infallible
/// collective wrappers hand back on communication failure so downstream
/// consumers (Krylov residual checks, the per-step non-finite scan) stop
/// quickly instead of integrating garbage.
pub(crate) fn nan_fill(x: &mut [f64]) {
    for v in x {
        *v = f64::NAN;
    }
}

/// The communication interface the solver is written against.
///
/// Object-safe so that the solver can hold a `&dyn Communicator`; all
/// methods are blocking, mirroring the synchronous MPI calls used in the
/// paper's measurement methodology (`MPI_Wtime` around synchronized
/// regions).
///
/// # Failure model
///
/// The five `try_*` operations plus [`Communicator::recv_deadline`] report
/// faults as typed [`CommError`]s. The classic infallible methods are kept
/// for setup paths and tests; on the hardened runtime their provided
/// implementations degrade gracefully on failure — NaN-filling reduction
/// buffers and latching the error via [`Communicator::set_fault`] — so a
/// wire fault surfaces as a diverged (rollback-able) step, never a panic
/// or a hang.
pub trait Communicator: Send + Sync {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Send a tagged message to `dest` (non-blocking buffered send).
    fn send(&self, dest: usize, tag: u64, payload: Payload);

    /// Receive the next message with tag `tag` from `src` (blocking).
    ///
    /// Legacy interface for setup paths and tests; solver hot paths use
    /// [`Communicator::recv_deadline`] (the rbx-audit `recv-deadline` rule
    /// enforces this).
    fn recv(&self, src: usize, tag: u64) -> Payload;

    /// Receive with a deadline, failing instead of blocking forever.
    ///
    /// Implementations must observe epoch poisoning: once any rank poisons
    /// the epoch, a pending `recv_deadline` on any rank returns
    /// [`CommError::EpochAborted`] promptly (bounded by the poll slice).
    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        let _ = timeout;
        Ok(self.recv(src, tag))
    }

    /// Synchronize all ranks.
    fn barrier(&self) {
        if let Err(e) = self.try_barrier() {
            self.set_fault(e);
        }
    }

    /// Fallible barrier: a message-based dissemination barrier that can be
    /// interrupted by epoch poisoning (a `std::sync::Barrier` cannot).
    fn try_barrier(&self) -> Result<(), CommError> {
        collective::barrier(self)
    }

    /// Element-wise sum-allreduce of a small vector, in place on all ranks.
    ///
    /// On communication failure the buffer is NaN-filled and the error is
    /// latched ([`Communicator::set_fault`]).
    fn allreduce_sum(&self, x: &mut [f64]) {
        if let Err(e) = self.try_allreduce_sum(x) {
            nan_fill(x);
            self.set_fault(e);
        }
    }

    /// Element-wise max-allreduce, in place on all ranks; NaN-fills and
    /// latches on failure.
    fn allreduce_max(&self, x: &mut [f64]) {
        if let Err(e) = self.try_allreduce_max(x) {
            nan_fill(x);
            self.set_fault(e);
        }
    }

    /// Element-wise min-allreduce, in place on all ranks; NaN-fills and
    /// latches on failure.
    fn allreduce_min(&self, x: &mut [f64]) {
        if let Err(e) = self.try_allreduce_min(x) {
            nan_fill(x);
            self.set_fault(e);
        }
    }

    /// Fallible sum-allreduce (rank-ordered recursive doubling; results
    /// are bitwise identical on every rank).
    fn try_allreduce_sum(&self, x: &mut [f64]) -> Result<(), CommError> {
        collective::allreduce(self, x, |a, b| a + b)
    }

    /// Fallible max-allreduce.
    fn try_allreduce_max(&self, x: &mut [f64]) -> Result<(), CommError> {
        collective::allreduce(self, x, f64::max)
    }

    /// Fallible min-allreduce.
    fn try_allreduce_min(&self, x: &mut [f64]) -> Result<(), CommError> {
        collective::allreduce(self, x, f64::min)
    }

    /// Broadcast `x` from `root` to all ranks, in place. Leaves `x`
    /// untouched and latches the error on failure.
    fn bcast(&self, root: usize, x: &mut Payload) {
        if let Err(e) = self.try_bcast(root, x) {
            self.set_fault(e);
        }
    }

    /// Fallible broadcast.
    fn try_bcast(&self, root: usize, x: &mut Payload) -> Result<(), CommError> {
        collective::bcast(self, root, x)
    }

    /// Seconds since the communicator's shared epoch (the `MPI_Wtime`
    /// equivalent used for all measurements).
    fn wtime(&self) -> f64;

    /// Receive-path tuning (deadline, retries, backoff, buffer bound).
    fn tuning(&self) -> CommTuning {
        CommTuning::default()
    }

    /// The current communication epoch (bumped by
    /// [`Communicator::recover_epoch`]).
    fn epoch(&self) -> u64 {
        0
    }

    /// Poison the current epoch: record `reason` (first writer wins) and
    /// make every blocking operation on every rank fail fast with
    /// [`CommError::EpochAborted`].
    fn poison(&self, reason: &CommError) {
        let _ = reason;
    }

    /// The poison reason, if the current epoch is poisoned.
    fn poisoned(&self) -> Option<CommError> {
        None
    }

    /// Latch a rank-local fault for the step-verdict layer (first fault
    /// wins — it is the root cause).
    fn set_fault(&self, e: CommError) {
        let _ = e;
    }

    /// Take (and clear) the rank-local fault latch.
    fn take_fault(&self) -> Option<CommError> {
        None
    }

    /// Collectively leave a poisoned epoch: rendezvous with all ranks,
    /// drain every in-flight and buffered message, clear the poison and
    /// the fault latch, and start a fresh epoch. All ranks must call this
    /// (the recovery loop guarantees it: every rank's step fails once the
    /// epoch is poisoned).
    fn recover_epoch(&self) {}

    /// High-water mark of the pending-message buffer (backpressure
    /// visibility; 0 where unsupported).
    fn pending_highwater(&self) -> usize {
        0
    }

    /// Best-effort send: like [`Communicator::send`], but a dead or
    /// departed peer must **not** poison the epoch. The shrink protocol's
    /// liveness probes and vote rounds talk *at* ranks that may already be
    /// gone; a closed endpoint there is information, not a fault.
    fn send_best_effort(&self, dest: usize, tag: u64, payload: Payload) {
        self.send(dest, tag, payload);
    }

    /// Single-attempt probe receive: one bounded wait, no retries, and —
    /// critically — no epoch poisoning on timeout. Silence from the peer
    /// is the signal the shrink protocol is listening for.
    fn probe_recv(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        self.recv_deadline(src, tag, timeout)
    }
}

/// Forwarding impl so wrapper stacks can borrow the inner runtime
/// (`ChaosComm<&ThreadComm>` inside `run_on_ranks` closures).
impl<C: Communicator + ?Sized> Communicator for &C {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn send(&self, dest: usize, tag: u64, payload: Payload) {
        (**self).send(dest, tag, payload)
    }
    fn recv(&self, src: usize, tag: u64) -> Payload {
        (**self).recv(src, tag)
    }
    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        (**self).recv_deadline(src, tag, timeout)
    }
    fn barrier(&self) {
        (**self).barrier()
    }
    fn try_barrier(&self) -> Result<(), CommError> {
        (**self).try_barrier()
    }
    fn allreduce_sum(&self, x: &mut [f64]) {
        (**self).allreduce_sum(x)
    }
    fn allreduce_max(&self, x: &mut [f64]) {
        (**self).allreduce_max(x)
    }
    fn allreduce_min(&self, x: &mut [f64]) {
        (**self).allreduce_min(x)
    }
    fn try_allreduce_sum(&self, x: &mut [f64]) -> Result<(), CommError> {
        (**self).try_allreduce_sum(x)
    }
    fn try_allreduce_max(&self, x: &mut [f64]) -> Result<(), CommError> {
        (**self).try_allreduce_max(x)
    }
    fn try_allreduce_min(&self, x: &mut [f64]) -> Result<(), CommError> {
        (**self).try_allreduce_min(x)
    }
    fn bcast(&self, root: usize, x: &mut Payload) {
        (**self).bcast(root, x)
    }
    fn try_bcast(&self, root: usize, x: &mut Payload) -> Result<(), CommError> {
        (**self).try_bcast(root, x)
    }
    fn wtime(&self) -> f64 {
        (**self).wtime()
    }
    fn tuning(&self) -> CommTuning {
        (**self).tuning()
    }
    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
    fn poison(&self, reason: &CommError) {
        (**self).poison(reason)
    }
    fn poisoned(&self) -> Option<CommError> {
        (**self).poisoned()
    }
    fn set_fault(&self, e: CommError) {
        (**self).set_fault(e)
    }
    fn take_fault(&self) -> Option<CommError> {
        (**self).take_fault()
    }
    fn recover_epoch(&self) {
        (**self).recover_epoch()
    }
    fn pending_highwater(&self) -> usize {
        (**self).pending_highwater()
    }
    fn send_best_effort(&self, dest: usize, tag: u64, payload: Payload) {
        (**self).send_best_effort(dest, tag, payload)
    }
    fn probe_recv(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        (**self).probe_recv(src, tag, timeout)
    }
}

/// Convenience: sum-allreduce a scalar.
pub fn allreduce_scalar(comm: &dyn Communicator, x: f64) -> f64 {
    let mut buf = [x];
    comm.allreduce_sum(&mut buf);
    buf[0]
}

/// Convenience: max-allreduce a scalar.
pub fn allreduce_scalar_max(comm: &dyn Communicator, x: f64) -> f64 {
    let mut buf = [x];
    comm.allreduce_max(&mut buf);
    buf[0]
}

/// Pairwise symmetric neighbour exchange: send `outgoing[i]` to
/// `neighbors[i]` and receive one message from each, returned in the same
/// neighbour order. The pattern must be symmetric (if a sends to b, b sends
/// to a), which is guaranteed for gather-scatter shared-node traffic.
///
/// # Panics
/// Panics on any communication failure; solver paths use
/// [`try_neighbor_exchange`].
pub fn neighbor_exchange(
    comm: &dyn Communicator,
    tag: u64,
    neighbors: &[usize],
    outgoing: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    match try_neighbor_exchange(comm, tag, neighbors, outgoing) {
        Ok(v) => v,
        Err(e) => panic!("neighbor_exchange failed: {e}"),
    }
}

/// Fallible symmetric neighbour exchange with deadline receives; poisons
/// the epoch on failure so peers unwind too.
pub fn try_neighbor_exchange(
    comm: &dyn Communicator,
    tag: u64,
    neighbors: &[usize],
    outgoing: &[Vec<f64>],
) -> Result<Vec<Vec<f64>>, CommError> {
    if neighbors.len() != outgoing.len() {
        return Err(CommError::Protocol {
            detail: format!(
                "neighbor_exchange: {} neighbors but {} outgoing buffers",
                neighbors.len(),
                outgoing.len()
            ),
        });
    }
    let timeout = comm.tuning().recv_timeout;
    for (&nbr, data) in neighbors.iter().zip(outgoing) {
        comm.send(nbr, tag, Payload::F64(data.clone()));
    }
    let mut incoming = Vec::with_capacity(neighbors.len());
    for &nbr in neighbors {
        match comm
            .recv_deadline(nbr, tag, timeout)
            .and_then(Payload::try_into_f64)
        {
            Ok(v) => incoming.push(v),
            Err(e) => {
                comm.poison(&e);
                return Err(e);
            }
        }
    }
    Ok(incoming)
}

/// Shared epoch helper for `wtime` implementations.
#[derive(Debug, Clone)]
pub struct Epoch(Arc<Instant>);

impl Epoch {
    /// Capture a new epoch (time zero).
    // audit:allow(det-wallclock): epoch feeds `wtime` telemetry only, never solver state or payloads
    pub fn now() -> Self {
        Self(Arc::new(Instant::now()))
    }

    /// Seconds elapsed since the epoch.
    pub fn elapsed(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Self::now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_accessors() {
        let p = Payload::F64(vec![1.0, 2.0]);
        assert_eq!(p.as_f64(), &[1.0, 2.0]);
        assert_eq!(p.into_f64(), vec![1.0, 2.0]);
        assert_eq!(Payload::U64(vec![7]).into_u64(), vec![7]);
        assert_eq!(Payload::Bytes(vec![1, 2]).into_bytes(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn payload_type_mismatch_panics() {
        let _ = Payload::U64(vec![1]).into_f64();
    }

    #[test]
    fn payload_try_accessors_report_type_confusion() {
        assert_eq!(
            Payload::U64(vec![1]).try_into_f64(),
            Err(CommError::TypeMismatch {
                expected: "F64",
                got: "U64"
            })
        );
        assert_eq!(Payload::F64(vec![1.0]).try_as_f64().unwrap(), &[1.0][..]);
        let v: Vec<u64> = Payload::U64(vec![3]).try_into().unwrap();
        assert_eq!(v, vec![3]);
        let r: Result<Vec<u8>, _> = Payload::F64(vec![]).try_into();
        assert!(r.is_err());
    }

    #[test]
    fn epoch_monotone() {
        let e = Epoch::now();
        let a = e.elapsed();
        let b = e.elapsed();
        assert!(b >= a);
    }
}
