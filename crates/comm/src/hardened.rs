//! CRC framing, duplicate suppression, in-order resequencing, and
//! deadline/retry receives.
//!
//! [`HardenedComm`] is the production outer layer of the communicator
//! stack. Every outgoing payload is sealed into a CRC-64 frame carrying a
//! per-(dest, tag) sequence number ([`crate::frame`]); every receive
//! verifies the CRC, drops duplicated frames, and buffers out-of-order
//! frames so callers always observe their stream in send order — the
//! MPI-grade matching guarantee, now enforced end-to-end even over a
//! chaos-perturbed transport:
//!
//! * **corruption** → CRC mismatch → [`CommError::Corrupt`], epoch poisoned;
//! * **duplication** → stale sequence number → frame shed silently;
//! * **reordering / short delay** → future frames stashed until the
//!   missing one arrives — healed with no caller-visible effect;
//! * **drop / long delay** → the expected frame never arrives → bounded
//!   retries with exponential backoff, then [`CommError::Timeout`],
//!   epoch poisoned.
//!
//! Sequence state is per epoch: [`Communicator::recover_epoch`] resets
//! both sides' counters, which is sound because the runtime underneath
//! guarantees no frame can cross an epoch boundary (stale-epoch messages
//! are discarded at intake, and chaos-held frames are epoch-checked).

use crate::error::{CommError, CommTuning};
use crate::{frame, Communicator, Payload};
use parking_lot::Mutex;
use rbx_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-stream sequencing state.
#[derive(Default)]
struct SeqState {
    /// Next sequence number to assign, per (dest, tag).
    next_out: HashMap<(usize, u64), u64>,
    /// Next sequence number expected, per (src, tag).
    expected: HashMap<(usize, u64), u64>,
    /// Out-of-order frames parked until their turn, keyed (src, tag, seq).
    stash: HashMap<(usize, u64, u64), Payload>,
}

/// Hardened communicator wrapper: see the module docs.
pub struct HardenedComm<C> {
    inner: C,
    seq: Mutex<SeqState>,
    tel: OnceLock<Telemetry>,
}

impl<C: Communicator> HardenedComm<C> {
    /// Wrap `inner` with framing, dedupe, and deadline/retry receives.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            seq: Mutex::new(SeqState::default()),
            tel: OnceLock::new(),
        }
    }

    /// Attach a telemetry handle (first call wins). Records `comm/recv`
    /// and `comm/retry` spans plus the `rbx_comm_*` counters and the
    /// pending-buffer high-water gauge.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        let _ = self.tel.set(tel.clone());
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    #[inline]
    fn tel(&self) -> Option<&Telemetry> {
        self.tel.get().filter(|t| t.is_enabled())
    }

    fn count(&self, name: &str) {
        if let Some(t) = self.tel() {
            t.counter_add(name, 1);
        }
    }

    /// One receive attempt: pull frames until the expected sequence number
    /// for this stream turns up, stashing futures and shedding stales.
    fn recv_attempt(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        self.recv_framed(src, tag, timeout, false)
    }

    /// Like [`Self::recv_attempt`] but pulling frames through the inner
    /// out-of-band probe, so the shrink protocol's framing survives a
    /// poisoned epoch (an ordinary receive would fail fast on the
    /// sentinel).
    fn probe_attempt(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        self.recv_framed(src, tag, timeout, true)
    }

    // audit:allow(det-wallclock): deadline arithmetic only — the clock bounds the wait, never enters the payload
    fn recv_framed(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
        probe: bool,
    ) -> Result<Payload, CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            let exp = {
                let mut st = self.seq.lock();
                let exp = *st.expected.entry((src, tag)).or_insert(0);
                if let Some(p) = st.stash.remove(&(src, tag, exp)) {
                    st.expected.insert((src, tag), exp + 1);
                    return Ok(p);
                }
                exp
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    src,
                    tag,
                    waited: timeout,
                    retries: 0,
                });
            }
            let raw = if probe {
                self.inner.probe_recv(src, tag, deadline - now)?
            } else {
                self.inner.recv_deadline(src, tag, deadline - now)?
            };
            let (seq, payload) = frame::unseal(raw, src, tag)?;
            let mut st = self.seq.lock();
            if seq < exp {
                // A duplicated (or chaos-replayed) frame: shed it.
                drop(st);
                self.count("rbx_comm_duplicates_total");
                continue;
            }
            if seq == exp {
                st.expected.insert((src, tag), exp + 1);
                return Ok(payload);
            }
            // Future frame — the stream was reordered underneath us. Park
            // it and keep pulling until the missing frame shows up.
            st.stash.insert((src, tag, seq), payload);
            drop(st);
            self.count("rbx_comm_reordered_total");
        }
    }
}

impl<C: Communicator> Communicator for HardenedComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, dest: usize, tag: u64, payload: Payload) {
        let seq = {
            let mut st = self.seq.lock();
            let ctr = st.next_out.entry((dest, tag)).or_insert(0);
            let seq = *ctr;
            *ctr += 1;
            seq
        };
        self.inner.send(dest, tag, frame::seal(&payload, seq));
    }

    fn send_best_effort(&self, dest: usize, tag: u64, payload: Payload) {
        let seq = {
            let mut st = self.seq.lock();
            let ctr = st.next_out.entry((dest, tag)).or_insert(0);
            let seq = *ctr;
            *ctr += 1;
            seq
        };
        self.inner
            .send_best_effort(dest, tag, frame::seal(&payload, seq));
    }

    fn probe_recv(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        // One attempt, no retry escalation, and no poisoning: a silent
        // peer during a shrink probe is the expected outcome, not a fault
        // the rest of the job needs to unwind for.
        self.probe_attempt(src, tag, timeout)
    }

    fn recv(&self, src: usize, tag: u64) -> Payload {
        match self.recv_deadline(src, tag, self.tuning().recv_timeout) {
            Ok(p) => p,
            // audit:allow(no-panic): blocking-recv contract — bounded wait then abort beats an unbounded hang; solver paths use recv_deadline
            Err(e) => panic!("hardened recv(rank {src}, tag {tag}): {e}"),
        }
    }

    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        let _span = self.tel().map(|t| t.span_abs("comm/recv"));
        // Mirror the transport's poison-first discipline: with the epoch
        // poisoned, a stashed future frame must not be handed to a new
        // exchange — it belongs to an abandoned one and is cleared at
        // `recover_epoch`.
        if let Some(e) = self.inner.poisoned() {
            return Err(e);
        }
        let tuning = self.tuning();
        let mut attempt_timeout = timeout;
        let mut waited = Duration::ZERO;
        let mut retries = 0u32;
        loop {
            match self.recv_attempt(src, tag, attempt_timeout) {
                Ok(p) => return Ok(p),
                Err(CommError::Timeout { .. }) if retries < tuning.retries => {
                    waited += attempt_timeout;
                    retries += 1;
                    self.count("rbx_comm_retries_total");
                    let _retry = self.tel().map(|t| t.span_abs("comm/retry"));
                    attempt_timeout = attempt_timeout.mul_f64(tuning.backoff);
                }
                Err(CommError::Timeout { .. }) => {
                    waited += attempt_timeout;
                    self.count("rbx_comm_timeouts_total");
                    let e = CommError::Timeout {
                        src,
                        tag,
                        waited,
                        retries,
                    };
                    // A message the solver needs is not coming: abort the
                    // epoch so every peer unwinds too.
                    self.inner.poison(&e);
                    return Err(e);
                }
                Err(e @ CommError::Corrupt { .. }) => {
                    self.count("rbx_comm_corrupt_detected_total");
                    self.inner.poison(&e);
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
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
        if let Some(t) = self.tel() {
            let _span = t.span_abs("comm/abort");
            t.counter_add("rbx_comm_epoch_aborts_total", 1);
            t.gauge_set(
                "rbx_comm_pending_highwater",
                self.inner.pending_highwater() as f64,
            );
        }
        // Sequence state is per epoch; the runtime guarantees no frame
        // crosses the boundary, so both sides restart from zero in sync.
        {
            let mut st = self.seq.lock();
            st.next_out.clear();
            st.expected.clear();
            st.stash.clear();
        }
        self.inner.recover_epoch()
    }

    fn pending_highwater(&self) -> usize {
        self.inner.pending_highwater()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosComm, CommFaultPlan};
    use crate::{allreduce_scalar, run_on_ranks, run_on_ranks_tuned};

    #[test]
    fn frames_round_trip_transparently() {
        let out = run_on_ranks(2, |c| {
            let h = HardenedComm::new(c);
            let peer = 1 - h.rank();
            h.send(peer, 3, Payload::F64(vec![h.rank() as f64 + 0.5]));
            h.recv(peer, 3).into_f64()[0]
        });
        assert_eq!(out, vec![1.5, 0.5]);
    }

    #[test]
    fn collectives_run_over_framing() {
        let out = run_on_ranks(4, |c| {
            let h = HardenedComm::new(c);
            let s = allreduce_scalar(&h, h.rank() as f64);
            h.barrier();
            let mut p = Payload::U64(vec![h.rank() as u64]);
            h.bcast(2, &mut p);
            (s, p.into_u64()[0])
        });
        assert_eq!(out, vec![(6.0, 2); 4]);
    }

    #[test]
    fn corruption_is_detected_and_typed() {
        let tuning = CommTuning {
            recv_timeout: Duration::from_millis(40),
            retries: 0,
            ..Default::default()
        };
        let out = run_on_ranks_tuned(2, tuning, |c| {
            let h = HardenedComm::new(ChaosComm::new(
                c,
                CommFaultPlan::new(5).corrupt_send_at(0, 0),
            ));
            if h.rank() == 0 {
                h.send(1, 3, Payload::F64(vec![1.0, 2.0]));
                None
            } else {
                Some(
                    h.recv_deadline(0, 3, Duration::from_millis(40))
                        .map(|p| p.into_f64()),
                )
            }
        });
        let r = out[1].as_ref().unwrap();
        assert!(
            matches!(r, Err(CommError::Corrupt { .. })),
            "expected Corrupt, got {r:?}"
        );
    }

    #[test]
    fn duplicates_are_shed() {
        let out = run_on_ranks(2, |c| {
            let h = HardenedComm::new(ChaosComm::new(
                c,
                CommFaultPlan::new(5).duplicate_send_at(0, 0),
            ));
            if h.rank() == 0 {
                h.send(1, 3, Payload::F64(vec![1.0]));
                h.send(1, 3, Payload::F64(vec![2.0]));
                vec![]
            } else {
                // Without dedupe the duplicate of 1.0 would be read here
                // as the second message.
                vec![h.recv(0, 3).into_f64()[0], h.recv(0, 3).into_f64()[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn reordering_is_resequenced() {
        let out = run_on_ranks(2, |c| {
            let h = HardenedComm::new(ChaosComm::new(c, CommFaultPlan::new(5).delay_send_at(0, 0)));
            if h.rank() == 0 {
                h.send(1, 3, Payload::F64(vec![1.0])); // held by chaos
                h.send(1, 3, Payload::F64(vec![2.0])); // arrives first on the wire
                vec![]
            } else {
                // The hardened layer must hand them back in send order.
                vec![h.recv(0, 3).into_f64()[0], h.recv(0, 3).into_f64()[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn drop_poisons_epoch_after_retries() {
        let tuning = CommTuning {
            recv_timeout: Duration::from_millis(10),
            retries: 2,
            backoff: 1.5,
            ..Default::default()
        };
        let out = run_on_ranks_tuned(2, tuning, |c| {
            let h = HardenedComm::new(ChaosComm::new(c, CommFaultPlan::new(5).drop_send_at(0, 0)));
            if h.rank() == 0 {
                h.send(1, 3, Payload::F64(vec![1.0]));
                // Stay alive past rank 1's full retry budget (~50 ms) so
                // its failure is a clean Timeout, not RankUnreachable —
                // and poison nothing ourselves.
                std::thread::sleep(Duration::from_millis(150));
                0
            } else {
                let r = h.recv_deadline(0, 3, Duration::from_millis(10));
                match r {
                    Err(CommError::Timeout { retries, .. }) => {
                        assert_eq!(retries, 2);
                        assert!(h.poisoned().is_some(), "timeout must poison the epoch");
                    }
                    other => panic!("expected timeout, got {other:?}"),
                }
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn chaos_allreduce_recovers_after_epoch_abort() {
        // Full stack: a dropped collective frame aborts the epoch on all
        // ranks; after recover_epoch the same collective succeeds and is
        // bitwise correct.
        let tuning = CommTuning {
            recv_timeout: Duration::from_millis(15),
            retries: 1,
            ..Default::default()
        };
        let out = run_on_ranks_tuned(4, tuning, |c| {
            let h = HardenedComm::new(ChaosComm::new(
                c,
                CommFaultPlan::new(9).drop_send_at(2, 0).max_faults(1),
            ));
            let mut v = [h.rank() as f64 + 1.0];
            let first = h.try_allreduce_sum(&mut v);
            h.recover_epoch();
            let mut v2 = [h.rank() as f64 + 1.0];
            h.try_allreduce_sum(&mut v2)
                .expect("post-recovery allreduce");
            (first.is_err(), v2[0])
        });
        // At least the ranks adjacent to the dropped frame must fail;
        // every rank must succeed after recovery.
        assert!(out.iter().any(|(failed, _)| *failed));
        for (_, v) in out {
            assert_eq!(v, 10.0);
        }
    }

    #[test]
    fn seq_state_resets_with_epoch() {
        let out = run_on_ranks(2, |c| {
            let h = HardenedComm::new(c);
            let peer = 1 - h.rank();
            h.send(peer, 3, Payload::U64(vec![1]));
            let a = h.recv(peer, 3).into_u64()[0];
            h.barrier();
            h.poison(&CommError::Protocol {
                detail: "test".into(),
            });
            h.recover_epoch();
            // New epoch: sequence numbers restart at 0 on both sides.
            h.send(peer, 3, Payload::U64(vec![2]));
            let b = h.recv(peer, 3).into_u64()[0];
            a + b
        });
        assert_eq!(out, vec![3, 3]);
    }
}
