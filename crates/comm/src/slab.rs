//! Best-effort bounded slab channel: solver rank → analysis rank.
//!
//! The in-situ analysis plane (DESIGN.md §16) ships compressed field
//! slabs from solver ranks to dedicated analysis ranks. The one contract
//! that matters more than delivery is that **the solver step loop never
//! blocks on analysis**: a slow, stalled, or dead analysis rank must
//! degrade to drop-with-counter, never to a stall or a poisoned epoch.
//!
//! The channel is built exclusively from the two primitives the shrink
//! protocol already trusts for talking at possibly-dead peers:
//! [`crate::Communicator::send_best_effort`] (a closed endpoint is
//! information, not a fault) and [`crate::Communicator::probe_recv`]
//! (one bounded wait, no retries, no epoch poisoning on silence).
//!
//! Flow control is a credit window over cumulative acks. Every slab body
//! is sealed into a CRC-64 frame ([`crate::frame`]) carrying a
//! per-channel monotone sequence number; the receiver acknowledges the
//! highest sequence it has processed with a tiny best-effort `U64`
//! message. The sender counts in-flight slabs as those sent and not yet
//! covered by an ack; once that reaches the window it *drops* new slabs
//! and counts them (`rbx_insitu_dropped_total`) instead of waiting. A
//! dropped slab still takes its sequence number, so the receiver sees
//! every drop as a gap. Acks are drained
//! with free probes on the offer path plus at most one short bounded
//! probe when the window looks full, so an offer's worst-case cost at a
//! dead peer is a single sub-millisecond wait — never an open-ended
//! block.
//!
//! Degradation ladder (each rung is strictly cheaper than the one
//! above):
//! 1. healthy — every offer is sent, acks keep the window open;
//! 2. slow consumer — the window fills, excess slabs drop with counter;
//! 3. dead consumer — acks stop entirely, the window never reopens, and
//!    after [`SlabSender::STALL_DROPS`] consecutive window-full drops
//!    the sender reports the peer stalled (observability: a critical
//!    health event), while offers keep costing ~zero;
//! 4. corrupt frames — the receiver counts and discards them
//!    (CRC reject), never crossing back into solver state.

use crate::frame;
use crate::{Communicator, Payload};
use rbx_telemetry::Telemetry;
use std::collections::VecDeque;
use std::time::Duration;

/// Tag for framed slab bodies ("SLAB"). Distinct from the shrink block
/// (`0x5348_5250` + 16·generation), the gather-scatter setup tag
/// (`0x6753`), the checkpoint gather tag (`0x43484b`), the step-health
/// tag (`0x4f42_5348`), the shipping tag (`1 << 52`), and far below the
/// collective namespace (`1 << 60`).
pub const SLAB_DATA_TAG: u64 = 0x534c_4142;
/// Tag for cumulative slab acknowledgements (receiver → sender).
pub const SLAB_ACK_TAG: u64 = 0x534c_4143;

/// Body-kind markers inside a sealed slab frame.
const BODY_DATA: u8 = 0;
const BODY_CLOSE: u8 = 1;

/// Outcome of one [`SlabSender::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabOffer {
    /// The slab left on the wire (delivery still best-effort).
    Sent,
    /// The credit window was full: the slab was dropped and counted.
    DroppedFull,
}

/// Counters of one sender-side channel, for telemetry and health feeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabSenderStats {
    /// Slabs handed to the wire.
    pub sent: u64,
    /// Slabs dropped because the window was full.
    pub dropped: u64,
    /// Sent slabs the receiver has acknowledged.
    pub acked: u64,
    /// High-water mark of in-flight (sent, not yet acked) slabs.
    pub inflight_highwater: u64,
    /// Consecutive window-full drops since the last successful send.
    pub consecutive_drops: u64,
}

/// Solver-side endpoint: sequenced, CRC-framed, credit-window bounded,
/// and incapable of blocking the caller.
pub struct SlabSender<'a> {
    comm: &'a dyn Communicator,
    dest: usize,
    window: usize,
    /// Sequence number of the latest offer, sent or dropped.
    next_seq: u64,
    /// Highest sequence number the receiver has acknowledged.
    acked_seq: u64,
    /// Sequence numbers of sent slabs no ack covers yet, oldest first —
    /// never more than `window` of them.
    unacked: VecDeque<u64>,
    stats: SlabSenderStats,
    telemetry: Telemetry,
}

impl<'a> SlabSender<'a> {
    /// Consecutive window-full drops after which the peer is reported
    /// stalled (dead or wedged) by [`SlabSender::is_stalled`].
    pub const STALL_DROPS: u64 = 3;

    /// Bounded wait of the one ack probe allowed when the window looks
    /// full. This is the entire blocking budget of a window-full offer:
    /// at a dead peer each offer costs exactly one such probe, then
    /// drops.
    const ACK_WAIT: Duration = Duration::from_micros(500);

    /// A channel to analysis rank `dest` with room for `window`
    /// unacknowledged slabs.
    pub fn new(comm: &'a dyn Communicator, dest: usize, window: usize) -> Self {
        assert!(window >= 1, "slab window must hold at least one slab");
        Self {
            comm,
            dest,
            window,
            next_seq: 0,
            acked_seq: 0,
            unacked: VecDeque::with_capacity(window),
            stats: SlabSenderStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; drop/sent counters are mirrored into
    /// the metrics registry (`rbx_insitu_*`).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.telemetry = tel.clone();
    }

    /// Drain cumulative acks. The first probe waits up to `first_wait`
    /// (it also services the runtime's inbox, so acks that arrived while
    /// the sender was busy become visible); follow-up probes are free.
    /// Bounded by the window: the receiver acks at most once per slab,
    /// so more probes than in-flight slabs cannot pay off.
    fn drain_acks(&mut self, first_wait: Duration) {
        let mut wait = first_wait;
        for _ in 0..=self.window {
            match self.comm.probe_recv(self.dest, SLAB_ACK_TAG, wait) {
                Ok(Payload::U64(v)) if v.len() == 1 => {
                    self.acked_seq = self.acked_seq.max(v[0]);
                }
                Ok(_) => {} // malformed ack: ignore, the window stays honest
                Err(_) => break,
            }
            wait = Duration::ZERO;
        }
        while self
            .unacked
            .front()
            .is_some_and(|&seq| seq <= self.acked_seq)
        {
            self.unacked.pop_front();
            self.stats.acked += 1;
        }
    }

    fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Offer one slab body. Returns immediately in every peer state:
    /// either the sealed frame went out best-effort, or the window was
    /// full and the slab was dropped and counted.
    pub fn offer(&mut self, body: &[u8]) -> SlabOffer {
        self.drain_acks(Duration::ZERO);
        if self.in_flight() >= self.window {
            // One bounded probe before giving up: acks may be sitting in
            // the inbox a zero-timeout probe cannot service.
            self.drain_acks(Self::ACK_WAIT);
        }
        // The slab's sequence number is spent either way: a dropped one
        // shows up at the receiver as a gap.
        self.next_seq += 1;
        if self.in_flight() >= self.window {
            self.stats.dropped += 1;
            self.stats.consecutive_drops += 1;
            self.telemetry.counter_add("rbx_insitu_dropped_total", 1);
            return SlabOffer::DroppedFull;
        }
        let mut framed = Vec::with_capacity(body.len() + 1);
        framed.push(BODY_DATA);
        framed.extend_from_slice(body);
        let sealed = frame::seal(&Payload::Bytes(framed), self.next_seq);
        self.comm.send_best_effort(self.dest, SLAB_DATA_TAG, sealed);
        self.unacked.push_back(self.next_seq);
        self.stats.sent += 1;
        self.stats.consecutive_drops = 0;
        let in_flight = self.in_flight() as u64;
        self.stats.inflight_highwater = self.stats.inflight_highwater.max(in_flight);
        self.telemetry.counter_add("rbx_insitu_slabs_sent_total", 1);
        self.telemetry.gauge_set(
            "rbx_insitu_queue_highwater",
            self.stats.inflight_highwater as f64,
        );
        SlabOffer::Sent
    }

    /// Announce end-of-stream (best-effort; a dead peer simply never
    /// reads it). Ignores the window: a close must not be droppable by
    /// backpressure, and it carries no field data to stale.
    pub fn close(&mut self) {
        self.next_seq += 1;
        let sealed = frame::seal(&Payload::Bytes(vec![BODY_CLOSE]), self.next_seq);
        self.comm.send_best_effort(self.dest, SLAB_DATA_TAG, sealed);
    }

    /// `true` once [`SlabSender::STALL_DROPS`] consecutive offers
    /// dropped on a full window — the analysis rank is dead or wedged.
    pub fn is_stalled(&self) -> bool {
        self.stats.consecutive_drops >= Self::STALL_DROPS
    }

    /// Sender-side counters.
    pub fn stats(&self) -> SlabSenderStats {
        self.stats
    }
}

/// Counters of one receiver-side channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabReceiverStats {
    /// Slab bodies delivered to the caller.
    pub received: u64,
    /// Frames rejected by the CRC / framing check.
    pub corrupt: u64,
    /// Slabs the sender dropped or the wire lost, observed as sequence
    /// gaps.
    pub gaps: u64,
}

/// One poll of a [`SlabReceiver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlabPoll {
    /// A slab body arrived.
    Body(Vec<u8>),
    /// The sender closed the stream.
    Closed,
    /// Nothing arrived within the poll window.
    Idle,
}

/// Analysis-side endpoint paired with one solver rank's [`SlabSender`].
pub struct SlabReceiver<'a> {
    comm: &'a dyn Communicator,
    src: usize,
    last_seq: u64,
    closed: bool,
    stats: SlabReceiverStats,
}

impl<'a> SlabReceiver<'a> {
    /// A receiver for slabs from solver rank `src`.
    pub fn new(comm: &'a dyn Communicator, src: usize) -> Self {
        Self {
            comm,
            src,
            last_seq: 0,
            closed: false,
            stats: SlabReceiverStats::default(),
        }
    }

    /// Wait up to `timeout` for one slab. Corrupt frames are counted and
    /// reported as [`SlabPoll::Idle`] — the analysis loop just polls
    /// again; nothing on this path can poison the solver's epoch.
    pub fn poll(&mut self, timeout: Duration) -> SlabPoll {
        if self.closed {
            return SlabPoll::Closed;
        }
        let payload = match self.comm.probe_recv(self.src, SLAB_DATA_TAG, timeout) {
            Ok(p) => p,
            Err(_) => return SlabPoll::Idle,
        };
        let (seq, body) = match frame::unseal(payload, self.src, SLAB_DATA_TAG)
            .and_then(|(seq, p)| p.try_into_bytes().map(|b| (seq, b)))
        {
            Ok(v) => v,
            Err(_) => {
                self.stats.corrupt += 1;
                return SlabPoll::Idle;
            }
        };
        if seq > self.last_seq + 1 {
            self.stats.gaps += seq - self.last_seq - 1;
        }
        self.last_seq = self.last_seq.max(seq);
        self.ack();
        match body.split_first() {
            Some((&BODY_DATA, rest)) => {
                self.stats.received += 1;
                SlabPoll::Body(rest.to_vec())
            }
            Some((&BODY_CLOSE, _)) => {
                self.closed = true;
                SlabPoll::Closed
            }
            _ => {
                self.stats.corrupt += 1;
                SlabPoll::Idle
            }
        }
    }

    /// `true` after the sender's close marker arrived.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Global rank of the paired sender.
    pub fn src(&self) -> usize {
        self.src
    }

    fn ack(&mut self) {
        self.comm
            .send_best_effort(self.src, SLAB_ACK_TAG, Payload::U64(vec![self.last_seq]));
    }

    /// Receiver-side counters.
    pub fn stats(&self) -> SlabReceiverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_on_ranks;
    use std::time::Instant;

    fn body(i: u64) -> Vec<u8> {
        let mut v = vec![0xAB; 16];
        v[0] = i as u8;
        v
    }

    #[test]
    fn slabs_flow_and_acks_reopen_the_window() {
        let out = run_on_ranks(2, |c| {
            if c.rank() == 0 {
                let mut tx = SlabSender::new(&c, 1, 2);
                let mut sent = 0u64;
                let mut dropped = 0u64;
                for i in 0..40u64 {
                    match tx.offer(&body(i)) {
                        SlabOffer::Sent => sent += 1,
                        SlabOffer::DroppedFull => {
                            dropped += 1;
                            // Give the consumer a beat, then retry-shaped
                            // traffic continues; the window must reopen.
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                tx.close();
                (sent, dropped, tx.stats().acked)
            } else {
                let mut rx = SlabReceiver::new(&c, 0);
                let mut got = 0u64;
                loop {
                    match rx.poll(Duration::from_millis(100)) {
                        SlabPoll::Body(b) => {
                            assert_eq!(b.len(), 16);
                            got += 1;
                        }
                        SlabPoll::Closed => break,
                        SlabPoll::Idle => {}
                    }
                }
                (got, rx.stats().gaps, rx.stats().corrupt)
            }
        });
        let (sent, dropped, acked) = out[0];
        let (got, gaps, corrupt) = out[1];
        assert!(sent >= 2, "window 2 admits at least two sends, got {sent}");
        assert_eq!(got, sent, "every sent slab arrives on a clean wire");
        assert_eq!(gaps, dropped, "receiver observes exactly the drops as gaps");
        assert_eq!(corrupt, 0);
        assert!(acked > 0, "acks must flow back");
    }

    #[test]
    fn drops_reach_the_receiver_as_gaps() {
        const GO: u64 = 0x474f;
        let out = run_on_ranks(2, |c| {
            if c.rank() == 0 {
                // The receiver is not polling yet: no acks come back, so
                // the window of 2 fills and the other 8 offers drop.
                let mut tx = SlabSender::new(&c, 1, 2);
                for i in 0..10u64 {
                    tx.offer(&body(i));
                }
                tx.close();
                c.send(1, GO, Payload::U64(vec![1]));
                (tx.stats().sent, tx.stats().dropped)
            } else {
                let _ = c.recv(0, GO);
                let mut rx = SlabReceiver::new(&c, 0);
                while rx.poll(Duration::from_millis(100)) != SlabPoll::Closed {}
                (rx.stats().received, rx.stats().gaps)
            }
        });
        assert_eq!(out[0], (2, 8), "(sent, dropped)");
        assert_eq!(out[1], (2, 8), "(received, gaps): every drop is a gap");
    }

    #[test]
    fn dead_receiver_degrades_to_drop_with_counter_without_blocking() {
        let out = run_on_ranks(2, |c| {
            if c.rank() == 0 {
                let mut tx = SlabSender::new(&c, 1, 4);
                let t0 = Instant::now();
                for i in 0..200u64 {
                    tx.offer(&body(i));
                }
                let elapsed = t0.elapsed();
                (tx.stats(), elapsed)
            } else {
                // Dead consumer: never polls, never acks.
                std::thread::sleep(Duration::from_millis(30));
                (SlabSenderStats::default(), Duration::ZERO)
            }
        });
        let (stats, elapsed) = out[0];
        assert_eq!(stats.sent, 4, "exactly the window goes out");
        assert_eq!(stats.dropped, 196, "the rest drop with counter");
        assert!(stats.consecutive_drops >= SlabSender::STALL_DROPS);
        assert!(
            elapsed < Duration::from_secs(2),
            "200 offers at a dead peer took {elapsed:?} — the offer path must not block"
        );
    }

    #[test]
    fn corrupt_frame_is_counted_and_skipped() {
        let out = run_on_ranks(2, |c| {
            if c.rank() == 0 {
                // A raw (unframed) payload and a bit-flipped frame, then a
                // good slab and a close.
                c.send_best_effort(1, SLAB_DATA_TAG, Payload::F64(vec![1.0]));
                let sealed = frame::seal(&Payload::Bytes(vec![BODY_DATA, 7]), 1);
                let mut bytes = sealed.into_bytes();
                bytes[2] ^= 0x40;
                c.send_best_effort(1, SLAB_DATA_TAG, Payload::Bytes(bytes));
                let mut tx = SlabSender::new(&c, 1, 2);
                tx.offer(&[9, 9]);
                tx.close();
                (0, 0)
            } else {
                let mut rx = SlabReceiver::new(&c, 0);
                let mut got = 0;
                loop {
                    match rx.poll(Duration::from_millis(100)) {
                        SlabPoll::Body(_) => got += 1,
                        SlabPoll::Closed => break,
                        SlabPoll::Idle => {}
                    }
                }
                (got, rx.stats().corrupt)
            }
        });
        assert_eq!(out[1].0, 1, "the good slab still arrives");
        assert_eq!(out[1].1, 2, "both bad frames counted as corrupt");
    }

    #[test]
    fn stall_flag_latches_after_consecutive_drops() {
        let out = run_on_ranks(2, |c| {
            if c.rank() == 0 {
                let mut tx = SlabSender::new(&c, 1, 1);
                tx.offer(&[1]);
                assert!(!tx.is_stalled());
                for _ in 0..SlabSender::STALL_DROPS {
                    assert_eq!(tx.offer(&[2]), SlabOffer::DroppedFull);
                }
                tx.is_stalled()
            } else {
                std::thread::sleep(Duration::from_millis(20));
                false
            }
        });
        assert!(
            out[0],
            "stall must latch after consecutive full-window drops"
        );
    }
}
