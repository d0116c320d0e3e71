//! Out-of-band step-health reporting: rank → rank 0, off the hot path.
//!
//! The observability plane wants rank 0 to see every rank's per-step
//! wall time while the run is alive (the cross-rank imbalance detector
//! folds them) — without adding a collective to the step loop. The
//! primitives the shrink protocol already trusts fit exactly:
//! [`crate::Communicator::send_best_effort`] (a dead aggregator must not
//! poison the epoch) and [`crate::Communicator::probe_recv`] (rank 0
//! drains with single-attempt bounded probes; silence just means no
//! report yet). No handshake, no barrier, no backpressure on producers.

use crate::{Communicator, Payload};
use std::time::Duration;

/// Tag for out-of-band step-health reports. Distinct from the shrink
/// protocol block (`0x5348_5250` + 16·generation), the gather-scatter
/// setup tag (`0x6753`), the checkpoint gather tag (`0x43484b`), and far
/// below the collective tag space (`1 << 60`).
pub const OBS_HEALTH_TAG: u64 = 0x4f42_5348; // "OBSH"

/// Cap on reports drained from one peer per [`drain_step_health`] call,
/// so a burst (or a bug) can never wedge rank 0 in the drain loop.
const MAX_DRAIN_PER_PEER: usize = 64;

/// One rank's vitals for one completed step, shipped to rank 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepHealthReport {
    /// Reporting rank (communicator rank, not global).
    pub rank: usize,
    /// Step the report describes.
    pub step: u64,
    /// Wall-clock seconds of the step.
    pub wall_s: f64,
}

impl StepHealthReport {
    /// Flatten into the wire payload (an `F64` vector — every field is
    /// exactly representable: ranks and steps stay far below 2^53).
    pub fn to_payload(&self) -> Payload {
        Payload::F64(vec![self.rank as f64, self.step as f64, self.wall_s])
    }

    /// Parse a wire payload; `None` for anything malformed (a stray or
    /// corrupt frame on the tag must not take down the aggregator).
    pub fn from_payload(p: &Payload) -> Option<Self> {
        let v = match p {
            Payload::F64(v) if v.len() == 3 => v,
            _ => return None,
        };
        if v[..2].iter().any(|x| !x.is_finite() || *x < 0.0) {
            return None;
        }
        Some(Self {
            rank: v[0] as usize,
            step: v[1] as u64,
            wall_s: v[2],
        })
    }
}

/// Fire-and-forget a report at rank 0. Safe to call from any rank at any
/// step; rank 0's own reports short-circuit locally through the same
/// drain path (no self-send).
pub fn send_step_health(comm: &dyn Communicator, report: &StepHealthReport) {
    if comm.rank() == 0 {
        return;
    }
    comm.send_best_effort(0, OBS_HEALTH_TAG, report.to_payload());
}

/// Rank 0: drain every report currently queued from every peer. Each
/// probe waits at most `poll`; a silent peer costs one timeout and is
/// skipped — this never blocks the caller on a slow or dead rank.
/// Returns reports in (rank, arrival) order.
pub fn drain_step_health(comm: &dyn Communicator, poll: Duration) -> Vec<StepHealthReport> {
    let mut out = Vec::new();
    if comm.rank() != 0 {
        return out;
    }
    for src in 1..comm.size() {
        for _ in 0..MAX_DRAIN_PER_PEER {
            match comm.probe_recv(src, OBS_HEALTH_TAG, poll) {
                Ok(p) => {
                    if let Some(r) = StepHealthReport::from_payload(&p) {
                        out.push(r);
                    }
                }
                Err(_) => break,
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_on_ranks;

    fn report(rank: usize, step: u64) -> StepHealthReport {
        StepHealthReport {
            rank,
            step,
            wall_s: 0.031,
        }
    }

    #[test]
    fn payload_roundtrip() {
        let r = report(3, 99);
        assert_eq!(StepHealthReport::from_payload(&r.to_payload()), Some(r));
        assert_eq!(r.to_payload(), Payload::F64(vec![3.0, 99.0, 0.031]));
        assert!(StepHealthReport::from_payload(&Payload::F64(vec![1.0])).is_none());
        // A six-value payload (the older wire format) is rejected, not misread.
        assert!(StepHealthReport::from_payload(&Payload::F64(vec![1.; 6])).is_none());
        assert!(StepHealthReport::from_payload(&Payload::U64(vec![1, 2, 3])).is_none());
        assert!(StepHealthReport::from_payload(&Payload::F64(vec![f64::NAN, 1., 1.])).is_none());
    }

    #[test]
    fn reports_reach_rank_zero() {
        let out = run_on_ranks(4, |c| {
            for step in 1..=3u64 {
                send_step_health(&c, &report(c.rank(), step));
            }
            if c.rank() == 0 {
                // Peers may still be sending; drain until three rounds
                // come up empty.
                let mut got = Vec::new();
                let mut dry = 0;
                while dry < 3 && got.len() < 9 {
                    let batch = drain_step_health(&c, Duration::from_millis(20));
                    if batch.is_empty() {
                        dry += 1;
                    } else {
                        dry = 0;
                        got.extend(batch);
                    }
                }
                got
            } else {
                Vec::new()
            }
        });
        let got = &out[0];
        assert_eq!(got.len(), 9, "{got:?}");
        for rank in 1..4 {
            for step in 1..=3u64 {
                assert!(
                    got.iter().any(|r| r.rank == rank && r.step == step),
                    "missing report rank {rank} step {step}: {got:?}"
                );
            }
        }
        assert!(out[1].is_empty() && out[2].is_empty() && out[3].is_empty());
    }

    #[test]
    fn drain_on_nonzero_rank_is_empty() {
        let out = run_on_ranks(2, |c| {
            if c.rank() == 1 {
                drain_step_health(&c, Duration::from_millis(5)).len()
            } else {
                0
            }
        });
        assert_eq!(out, vec![0, 0]);
    }
}
