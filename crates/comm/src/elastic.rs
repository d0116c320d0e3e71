//! Elastic membership: the shrink protocol that decides which ranks are
//! still alive after a permanent rank death.
//!
//! The recovery runner in `rbx-core` heals transient faults by collective
//! abort and rollback, but a rank that is permanently gone re-fails every
//! retry until the rollback budget is exhausted. The runner then calls
//! [`shrink_vote`], which runs in three phases:
//!
//! 1. **Summon** — the first rank to exhaust its budget installs the
//!    *shrink sentinel*: a distinguished epoch poison ([`SHRINK_REASON`]).
//!    Ranks exhaust their budgets at different times (a local divergence
//!    here, an extra rollback there), and a vote held while a peer is
//!    still mid-rollback would wrongly declare it dead — the sentinel is
//!    what synchronizes entry. Every peer's next communication aborts on
//!    it, the runner recognizes the reason ([`is_shrink_sentinel`]) and
//!    exits its step loop *without* recovering or burning budget, and all
//!    live ranks converge on the protocol within one operation.
//! 2. **Vote** — `agree_on_survivors` runs **under** the poisoned epoch:
//!    best-effort pings ([`Communicator::send_best_effort`]), then a fixed
//!    number of vote rounds exchanging liveness bitmasks through
//!    out-of-band probes ([`Communicator::probe_recv`]) that ignore the
//!    poison — silence never poisons anything, it *is* the signal. A rank
//!    whose own bit drops out of the intersection has been voted dead; it
//!    returns without touching the epoch, and its dropped endpoint vacates
//!    the recovery rendezvous so survivors are never stranded.
//! 3. **Tear down** — survivors clear the sentinel collectively. They
//!    then renumber themselves through a [`crate::SubsetComm`] and the
//!    runner rebuilds the solver on the smaller partition.

use crate::{CommError, Communicator, Payload};
use std::time::Instant;

/// Tag base for shrink-protocol traffic. Each shrink generation gets a
/// disjoint block of 16 tags (1 probe + up to [`VOTE_ROUNDS`] votes), so
/// stragglers from an earlier shrink can never be mistaken for current
/// votes. Distinct from the gather-scatter setup tag (`0x6753`), the
/// checkpoint gather tag (`0x43484b`), and far below the collective tag
/// space (`1 << 60`).
const SHRINK_TAG_BASE: u64 = 0x5348_5250; // "SHRP"

/// Fixed number of vote rounds every participant runs (early exit only on
/// self-eviction). A fixed count keeps all ranks' send/receive schedules
/// aligned without a termination-detection sub-protocol.
const VOTE_ROUNDS: u64 = 4;

/// Bounded retries for the epoch-recovery rendezvous at shrink entry: a
/// generation completed by an *abandonment* elects no leader and leaves
/// the poison set, so one more rendezvous (now with the vacancy counted
/// up front) is needed to clear it.
const MAX_EPOCH_RETRIES: usize = 8;

/// Poison reason announcing a shrink. Installed by the first rank whose
/// rollback budget runs out; every live rank's next communication aborts
/// on it, the recovery runner leaves its step loop immediately on seeing
/// it (no rollback, no budget), and all ranks meet in
/// `agree_on_survivors` while the sentinel keeps ordinary traffic
/// parked. Survivors clear it collectively once the vote concludes.
pub const SHRINK_REASON: &str = "shrink_requested";

/// Is this poison reason the shrink sentinel? [`Communicator::poisoned`]
/// reports the stored reason re-wrapped as [`CommError::EpochAborted`]
/// with a stringified reason, so both shapes must match.
pub fn is_shrink_sentinel(e: &CommError) -> bool {
    match e {
        CommError::Protocol { detail } => detail == SHRINK_REASON,
        CommError::EpochAborted { reason, .. } => reason.contains(SHRINK_REASON),
        _ => false,
    }
}

fn shrink_sentinel() -> CommError {
    CommError::Protocol {
        detail: SHRINK_REASON.to_string(),
    }
}

/// Decide, collectively, which of `live` (global ranks, all < 64) are
/// still alive. The protocol communicates exclusively through best-effort
/// sends and single-attempt probes, which ignore epoch poison, so it runs
/// under the shrink sentinel and can neither hang nor poison.
///
/// Every rank's returned set is consistent with its peers': a rank whose
/// own id is missing from its result has been voted out and must exit.
fn agree_on_survivors(comm: &dyn Communicator, live: &[usize], generation: usize) -> Vec<usize> {
    let me = comm.rank();
    let tuning = comm.tuning();
    // Ranks reach this protocol from very different places — one from
    // its exhausted rollback budget, another dragged out of a pending
    // collective (or even a partnerless epoch-recovery rendezvous) by
    // the shrink sentinel — so protocol entries can be skewed by many
    // receive timeouts. Every probe window must absorb that skew.
    let patience = tuning.recv_timeout.saturating_mul(20);
    let base = SHRINK_TAG_BASE + generation as u64 * 16;

    // Liveness probe: a *fixed-duration* listen window during which we
    // keep re-pinging every peer (one ping per receive-timeout, so a
    // peer that enters the protocol late still finds fresh pings
    // waiting). Every rank sits out the whole window even after hearing
    // all its peers: cutting the window short on full attendance would
    // let a rank whose peers are all chatty race a whole window ahead
    // of one stuck waiting on a mute peer, and the vote rounds below
    // only absorb skews smaller than one window. A peer silent for the
    // whole window is presumed dead.
    let mut mask: u64 = 1 << me;
    let deadline = Instant::now() + patience;
    let mut last_ping: Option<Instant> = None;
    while Instant::now() < deadline {
        if last_ping.is_none_or(|t| t.elapsed() >= tuning.recv_timeout) {
            for &r in live {
                if r != me {
                    comm.send_best_effort(r, base, Payload::U64(vec![me as u64]));
                }
            }
            last_ping = Some(Instant::now());
        }
        for &r in live {
            if r != me && mask & (1 << r) == 0 && comm.probe_recv(r, base, tuning.poll).is_ok() {
                mask |= 1 << r;
            }
        }
        let full: u64 = live.iter().fold(0, |m, &r| m | 1 << r);
        if mask == full {
            // Everyone heard — nothing left to probe, just wait out the
            // window so the vote schedule stays aligned across ranks.
            std::thread::sleep(tuning.poll);
        }
    }

    // Vote rounds: broadcast the local bitmask and intersect what comes
    // back. Votes go to *every* rank in `live` — not just the local mask
    // — so a rank the others stopped hearing still receives the masks
    // that exclude it and learns of its own eviction (otherwise a
    // crashed-sender rank, which hears everyone, would conclude everyone
    // *else* died and continue solo: split-brain). Masks only ever
    // shrink, and channels between live ranks are reliable, so all
    // survivors converge on the same intersection; a peer that times out
    // is treated as dead.
    for round in 0..VOTE_ROUNDS {
        let tag = base + 1 + round;
        for &r in live {
            if r != me {
                comm.send_best_effort(r, tag, Payload::U64(vec![mask]));
            }
        }
        let mut next = mask;
        for &r in live {
            if r == me || mask & (1 << r) == 0 {
                continue;
            }
            match comm.probe_recv(r, tag, patience) {
                Ok(Payload::U64(v)) if !v.is_empty() => next &= v[0],
                _ => next &= !(1 << r),
            }
        }
        mask = next;
        if mask & (1 << me) == 0 {
            // Voted out: stop sending so the survivors' rounds drain
            // cleanly, and let the caller exit this rank.
            break;
        }
    }
    live.iter()
        .copied()
        .filter(|&r| mask & (1 << r) != 0)
        .collect()
}

/// Summon every live rank to the shrink protocol, vote, and — on a
/// surviving rank — tear the sentinel down again. `live` are global ranks
/// of `comm` (all < 64); `generation` counts earlier shrinks of this run.
///
/// Returns the survivors. A result without this rank means it was voted
/// dead: it must exit without touching the epoch (dropping its endpoint
/// abandons the recovery rendezvous, which is what lets the survivors'
/// teardown complete). `None` means the epoch could not be brought to the
/// sentinel or cleared of it within a bounded number of rendezvous.
pub fn shrink_vote(
    comm: &dyn Communicator,
    live: &[usize],
    generation: usize,
) -> Option<Vec<usize>> {
    // Install the sentinel. Peers still mid-step or mid-rollback abort on
    // it, recognize the reason, and arrive here without recovering — so
    // the vote below never runs against a rank that is merely lagging.
    // Any stale fault from the exhausted epoch is cleared collectively
    // first (a recovery rendezvous also pairs with peers' in-rollback
    // recoveries).
    let mut spins = 0usize;
    loop {
        match comm.poisoned() {
            Some(ref e) if is_shrink_sentinel(e) => break,
            Some(_) => comm.recover_epoch(),
            None => comm.poison(&shrink_sentinel()),
        }
        spins += 1;
        if spins > MAX_EPOCH_RETRIES {
            return None;
        }
    }
    // The vote runs *under* the sentinel through out-of-band probes;
    // ordinary traffic stays parked until the survivors tear it down.
    let survivors = agree_on_survivors(comm, live, generation);
    if !survivors.contains(&comm.rank()) {
        return Some(survivors);
    }
    // A generation completed by an evicted rank's abandonment elects no
    // leader and keeps the poison; spin until a live arrival clears it.
    let mut spins = 0usize;
    while comm.poisoned().is_some() {
        comm.recover_epoch();
        spins += 1;
        if spins > live.len() + MAX_EPOCH_RETRIES {
            return None;
        }
    }
    Some(survivors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_on_ranks_tuned, ChaosComm, CommFaultPlan, CommTuning};
    use std::time::Duration;

    fn fast_tuning() -> CommTuning {
        CommTuning {
            recv_timeout: Duration::from_millis(80),
            retries: 0,
            ..Default::default()
        }
    }

    #[test]
    fn all_alive_is_the_identity() {
        let out = run_on_ranks_tuned(3, fast_tuning(), |c| agree_on_survivors(&c, &[0, 1, 2], 0));
        for s in out {
            assert_eq!(s, vec![0, 1, 2]);
        }
    }

    #[test]
    fn exited_rank_is_voted_out() {
        let live = [0usize, 1, 2, 3];
        let out = run_on_ranks_tuned(4, fast_tuning(), move |c| {
            if c.rank() == 3 {
                // Permanent death: this rank never enters the protocol
                // and its endpoint is dropped when the closure returns.
                return None;
            }
            Some(agree_on_survivors(&c, &live, 0))
        });
        for (r, survivors) in out.iter().enumerate().take(3) {
            assert_eq!(*survivors, Some(vec![0, 1, 2]), "rank {r}");
        }
        assert_eq!(out[3], None);
    }

    #[test]
    fn crashed_sender_sees_its_own_eviction() {
        let live = [0usize, 1, 2];
        let out = run_on_ranks_tuned(3, fast_tuning(), move |c| {
            // Rank 2's sends all vanish, but its thread stays alive — the
            // classic silent-death mode the vote rounds exist for.
            let chaos = ChaosComm::new(c, CommFaultPlan::new(5).crash_sends_from(2, 0));
            chaos.set_armed(true);
            agree_on_survivors(&chaos, &live, 0)
        });
        assert_eq!(out[0], vec![0, 1]);
        assert_eq!(out[1], vec![0, 1]);
        assert!(
            !out[2].contains(&2),
            "the dead rank must learn of its own eviction: {:?}",
            out[2]
        );
    }

    #[test]
    fn successive_generations_use_disjoint_tags() {
        // Two consecutive agreements must not cross-talk even when run
        // back-to-back with no epoch recovery in between.
        let out = run_on_ranks_tuned(2, fast_tuning(), |c| {
            let a = agree_on_survivors(&c, &[0, 1], 0);
            let b = agree_on_survivors(&c, &[0, 1], 1);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![0, 1]);
            assert_eq!(b, vec![0, 1]);
        }
    }
}
