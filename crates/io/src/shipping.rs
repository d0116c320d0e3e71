//! Rank-to-root byte shipping for collective I/O.
//!
//! The paper's runs aggregate field output through a subset of writer
//! ranks. These helpers move serialized byte blobs (BPL payloads,
//! checkpoint sections) across the communicator with the same typed
//! failure behavior as solver traffic: deadline receives, epoch
//! poisoning on failure, and `CommError` instead of panics — so a stalled
//! peer turns an output flush into a recoverable fault, not a hung run.
//!
//! On the production hardened stack the payloads additionally inherit
//! CRC-64 framing, so a corrupted blob is rejected before it reaches a
//! file.

use rbx_comm::{CommError, Communicator, Payload};

/// Tag namespace for shipping traffic, kept clear of solver tags and of
/// the collective range (`rbx_comm::COLLECTIVE_TAG_BASE`).
const TAG_SHIP: u64 = 1 << 52;

/// Gather every rank's byte blob on `root`, in rank order. Non-root
/// ranks get an empty vector.
///
/// On failure the epoch is poisoned (peers blocked in the same gather
/// unwind) and the typed error is returned.
pub fn gather_bytes_to_root(
    comm: &dyn Communicator,
    root: usize,
    mine: &[u8],
) -> Result<Vec<Vec<u8>>, CommError> {
    let size = comm.size();
    if size == 1 {
        return Ok(vec![mine.to_vec()]);
    }
    let timeout = comm.tuning().recv_timeout;
    if comm.rank() == root {
        let mut all = Vec::with_capacity(size);
        for src in 0..size {
            if src == root {
                all.push(mine.to_vec());
                continue;
            }
            match comm
                .recv_deadline(src, TAG_SHIP, timeout)
                .and_then(Payload::try_into_bytes)
            {
                Ok(b) => all.push(b),
                Err(e) => {
                    comm.poison(&e);
                    return Err(e);
                }
            }
        }
        Ok(all)
    } else {
        comm.send(root, TAG_SHIP, Payload::Bytes(mine.to_vec()));
        Ok(Vec::new())
    }
}

/// Broadcast a byte blob from `root` to all ranks (restart manifests,
/// shared headers). Returns the blob on every rank.
pub fn bcast_bytes(
    comm: &dyn Communicator,
    root: usize,
    blob: Vec<u8>,
) -> Result<Vec<u8>, CommError> {
    let mut p = Payload::Bytes(blob);
    comm.try_bcast(root, &mut p)?;
    p.try_into_bytes()
}

/// Encode one in-situ slab body: a step-stamped, named, opaque blob.
///
/// This is the wire schema carried *inside* the CRC-sealed frames of
/// `rbx_comm::slab` (DESIGN.md §16): the channel moves opaque bodies,
/// this layer gives them meaning. Layout (little-endian):
///
/// ```text
/// [step u64][time f64][var_len u16][var utf-8][blob ...]
/// ```
pub fn encode_slab_body(step: u64, time: f64, var: &str, blob: &[u8]) -> Vec<u8> {
    let name = var.as_bytes();
    debug_assert!(name.len() <= u16::MAX as usize, "variable name too long");
    let mut out = Vec::with_capacity(8 + 8 + 2 + name.len() + blob.len());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&time.to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(blob);
    out
}

/// Decode a slab body produced by [`encode_slab_body`]. Malformed input
/// is reported as [`CommError::Protocol`] — the analysis plane counts
/// it and keeps polling; nothing here may panic or poison an epoch.
pub fn decode_slab_body(body: &[u8]) -> Result<(u64, f64, String, Vec<u8>), CommError> {
    let malformed = |detail: &str| CommError::Protocol {
        detail: format!("slab body: {detail}"),
    };
    if body.len() < 8 + 8 + 2 {
        return Err(malformed(&format!("truncated header ({}B)", body.len())));
    }
    let mut u = [0u8; 8];
    u.copy_from_slice(&body[0..8]);
    let step = u64::from_le_bytes(u);
    u.copy_from_slice(&body[8..16]);
    let time = f64::from_le_bytes(u);
    let name_len = u16::from_le_bytes([body[16], body[17]]) as usize;
    if body.len() < 18 + name_len {
        return Err(malformed("name overruns body"));
    }
    let var = std::str::from_utf8(&body[18..18 + name_len])
        .map_err(|_| malformed("variable name is not utf-8"))?
        .to_string();
    Ok((step, time, var, body[18 + name_len..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::{run_on_ranks, run_on_ranks_tuned, CommTuning, HardenedComm};
    use std::time::Duration;

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_on_ranks(4, |c| {
            let mine = vec![c.rank() as u8; c.rank() + 1];
            gather_bytes_to_root(&c, 0, &mine).unwrap()
        });
        assert_eq!(
            out[0],
            vec![vec![0u8; 1], vec![1u8; 2], vec![2u8; 3], vec![3u8; 4]]
        );
        for nonroot in &out[1..] {
            assert!(nonroot.is_empty());
        }
    }

    #[test]
    fn gather_works_over_hardened_framing() {
        let out = run_on_ranks(3, |c| {
            let h = HardenedComm::new(c);
            let mine = vec![0xA0 | h.rank() as u8];
            gather_bytes_to_root(&h, 1, &mine).unwrap()
        });
        assert_eq!(out[1], vec![vec![0xA0], vec![0xA1], vec![0xA2]]);
    }

    #[test]
    fn bcast_round_trips_on_all_ranks() {
        let out = run_on_ranks(3, |c| {
            let blob = if c.rank() == 2 { vec![7, 8, 9] } else { vec![] };
            bcast_bytes(&c, 2, blob).unwrap()
        });
        assert_eq!(out, vec![vec![7, 8, 9]; 3]);
    }

    #[test]
    fn gather_times_out_as_typed_error_when_a_rank_never_sends() {
        let tuning = CommTuning {
            recv_timeout: Duration::from_millis(30),
            retries: 0,
            ..Default::default()
        };
        let out = run_on_ranks_tuned(2, tuning, |c| {
            if c.rank() == 0 {
                // Rank 1 deliberately skips the gather.
                gather_bytes_to_root(&c, 0, &[1, 2]).err().map(|e| e.kind())
            } else {
                None
            }
        });
        assert_eq!(out[0], Some(rbx_comm::CommErrorKind::Timeout));
    }

    #[test]
    fn slab_body_round_trips() {
        let body = encode_slab_body(42, 1.25, "uz", &[9, 8, 7]);
        let (step, time, var, blob) = decode_slab_body(&body).unwrap();
        assert_eq!(step, 42);
        assert_eq!(time, 1.25);
        assert_eq!(var, "uz");
        assert_eq!(blob, vec![9, 8, 7]);
        // Empty blob and empty name are legal.
        let (s, _, v, b) = decode_slab_body(&encode_slab_body(0, 0.0, "", &[])).unwrap();
        assert_eq!((s, v.as_str(), b.len()), (0, "", 0));
    }

    #[test]
    fn malformed_slab_body_is_a_typed_error() {
        assert!(decode_slab_body(&[1, 2, 3]).is_err());
        // Name length field pointing past the end.
        let mut body = encode_slab_body(1, 1.0, "t", &[]);
        body[16] = 0xFF;
        body[17] = 0xFF;
        assert!(decode_slab_body(&body).is_err());
        // Invalid utf-8 in the name.
        let mut body = encode_slab_body(1, 1.0, "ab", &[]);
        body[18] = 0xFF;
        body[19] = 0xFE;
        assert!(decode_slab_body(&body).is_err());
    }

    #[test]
    fn single_rank_shortcuts() {
        let c = rbx_comm::SingleComm::new();
        assert_eq!(
            gather_bytes_to_root(&c, 0, &[5, 5]).unwrap(),
            vec![vec![5, 5]]
        );
        assert_eq!(bcast_bytes(&c, 0, vec![1]).unwrap(), vec![1]);
    }
}
