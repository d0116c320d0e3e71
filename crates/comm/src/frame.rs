//! CRC-64 payload framing.
//!
//! The hardened communicator seals every payload into a self-checking
//! byte frame before it touches the wire, so in-flight corruption is
//! *detected* (and handled by epoch abort + rollback) instead of being
//! silently integrated into the solution — the failure mode that makes
//! wire corruption so dangerous for a week-long DNS campaign.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [kind u8][seq u64][count u64][data ...][crc64 u64]
//! ```
//!
//! `seq` is a per-(dest, tag) monotone sequence number assigned by the
//! sender; the receiver uses it to discard duplicated frames. The CRC-64
//! ([`crate::integrity`], the checkpoints' checksum) covers everything before
//! it.

use crate::error::CommError;
use crate::integrity::crc64;
use crate::Payload;

const KIND_F64: u8 = 0;
const KIND_U64: u8 = 1;
const KIND_BYTES: u8 = 2;

/// Header (kind, seq, count) and trailer (checksum) bytes of a frame.
const HEADER: usize = 1 + 8 + 8;
const TRAILER: usize = 8;

/// Seal a payload into a CRC-framed byte blob carrying sequence number
/// `seq`.
pub fn seal(payload: &Payload, seq: u64) -> Payload {
    let (kind, count, data_len) = match payload {
        Payload::F64(v) => (KIND_F64, v.len(), v.len() * 8),
        Payload::U64(v) => (KIND_U64, v.len(), v.len() * 8),
        Payload::Bytes(v) => (KIND_BYTES, v.len(), v.len()),
    };
    let mut buf = Vec::with_capacity(HEADER + data_len + TRAILER);
    buf.push(kind);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(count as u64).to_le_bytes());
    match payload {
        Payload::F64(v) => {
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Payload::U64(v) => {
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Payload::Bytes(v) => buf.extend_from_slice(v),
    }
    let crc = crc64(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Payload::Bytes(buf)
}

fn corrupt(src: usize, tag: u64, detail: impl Into<String>) -> CommError {
    CommError::Corrupt {
        src,
        tag,
        detail: detail.into(),
    }
}

/// Unseal a framed blob, verifying the CRC. Returns `(seq, payload)`.
///
/// `src`/`tag` only label the error. A payload that is not `Bytes` — or a
/// frame too short to hold its own header — is reported as corruption:
/// with framing active, *everything* on the wire must be a valid frame.
pub fn unseal(payload: Payload, src: usize, tag: u64) -> Result<(u64, Payload), CommError> {
    let buf = match payload {
        Payload::Bytes(b) => b,
        other => {
            return Err(corrupt(
                src,
                tag,
                format!("expected framed Bytes, got raw {} payload", other.kind()),
            ))
        }
    };
    if buf.len() < HEADER + TRAILER {
        return Err(corrupt(
            src,
            tag,
            format!("truncated frame ({}B)", buf.len()),
        ));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - TRAILER);
    let mut stored = [0u8; TRAILER];
    stored.copy_from_slice(crc_bytes);
    let stored = u64::from_le_bytes(stored);
    let actual = crc64(body);
    if stored != actual {
        return Err(corrupt(
            src,
            tag,
            format!("crc mismatch (stored {stored:#018x}, computed {actual:#018x})"),
        ));
    }
    let kind = body[0];
    let u64_at = |off: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&body[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let seq = u64_at(1);
    let count = u64_at(9) as usize;
    let data = &body[HEADER..];
    let elem = match kind {
        KIND_BYTES => 1,
        KIND_F64 | KIND_U64 => 8,
        other => return Err(corrupt(src, tag, format!("unknown frame kind {other}"))),
    };
    if data.len() != count * elem {
        return Err(corrupt(
            src,
            tag,
            format!(
                "frame length mismatch ({} data bytes for count {count})",
                data.len()
            ),
        ));
    }
    let payload = match kind {
        KIND_F64 => Payload::F64(
            data.chunks_exact(8)
                .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect(),
        ),
        KIND_U64 => Payload::U64(
            data.chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect(),
        ),
        _ => Payload::Bytes(data.to_vec()),
    };
    Ok((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trips_every_kind() {
        for (i, p) in [
            Payload::F64(vec![1.5, -2.25, f64::MIN_POSITIVE]),
            Payload::U64(vec![0, u64::MAX, 42]),
            Payload::Bytes(vec![9, 8, 7]),
            Payload::F64(vec![]),
        ]
        .into_iter()
        .enumerate()
        {
            let sealed = seal(&p, i as u64 + 100);
            let (seq, back) = unseal(sealed, 0, 1).unwrap();
            assert_eq!(seq, i as u64 + 100);
            assert_eq!(back, p);
        }
    }

    #[test]
    fn single_bit_flip_is_detected_anywhere() {
        let sealed = seal(&Payload::F64(vec![1.25, -0.5]), 7);
        let Payload::Bytes(bytes) = sealed else {
            unreachable!()
        };
        for i in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let r = unseal(Payload::Bytes(flipped), 2, 9);
                assert!(r.is_err(), "flip at byte {i} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn unframed_payload_is_corruption() {
        let r = unseal(Payload::F64(vec![1.0]), 0, 0);
        assert!(matches!(r, Err(CommError::Corrupt { .. })));
        let r = unseal(Payload::Bytes(vec![1, 2, 3]), 0, 0);
        assert!(matches!(r, Err(CommError::Corrupt { .. })));
    }
}
