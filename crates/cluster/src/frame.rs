//! Length-prefixed, checksummed binary frames and the payload codecs
//! used by the cluster wire protocol.
//!
//! A frame is `[u64 LE payload length][payload][u64 LE FNV-1a of payload]`.
//! The text request/response line announces the total frame size as
//! `bytes=<n>`, the peer `read_exact`s that many bytes and [`decode`]
//! re-validates both the inner length and the checksum, so a truncated
//! or corrupted body is detected before any of it is interpreted.
//!
//! Two payload shapes ride inside frames:
//!
//! * **points** — `[u32 dims][u32 0][u64 rows][rows*dims f64 LE]`, the
//!   raw rows of one shard (`SHARDPUT`).
//! * **fold request** — `[u32 dims][u32 0][u64 m][m u64 global ids]
//!   [m*dims f64 LE canonical skyline columns]`, everything a worker
//!   needs to fold its shard against the coordinator's skyline (`FOLD`).
//!
//! `FOLD`/`FETCH` responses carry bare `SKYSIG03` bundles (see
//! `core::minhash::persist`), not frames: a bundle already ends in its
//! own length and checksum (the word-parallel `checksum64`, not the
//! frames' FNV-1a), and its decoder checks both before trusting a word,
//! so a frame around it would only hash it twice.

use std::io;

use skydiver_data::digest::fnv1a64;

/// Hard upper bound on a frame body accepted off the wire (1 GiB).
/// Servers apply their configured `max_frame_bytes` first; this cap is a
/// final allocation guard against a corrupt length prefix.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

const HEADER: usize = 8;
const FOOTER: usize = 8;

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Wrap `payload` in a length+checksum frame ready for the wire.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER + FOOTER);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Validate a frame and return its payload slice.
///
/// Errors if the buffer is shorter than a frame header, the inner length
/// disagrees with the buffer, or the checksum does not match.
pub fn decode(frame: &[u8]) -> io::Result<&[u8]> {
    if frame.len() < HEADER + FOOTER {
        return Err(err(format!("frame too short: {} bytes", frame.len())));
    }
    let len = u64::from_le_bytes(frame[..HEADER].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES || frame.len() != HEADER + len + FOOTER {
        return Err(err(format!(
            "frame length mismatch: header says {len}, body has {}",
            frame.len() - HEADER - FOOTER
        )));
    }
    let payload = &frame[HEADER..HEADER + len];
    let want = u64::from_le_bytes(frame[HEADER + len..].try_into().unwrap());
    if fnv1a64(payload) != want {
        return Err(err("frame checksum mismatch"));
    }
    Ok(payload)
}

fn push_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        // lint: allow(R2) -- O(len) append into a pre-sized
        // buffer; pure encode, no I/O or waiting
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn read_u32(buf: &[u8], at: usize) -> io::Result<u32> {
    buf.get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .ok_or_else(|| err("payload truncated"))
}

fn read_u64(buf: &[u8], at: usize) -> io::Result<u64> {
    buf.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .ok_or_else(|| err("payload truncated"))
}

/// Encode `rows × dims` points (row-major flat) as a points payload.
pub fn encode_points(dims: usize, flat: &[f64]) -> Vec<u8> {
    debug_assert!(dims > 0 && flat.len().is_multiple_of(dims));
    let rows = flat.len() / dims;
    let mut out = Vec::with_capacity(16 + flat.len() * 8);
    out.extend_from_slice(&(dims as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    push_f64s(&mut out, flat);
    out
}

/// Decode a points payload into `(dims, row-major flat coords)`.
pub fn decode_points(payload: &[u8]) -> io::Result<(usize, Vec<f64>)> {
    let dims = read_u32(payload, 0)? as usize;
    let rows = read_u64(payload, 8)? as usize;
    if dims == 0 {
        return Err(err("points payload: zero dims"));
    }
    let want = rows
        .checked_mul(dims)
        .and_then(|c| c.checked_mul(8))
        .and_then(|c| c.checked_add(16))
        .ok_or_else(|| err("points payload: size overflow"))?;
    if payload.len() != want {
        return Err(err(format!(
            "points payload: expected {want} bytes, got {}",
            payload.len()
        )));
    }
    let mut flat = Vec::with_capacity(rows * dims);
    for i in 0..rows * dims {
        // lint: allow(R2) -- bounded by the already length-checked
        // payload; pure decode, caller holds the fan-out deadline
        flat.push(f64::from_bits(read_u64(payload, 16 + i * 8)?));
    }
    Ok((dims, flat))
}

/// Encode a fold request: the global skyline ids and their canonical
/// coordinate columns (`cols[j]` is the `dims`-long column of skyline
/// member `j`, i.e. `m × dims` values row-major by skyline member).
pub fn encode_fold_request(dims: usize, ids: &[usize], cols: &[f64]) -> Vec<u8> {
    debug_assert_eq!(ids.len() * dims, cols.len());
    let mut out = Vec::with_capacity(16 + ids.len() * 8 + cols.len() * 8);
    out.extend_from_slice(&(dims as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    for &id in ids {
        // lint: allow(R2) -- O(m) id serialisation into a
        // pre-sized buffer; pure encode, no I/O or waiting
        out.extend_from_slice(&(id as u64).to_le_bytes());
    }
    push_f64s(&mut out, cols);
    out
}

/// Decode a fold request into `(dims, skyline ids, flat columns)`.
pub fn decode_fold_request(payload: &[u8]) -> io::Result<(usize, Vec<usize>, Vec<f64>)> {
    let dims = read_u32(payload, 0)? as usize;
    let m = read_u64(payload, 8)? as usize;
    if dims == 0 {
        return Err(err("fold request: zero dims"));
    }
    let want = m
        .checked_mul(8 + dims * 8)
        .and_then(|c| c.checked_add(16))
        .ok_or_else(|| err("fold request: size overflow"))?;
    if payload.len() != want {
        return Err(err(format!(
            "fold request: expected {want} bytes, got {}",
            payload.len()
        )));
    }
    let mut ids = Vec::with_capacity(m);
    for j in 0..m {
        // lint: allow(R2) -- bounded by the already length-checked
        // payload; pure decode, caller holds the fan-out deadline
        ids.push(read_u64(payload, 16 + j * 8)? as usize);
    }
    let base = 16 + m * 8;
    let mut cols = Vec::with_capacity(m * dims);
    for i in 0..m * dims {
        // lint: allow(R2) -- bounded by the already length-checked
        // payload; pure decode, caller holds the fan-out deadline
        cols.push(f64::from_bits(read_u64(payload, base + i * 8)?));
    }
    Ok((dims, ids, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_corruption_detection() {
        let payload = b"hello skyline".to_vec();
        let mut frame = encode(&payload);
        assert_eq!(decode(&frame).unwrap(), &payload[..]);
        frame[HEADER + 3] ^= 0x40;
        assert!(decode(&frame).is_err(), "bit flip must fail checksum");
        let short = &encode(&payload)[..HEADER + 4];
        assert!(decode(short).is_err(), "truncation must fail");
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn points_round_trip_preserves_bits() {
        let flat = vec![0.0, -0.0, 1.5, f64::MIN_POSITIVE, -3.25, 9e300];
        let enc = encode_points(3, &flat);
        let (dims, back) = decode_points(&enc).unwrap();
        assert_eq!(dims, 3);
        assert_eq!(back.len(), flat.len());
        for (a, b) in back.iter().zip(&flat) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_points(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn fold_request_round_trip() {
        let ids = vec![3usize, 17, 4096];
        let cols = vec![0.5; 6];
        let enc = encode_fold_request(2, &ids, &cols);
        let (dims, back_ids, back_cols) = decode_fold_request(&enc).unwrap();
        assert_eq!(dims, 2);
        assert_eq!(back_ids, ids);
        assert_eq!(back_cols, cols);
        let mut bad = enc.clone();
        bad.truncate(bad.len() - 8);
        assert!(decode_fold_request(&bad).is_err());
    }

    #[test]
    fn hostile_lengths_do_not_overallocate() {
        // A points header claiming u64::MAX rows must be rejected before
        // any allocation is sized from it.
        let mut p = Vec::new();
        p.extend_from_slice(&8u32.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_points(&p).is_err());
        assert!(decode_fold_request(&p).is_err());
    }
}
