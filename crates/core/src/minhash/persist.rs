//! Persistence of fingerprints: the `SKYSIG02` bundle.
//!
//! Fingerprinting is the expensive phase (one pass over the data);
//! selection is `O(k²m)` and cheap. Persisting a fold lets a user
//! fingerprint once and re-run selection for many `k`, thresholds, or
//! LSH configurations — without touching the data again. One format
//! serves every artefact: a bundle holds one [`ShardFingerprint`]
//! (column ids + fold + rows consumed), and a whole-dataset fingerprint
//! is simply a one-shard bundle whose columns are the skyline ids. The
//! layout is little-endian:
//!
//! * a header of magic, four caller-owned key tags, `t`, `m` and rows
//!   consumed. The serving layer binds dataset content hash, shard id,
//!   preference hash and seed into the tags, so a renamed or stale file
//!   can never masquerade as another key; the CLI's whole-dataset
//!   bundle carries the hash seed in the same last slot;
//! * `m` column ids, `t × m` column-major slots and `m` scores;
//! * a length-and-checksum footer (FNV-1a 64 over everything before
//!   it), so torn writes, truncation and bit rot are detected before a
//!   single word is trusted.
//!
//! The decoder bounds-checks every header count against the actual
//! bundle size *before* allocating, so a hostile or truncated header
//! cannot trigger an unbounded `t·m` allocation.

use std::io;
use std::path::Path;

use skydiver_data::fnv::fnv1a64;

use super::{ShardFingerprint, SignatureAccumulator, SignatureMatrix};

const MAGIC: &[u8; 8] = b"SKYSIG02";

/// Fixed byte sizes of the `SKYSIG02` layout: magic + 4 key tags +
/// t + m + rows_consumed, and the length + checksum footer.
const HEADER: u64 = 8 + 4 * 8 + 3 * 8;
const FOOTER: u64 = 2 * 8;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The exact on-disk size of a `SKYSIG02` bundle with the given shape,
/// or `None` on arithmetic overflow.
fn expected_len(t: u64, m: u64) -> Option<u64> {
    // header + m column ids + t*m matrix words + m score words + footer.
    let words = t.checked_mul(m)?.checked_add(m.checked_mul(2)?)?;
    words
        .checked_mul(8)?
        .checked_add(HEADER)?
        .checked_add(FOOTER)
}

/// Encodes one shard's complete fold as a `SKYSIG02` bundle.
///
/// `tags` are four caller-owned key words written into the header and
/// returned verbatim by [`decode_shard_signatures`] — the serving layer
/// binds `(dataset content hash, shard id, preference hash, seed)` so a
/// renamed or stale artefact fails key verification instead of being
/// served. The bundle ends in a length + FNV-1a 64 checksum footer.
pub fn encode_shard_signatures(fp: &ShardFingerprint, tags: &[u64; 4]) -> Vec<u8> {
    let (t, m) = (fp.acc.t(), fp.acc.m());
    let len = expected_len(t as u64, m as u64).unwrap_or(HEADER + FOOTER);
    let mut out = Vec::with_capacity(len as usize);
    out.extend_from_slice(MAGIC);
    for &tag in tags {
        // lint: allow(R2) -- four fixed header words, no data scan
        out.extend_from_slice(&tag.to_le_bytes());
    }
    out.extend_from_slice(&(t as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&(fp.acc.rows_consumed as u64).to_le_bytes());
    for &c in &fp.columns {
        // lint: allow(R2) -- serialises the already-computed fold;
        // compute-phase budgets were charged when it was built
        out.extend_from_slice(&(c as u64).to_le_bytes());
    }
    for j in 0..m {
        // lint: allow(R2) -- same already-computed t*m bundle
        for &slot in fp.acc.matrix.column(j) {
            out.extend_from_slice(&slot.to_le_bytes());
        }
    }
    for &s in &fp.acc.scores {
        // lint: allow(R2) -- m score words, same bundle
        out.extend_from_slice(&s.to_le_bytes());
    }
    let payload_len = out.len() as u64;
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b8 = [0u8; 8];
    b8.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b8)
}

/// Decodes a `SKYSIG02` bundle, verifying magic, shape-vs-length,
/// footer length and checksum before trusting a single word. Returns
/// the fold and the caller's key tags.
pub fn decode_shard_signatures(bytes: &[u8]) -> io::Result<(ShardFingerprint, [u64; 4])> {
    let total = bytes.len() as u64;
    if total < HEADER + FOOTER {
        return Err(bad_data("shard bundle shorter than header + footer"));
    }
    if &bytes[..8] != MAGIC {
        return Err(bad_data("not a SkyDiver shard bundle (bad magic)"));
    }
    let (t64, m64) = (read_u64(bytes, 40), read_u64(bytes, 48));
    if t64 == 0 {
        return Err(bad_data("shard bundle declares zero signature size"));
    }
    if expected_len(t64, m64) != Some(total) {
        return Err(bad_data(format!(
            "shard bundle declares t={t64} m={m64} but holds {total} bytes"
        )));
    }
    let mut tags = [0u64; 4];
    for (i, tag) in tags.iter_mut().enumerate() {
        // lint: allow(R2) -- four fixed header words
        *tag = read_u64(bytes, 8 + i * 8);
    }
    let rows = read_u64(bytes, 56);
    let payload_len = (total - FOOTER) as usize;
    let declared_len = read_u64(bytes, payload_len);
    let declared_sum = read_u64(bytes, payload_len + 8);
    if declared_len != payload_len as u64 {
        return Err(bad_data(format!(
            "footer declares {declared_len} payload bytes, file holds {payload_len}"
        )));
    }
    let actual_sum = fnv1a64(&bytes[..payload_len]);
    if declared_sum != actual_sum {
        return Err(bad_data(format!(
            "checksum mismatch (stored {declared_sum:#018x}, computed {actual_sum:#018x})"
        )));
    }
    let t = usize::try_from(t64).map_err(|_| bad_data("t exceeds this platform"))?;
    let m = usize::try_from(m64).map_err(|_| bad_data("m exceeds this platform"))?;
    let rows_consumed =
        usize::try_from(rows).map_err(|_| bad_data("rows_consumed exceeds this platform"))?;
    let mut at = HEADER as usize;
    let mut columns = Vec::with_capacity(m);
    for j in 0..m {
        // lint: allow(R2) -- m checksummed header words, bounds proven
        // against the file size above
        let c = read_u64(bytes, at + j * 8);
        let c = usize::try_from(c).map_err(|_| bad_data("column id exceeds this platform"))?;
        if let Some(&prev) = columns.last() {
            if c <= prev {
                return Err(bad_data("column ids not strictly ascending"));
            }
        }
        columns.push(c);
    }
    at += m * 8;
    let mut matrix = SignatureMatrix::new(t, m);
    let mut col = vec![0u64; t];
    for j in 0..m {
        // lint: allow(R2) -- decodes the checksummed t*m bundle
        for (i, slot) in col.iter_mut().enumerate() {
            *slot = read_u64(bytes, at + (j * t + i) * 8);
        }
        matrix.set_column(j, &col);
    }
    at += t * m * 8;
    let mut scores = Vec::with_capacity(m);
    for j in 0..m {
        // lint: allow(R2) -- m checksummed score words
        scores.push(read_u64(bytes, at + j * 8));
    }
    let acc = SignatureAccumulator { matrix, scores, rows_consumed };
    Ok((ShardFingerprint { columns, acc }, tags))
}

/// Writes a shard bundle to `path` in one plain (non-atomic) write —
/// the store's atomic temp + fsync + rename protocol lives in the
/// serving layer; this is the plain writer the CLI's `.skysig` files
/// use.
pub fn write_shard_signatures<P: AsRef<Path>>(
    path: P,
    fp: &ShardFingerprint,
    tags: &[u64; 4],
) -> io::Result<()> {
    std::fs::write(path, encode_shard_signatures(fp, tags))
}

/// Reads a `SKYSIG02` shard bundle: the file as it is, then
/// [`decode_shard_signatures`]'s checks, so no header count is trusted.
pub fn read_shard_signatures<P: AsRef<Path>>(
    path: P,
) -> io::Result<(ShardFingerprint, [u64; 4])> {
    decode_shard_signatures(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{sig_gen_if, HashFamily};
    use skydiver_data::dominance::MinDominance;
    use skydiver_skyline::naive_skyline;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skydiver-sig-{}-{name}", std::process::id()));
        p
    }

    fn sample_shard_fp() -> ShardFingerprint {
        let mut acc = SignatureAccumulator::new(4, 3);
        acc.matrix.set_column(0, &[5, 1, 9, 2]);
        acc.matrix.set_column(1, &[7, 7, 0, 3]);
        // Column 2 stays all-∞ (a skyline point dominating nothing in
        // this shard) — u64::MAX must survive the trip.
        acc.scores = vec![3, 1, 0];
        acc.rows_consumed = 42;
        ShardFingerprint { columns: vec![2, 5, 9], acc }
    }

    #[test]
    fn v2_round_trip_preserves_fold_and_tags() {
        // Besides the hand-made fold, a whole-dataset fingerprint as the
        // CLI writes it: one shard, columns = skyline ids, rows consumed
        // = n. Point 0 dominates nothing, so its column is all-∞.
        let ds = skydiver_data::Dataset::from_rows(2, &[[0.0, 1.0], [1.0, 0.0], [1.5, 0.5]]);
        let sky = naive_skyline(&ds, &MinDominance);
        let out = sig_gen_if(&ds, &sky, &HashFamily::new(8, 182));
        assert!(out.matrix.column(0).iter().all(|&v| v == u64::MAX));
        let acc = SignatureAccumulator {
            matrix: out.matrix,
            scores: out.scores,
            rows_consumed: ds.len(),
        };
        let whole = ShardFingerprint { columns: sky, acc };
        let tags = [0xdead_beef, 7, 0x1234, 99];
        let path = tmp("v2-roundtrip");
        for fp in [sample_shard_fp(), whole] {
            write_shard_signatures(&path, &fp, &tags).unwrap();
            let (back, back_tags) = read_shard_signatures(&path).unwrap();
            assert_eq!(back.columns, fp.columns);
            assert_eq!(back.acc, fp.acc);
            assert_eq!(back_tags, tags);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v2_detects_every_corruption_mode() {
        let fp = sample_shard_fp();
        let good = encode_shard_signatures(&fp, &[1, 2, 3, 4]);
        // Bit flip anywhere in the payload fails the checksum; a flip in
        // the footer fails the length or checksum comparison.
        for at in [9usize, 41, 70, good.len() - 20, good.len() - 1] {
            let mut bytes = good.clone();
            bytes[at] ^= 0x10;
            assert!(
                decode_shard_signatures(&bytes).is_err(),
                "flip at byte {at} must be detected"
            );
        }
        // Truncation at every boundary class.
        for keep in [0usize, 7, 40, 63, good.len() - 16, good.len() - 1] {
            assert!(
                decode_shard_signatures(&good[..keep]).is_err(),
                "truncation to {keep} bytes must be detected"
            );
        }
        // Garbage long enough to hold a header and footer — including
        // any file of another format — fails on its magic.
        let garbage = vec![b'x'; good.len()];
        let err = decode_shard_signatures(&garbage).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // The untouched encoding still decodes.
        assert!(decode_shard_signatures(&good).is_ok());
    }

    #[test]
    fn v2_hostile_header_cannot_force_a_huge_allocation() {
        let path = tmp("hostile-v2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&[0u8; 32]); // tags
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes()); // t
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes()); // m
        bytes.extend_from_slice(&0u64.to_le_bytes()); // rows
        bytes.extend_from_slice(&[0u8; 16]); // fake footer
        std::fs::write(&path, &bytes).unwrap();
        let err = read_shard_signatures(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v2_rejects_unsorted_columns_and_zero_t() {
        let mut fp = sample_shard_fp();
        fp.columns = vec![5, 2, 9]; // not ascending
        let bytes = encode_shard_signatures(&fp, &[0; 4]);
        // Re-seal the footer so only the column order is wrong.
        let err = decode_shard_signatures(&bytes).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");

        let good = encode_shard_signatures(&sample_shard_fp(), &[0; 4]);
        let mut zero_t = good.clone();
        zero_t[40..48].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_shard_signatures(&zero_t).is_err());
    }
}
