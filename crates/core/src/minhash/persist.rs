//! Persistence of fingerprints: the `SKYSIG03` bundle.
//!
//! Fingerprinting is the expensive phase (one pass over the data);
//! selection is `O(k²m)` and cheap. Persisting a fold lets a user
//! fingerprint once and re-run selection for many `k`, thresholds, or
//! LSH configurations — without touching the data again. One format
//! serves every artefact: a bundle holds one [`ShardFingerprint`]
//! (column ids + fold + rows consumed), and a whole-dataset fingerprint
//! is simply a one-shard bundle whose columns are the skyline ids. The
//! same bytes are a store file, the CLI's `.skysig` file and a cluster
//! `FOLD`/`FETCH` reply body. The layout is little-endian `u64` words,
//! `t·m·8 + 16·m + 80` bytes in all:
//!
//! * a header of magic, four caller-owned key tags, `t`, `m` and rows
//!   consumed. The serving layer binds dataset content hash, shard id,
//!   preference hash and seed into the tags, so a renamed or stale file
//!   can never masquerade as another key; the CLI's whole-dataset
//!   bundle carries the hash seed in the same last slot;
//! * `m` column ids, the `t × m` column-major slots and `m` scores;
//! * a length-and-checksum footer, so torn writes, truncation and bit
//!   rot are detected before a single word is trusted. The checksum is
//!   [`checksum64`] over everything before the footer: four independent
//!   lanes of a bijective word mix, so any change confined to one 8-byte
//!   word — any single flipped byte — is always caught.
//!
//! `SKYSIG03` has the layout of the older `SKYSIG02`, whose footer held a
//! byte-serial FNV-1a 64 instead. No reader serves both: a `SKYSIG02`
//! bundle fails to decode with an error naming it as the older format,
//! so an old store file is quarantined and refolded, an old `.skysig`
//! file must be regenerated, and an old worker's reply is a failed leg.
//!
//! Encode writes each section into one presized buffer with a word loop;
//! decode runs every check — magic, shape against length, footer length,
//! checksum — before it allocates, so a hostile or truncated header
//! cannot trigger an unbounded `t·m` allocation, then reads each section
//! back with one word loop.

use std::io;
use std::path::Path;

use skydiver_data::digest::{checksum64, le_words};

use super::{ShardFingerprint, SignatureAccumulator, SignatureMatrix};

const MAGIC: &[u8; 8] = b"SKYSIG03";

/// The magic of the older format, which had the same layout with an
/// FNV-1a 64 footer checksum; recognised only to name it in the error.
const OLD_MAGIC: &[u8; 8] = b"SKYSIG02";

/// Fixed byte sizes of the `SKYSIG03` layout: magic + 4 key tags +
/// t + m + rows_consumed, and the length + checksum footer.
const HEADER: u64 = 8 + 4 * 8 + 3 * 8;
const FOOTER: u64 = 2 * 8;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The exact on-disk size of a `SKYSIG03` bundle with the given shape,
/// or `None` on arithmetic overflow.
fn expected_len(t: u64, m: u64) -> Option<u64> {
    // header + m column ids + t*m matrix words + m score words + footer.
    let words = t.checked_mul(m)?.checked_add(m.checked_mul(2)?)?;
    words
        .checked_mul(8)?
        .checked_add(HEADER)?
        .checked_add(FOOTER)
}

/// Writes `words` little-endian over the front of `out`; returns the
/// rest of `out`.
fn put_words(out: &mut [u8], words: impl ExactSizeIterator<Item = u64>) -> &mut [u8] {
    let (section, rest) = out.split_at_mut(words.len() * 8);
    for (dst, w) in section.chunks_exact_mut(8).zip(words) {
        // lint: allow(R2) -- serialises the already-computed fold;
        // compute-phase budgets were charged when it was built
        dst.copy_from_slice(&w.to_le_bytes());
    }
    rest
}

/// Encodes one shard's complete fold as a `SKYSIG03` bundle.
///
/// `tags` are four caller-owned key words written into the header and
/// returned verbatim by [`decode_shard_signatures`] — the serving layer
/// binds `(dataset content hash, shard id, preference hash, seed)` so a
/// renamed or stale artefact fails key verification instead of being
/// served. The bundle ends in a length + [`checksum64`] footer.
pub fn encode_shard_signatures(fp: &ShardFingerprint, tags: &[u64; 4]) -> Vec<u8> {
    let (t, m) = (fp.acc.t(), fp.acc.m());
    let payload_len = (t * m + 2 * m) * 8 + HEADER as usize;
    let mut out = vec![0u8; payload_len + FOOTER as usize];
    out[..8].copy_from_slice(MAGIC);
    let [a, b, c, d] = *tags;
    let header = [a, b, c, d, t as u64, m as u64, fp.acc.rows_consumed as u64];
    let rest = put_words(&mut out[8..], header.into_iter());
    let rest = put_words(rest, fp.columns.iter().map(|&c| c as u64));
    let rest = put_words(rest, fp.acc.matrix.as_column_major().iter().copied());
    put_words(rest, fp.acc.scores.iter().copied());
    let checksum = checksum64(&out[..payload_len]);
    put_words(&mut out[payload_len..], [payload_len as u64, checksum].into_iter());
    out
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b8 = [0u8; 8];
    b8.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b8)
}

/// Decodes a `SKYSIG03` bundle, verifying magic, shape-vs-length,
/// footer length and checksum before trusting a single word. Returns
/// the fold and the caller's key tags. A `SKYSIG02` bundle is refused
/// by name as the older format.
pub fn decode_shard_signatures(bytes: &[u8]) -> io::Result<(ShardFingerprint, [u64; 4])> {
    let total = bytes.len() as u64;
    if total < HEADER + FOOTER {
        return Err(bad_data("shard bundle shorter than header + footer"));
    }
    if &bytes[..8] == OLD_MAGIC {
        return Err(bad_data(
            "shard bundle is the older SKYSIG02 format (FNV-1a footer); refold it",
        ));
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
    let payload_len = (total - FOOTER) as usize;
    let declared_len = read_u64(bytes, payload_len);
    let declared_sum = read_u64(bytes, payload_len + 8);
    if declared_len != payload_len as u64 {
        return Err(bad_data(format!(
            "footer declares {declared_len} payload bytes, file holds {payload_len}"
        )));
    }
    let actual_sum = checksum64(&bytes[..payload_len]);
    if declared_sum != actual_sum {
        return Err(bad_data(format!(
            "checksum mismatch (stored {declared_sum:#018x}, computed {actual_sum:#018x})"
        )));
    }
    let t = usize::try_from(t64).map_err(|_| bad_data("t exceeds this platform"))?;
    let m = usize::try_from(m64).map_err(|_| bad_data("m exceeds this platform"))?;
    let rows = read_u64(bytes, 56);
    let rows_consumed =
        usize::try_from(rows).map_err(|_| bad_data("rows_consumed exceeds this platform"))?;
    let mut tags = [0u64; 4];
    for (tag, w) in tags.iter_mut().zip(le_words(&bytes[8..40])) {
        // lint: allow(R2) -- four fixed header words
        *tag = w;
    }
    // Every section's bounds were proven against the length above.
    let (ids, rest) = bytes[HEADER as usize..payload_len].split_at(m * 8);
    let (slots, scores) = rest.split_at(t * m * 8);
    let mut columns = Vec::with_capacity(m);
    for c in le_words(ids) {
        // lint: allow(R2) -- m checksummed header words
        let c = usize::try_from(c).map_err(|_| bad_data("column id exceeds this platform"))?;
        if columns.last().is_some_and(|&prev| c <= prev) {
            return Err(bad_data("column ids not strictly ascending"));
        }
        columns.push(c);
    }
    let matrix = SignatureMatrix::from_column_major(t, m, le_words(slots).collect());
    let scores = le_words(scores).collect();
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

/// Reads a `SKYSIG03` shard bundle: the file as it is, then
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
    use skydiver_data::digest::fnv1a64;
    use skydiver_data::dominance::MinDominance;
    use skydiver_skyline::naive_skyline;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skydiver-sig-{}-{name}", std::process::id()));
        p
    }

    /// Deterministic splitmix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
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

    /// A `t × m` fold of random slots (every fourth one `∞`), random
    /// scores and strictly ascending column ids.
    fn random_fp(t: usize, m: usize, rng: &mut Rng) -> ShardFingerprint {
        let slots = (0..t * m)
            .map(|i| if i % 4 == 3 { u64::MAX } else { rng.next() })
            .collect();
        let mut next_id = 0usize;
        let columns = (0..m)
            .map(|_| {
                next_id += 1 + rng.below(1000);
                next_id
            })
            .collect();
        let acc = SignatureAccumulator {
            matrix: SignatureMatrix::from_column_major(t, m, slots),
            scores: (0..m).map(|_| rng.next() % 50_000).collect(),
            rows_consumed: rng.below(1 << 20),
        };
        ShardFingerprint { columns, acc }
    }

    /// The bundle written one slot at a time, as the layout reads:
    /// `magic`, header words, ids, column-major slots, scores, then the
    /// footer of payload length and `sum` over the payload.
    fn per_slot_bundle(
        fp: &ShardFingerprint,
        tags: &[u64; 4],
        magic: &[u8; 8],
        sum: fn(&[u8]) -> u64,
    ) -> Vec<u8> {
        let (t, m) = (fp.acc.t(), fp.acc.m());
        let mut out = magic.to_vec();
        let mut header = tags.to_vec();
        header.extend([t as u64, m as u64, fp.acc.rows_consumed as u64]);
        header.extend(fp.columns.iter().map(|&c| c as u64));
        for j in 0..m {
            header.extend_from_slice(fp.acc.matrix.column(j));
        }
        header.extend_from_slice(&fp.acc.scores);
        for w in header {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let payload_len = out.len() as u64;
        let checksum = sum(&out);
        out.extend_from_slice(&payload_len.to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// [`checksum64`] written as plainly as its definition: word `i` into
    /// lane `i % 4`, a byte at a time, then the lanes, the zero-padded
    /// tail and the length.
    fn reference_checksum(bytes: &[u8]) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |x: u64| {
            let x = x.wrapping_mul(K);
            x ^ (x >> 32)
        };
        let le = |bytes: &[u8]| {
            let mut w = 0u64;
            for (b, &byte) in bytes.iter().enumerate() {
                w |= u64::from(byte) << (8 * b);
            }
            w
        };
        let mut lanes = [BASIS, BASIS ^ K, BASIS ^ K.wrapping_mul(2), BASIS ^ K.wrapping_mul(3)];
        let whole = bytes.len() / 8;
        for i in 0..whole {
            lanes[i % 4] = mix(lanes[i % 4] ^ le(&bytes[8 * i..8 * i + 8]));
        }
        let mut h = 0;
        for s in lanes {
            h = mix(h ^ s);
        }
        h = mix(h ^ le(&bytes[8 * whole..]));
        mix(h ^ bytes.len() as u64)
    }

    #[test]
    fn checksum64_matches_a_scalar_reference() {
        let mut rng = Rng(0x5eed);
        let bytes: Vec<u8> = (0..80).map(|_| rng.next() as u8).collect();
        for len in 0..=80 {
            assert_eq!(checksum64(&bytes[..len]), reference_checksum(&bytes[..len]), "len {len}");
        }
        let counting: Vec<u8> = (0..80).collect();
        for (bytes, want) in [
            (&b""[..], 0x58d0_9a4e_ff0e_c76c),
            (b"skydiver", 0x80e7_a973_98da_3b7d),
            (b"SKYSIG03 bundle", 0xeee2_589e_855b_2049),
            (&counting[..], 0x9b85_dcbf_69ee_c57a),
        ] {
            assert_eq!(checksum64(bytes), want, "{bytes:?}");
        }
    }

    #[test]
    fn round_trips_at_every_lane_and_block_shape() {
        let mut rng = Rng(372);
        for t in [1, 7, 8, 9, 63, 64, 65, 100] {
            let fp = random_fp(t, 372, &mut rng);
            let tags = [rng.next(), t as u64, rng.next(), u64::MAX];
            let bytes = encode_shard_signatures(&fp, &tags);
            assert_eq!(bytes.len(), t * 372 * 8 + 16 * 372 + 80, "t {t}");
            assert_eq!(bytes, per_slot_bundle(&fp, &tags, MAGIC, checksum64), "t {t}");
            let (back, back_tags) = decode_shard_signatures(&bytes).unwrap();
            assert_eq!(back.columns, fp.columns, "t {t}");
            assert_eq!(back.acc, fp.acc, "t {t}");
            assert_eq!(back_tags, tags, "t {t}");
        }
    }

    #[test]
    fn files_round_trip_a_fold_and_a_whole_fingerprint() {
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
        let path = tmp("v3-roundtrip");
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
    fn every_single_byte_flip_is_rejected() {
        let good = encode_shard_signatures(&sample_shard_fp(), &[1, 2, 3, 4]);
        assert!(decode_shard_signatures(&good).is_ok());
        for at in 0..good.len() {
            for bit in [0x01, 0x80] {
                let mut bytes = good.clone();
                bytes[at] ^= bit;
                assert!(
                    decode_shard_signatures(&bytes).is_err(),
                    "flip {bit:#04x} at byte {at} must be detected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let good = encode_shard_signatures(&sample_shard_fp(), &[1, 2, 3, 4]);
        for keep in 0..good.len() {
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
    }

    #[test]
    fn an_older_skysig02_bundle_is_refused_by_name() {
        let fp = sample_shard_fp();
        let old = per_slot_bundle(&fp, &[1, 2, 3, 4], OLD_MAGIC, fnv1a64);
        assert_eq!(old.len(), encode_shard_signatures(&fp, &[1, 2, 3, 4]).len());
        let err = decode_shard_signatures(&old).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("older SKYSIG02 format"), "{err}");
    }

    /// A seeded corpus of hostile headers: `t` and `m` drawn from small,
    /// platform-sized and overflowing values up to `u64::MAX`, over a
    /// random body, with a footer whose length is right or wrong and
    /// whose checksum is sealed over the payload. No case is a
    /// well-formed bundle, so each must be an error — never a panic or
    /// an allocation sized by the header.
    #[test]
    fn hostile_headers_are_errors_not_panics() {
        const SIZES: [u64; 14] = [
            0,
            1,
            2,
            3,
            64,
            372,
            1 << 31,
            1 << 32,
            1 << 40,
            1 << 61,
            1 << 63,
            u64::MAX / 8,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = Rng(6);
        for case in 0..4000 {
            let mut pick = || match rng.below(SIZES.len() + 2) {
                i if i < SIZES.len() => SIZES[i],
                i if i == SIZES.len() => rng.next(),
                _ => rng.next() % 16,
            };
            let (t, m) = (pick(), pick());
            let body_words = rng.below(48);
            let mut bytes = MAGIC.to_vec();
            for w in [rng.next(), rng.next(), rng.next(), rng.next(), t, m, rng.next()] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            for _ in 0..body_words {
                bytes.extend_from_slice(&rng.next().to_le_bytes());
            }
            let payload_len = bytes.len() as u64;
            let well_shaped = expected_len(t, m) == Some(payload_len + FOOTER);
            let declared_len = if well_shaped || rng.below(2) == 0 {
                // A wrong footer length, off by a little or by a lot.
                payload_len ^ (1 << rng.below(64))
            } else {
                payload_len
            };
            let sum = checksum64(&bytes);
            bytes.extend_from_slice(&declared_len.to_le_bytes());
            bytes.extend_from_slice(&sum.to_le_bytes());
            let err = decode_shard_signatures(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {case}: {err}");
        }
        // The file reader applies the same checks before allocating.
        let path = tmp("hostile-v3");
        let mut bytes = MAGIC.to_vec();
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
    fn unsorted_columns_and_zero_t_are_rejected() {
        let mut fp = sample_shard_fp();
        fp.columns = vec![5, 2, 9]; // not ascending
        let bytes = encode_shard_signatures(&fp, &[0; 4]);
        // The footer is sealed over the bad order, so only it is wrong.
        let err = decode_shard_signatures(&bytes).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");

        let good = encode_shard_signatures(&sample_shard_fp(), &[0; 4]);
        let mut zero_t = good.clone();
        zero_t[40..48].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_shard_signatures(&zero_t).is_err());
    }
}
