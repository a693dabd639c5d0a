//! The workspace's two non-cryptographic digests. Both detect
//! corruption, not adversaries with write access.
//!
//! * [`checksum64`] — the `SKYSIG03` fold-bundle footer checksum. It
//!   reads the payload as little-endian `u64` words spread over four
//!   independent lanes, so the multiplies of neighbouring
//!   words overlap instead of forming one serial chain as FNV-1a's
//!   per-byte steps do. Each lane step is `s ← mix(s ^ w)`, with `mix`
//!   a bijection on `u64` (an odd multiply, then an xorshift); the
//!   lanes, the zero-padded tail bytes and the byte length are folded
//!   together by the same step. Every step is a bijection of the running
//!   state for a fixed input word, and of the input word for a fixed
//!   state, so any change confined to one 8-byte word — a single flipped
//!   byte included — always changes the digest.
//! * [`fnv1a64`] / [`Fnv64`] — FNV-1a 64, byte-serial: the cluster frame
//!   checksum (`SKYWIRE01` binary clients are documented with it), shard
//!   and dataset content tags, plan request keys, the store's preference
//!   hash, and (seeded, with an avalanche tail) rendezvous weights.

/// The FNV-1a 64 offset basis.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hash starting at the offset basis.
    pub fn new() -> Self {
        Self::with_basis(OFFSET_BASIS)
    }

    /// A hash starting at `basis` instead — a seeded variant.
    pub fn with_basis(basis: u64) -> Self {
        Fnv64(basis)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Independent lanes of [`checksum64`]: word `i` of the payload goes to
/// lane `i % LANES`.
const LANES: usize = 4;

/// Each lane's starting state: the FNV-1a 64 offset basis XOR 0, 1, 2
/// and 3 times [`MIX_MUL`] — distinct, so equal words in different
/// lanes do not leave equal states.
const LANE_SEEDS: [u64; LANES] = [
    OFFSET_BASIS,
    OFFSET_BASIS ^ 0x9e37_79b9_7f4a_7c15,
    OFFSET_BASIS ^ 0x3c6e_f372_fe94_f82a,
    OFFSET_BASIS ^ 0xdaa6_6d2c_7ddf_743f,
];

/// The odd multiplier of [`mix`] (2⁶⁴ divided by the golden ratio).
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A bijection on `u64`: multiplication by an odd constant is invertible
/// mod 2⁶⁴, and `x ^ (x >> 32)` is its own inverse. The shift feeds the
/// product's high half, where the multiply gathers its carries, back
/// into the low half the next multiply spreads from.
#[inline(always)]
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(MIX_MUL);
    x ^ (x >> 32)
}

/// The whole little-endian `u64` words of `bytes`; a trailing partial
/// word is left out.
#[inline(always)]
pub fn le_words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|w| w.try_into().map_or(0, u64::from_le_bytes))
}

/// The `SKYSIG03` footer checksum of `bytes`: four lanes of
/// `s ← mix(s ^ w)` over the whole little-endian `u64` words (word `i`
/// in lane `i % 4`; `mix` an odd multiply, then `x ^ (x >> 32)`), then
/// `h ← mix(h ^ x)` from `h = 0` over the four lane states in order,
/// the final partial word zero-padded, and the byte length.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (s, w) in lanes.iter_mut().zip(le_words(block)) {
            *s = mix(*s ^ w);
        }
    }
    let rest = blocks.remainder();
    for (s, w) in lanes.iter_mut().zip(le_words(rest)) {
        *s = mix(*s ^ w);
    }
    let tail = &rest[rest.len() / 8 * 8..];
    let mut padded = [0u8; 8];
    padded[..tail.len()].copy_from_slice(tail);
    let h = lanes.iter().fold(0, |h, &s| mix(h ^ s));
    let h = mix(h ^ u64::from_le_bytes(padded));
    mix(h ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), OFFSET_BASIS);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::default();
        h.update(b"sky");
        h.update(b"diver");
        assert_eq!(h.finish(), fnv1a64(b"skydiver"));
    }

    #[test]
    fn mix_is_invertible() {
        // The inverse: undo the xorshift, then multiply by MIX_MUL⁻¹.
        let mut inv = MIX_MUL;
        for _ in 0..5 {
            // Newton's iteration doubles the correct low bits each step.
            inv = inv.wrapping_mul(2u64.wrapping_sub(MIX_MUL.wrapping_mul(inv)));
        }
        assert_eq!(MIX_MUL.wrapping_mul(inv), 1);
        for x in [0, 1, u64::MAX, 0x8000_0000_0000_0000, OFFSET_BASIS, 0xdead_beef] {
            let y = mix(x);
            assert_eq!((y ^ (y >> 32)).wrapping_mul(inv), x, "{x:#x}");
        }
    }
}
