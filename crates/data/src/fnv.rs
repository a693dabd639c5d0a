//! FNV-1a 64, the workspace's one non-cryptographic digest: the
//! `SKYSIG02` footer checksum, the cluster frame checksum, shard and
//! dataset content tags, and (seeded, with an avalanche tail) rendezvous
//! weights. It detects corruption, not adversaries with write access.

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
}
