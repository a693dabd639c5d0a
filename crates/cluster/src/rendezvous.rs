//! Rendezvous (highest-random-weight) shard ownership.
//!
//! Every shard is owned by the `r` nodes with the highest
//! `weight(node, shard)` score, where the weight is a deterministic hash
//! of the `(node, shard)` pair. Any participant that knows the node
//! roster computes the same owner list with no coordination, and when a
//! node joins or leaves only the shards whose top-`r` set actually
//! changed move — the minimal-disruption property that makes handoff
//! cheap.

use skydiver_data::digest::{Fnv64, OFFSET_BASIS};

/// FNV-1a 64 over `bytes` from a basis mixed with `seed`, so shard and
/// node mix fully.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut fnv = Fnv64::with_basis(OFFSET_BASIS ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    fnv.update(bytes);
    let mut h = fnv.finish();
    // Final avalanche (splitmix64 tail) so nearby shard ids decorrelate.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Deterministic weight of `node` for `shard`. Public so tests and the
/// serve layer can reason about tie-breaks directly.
pub fn weight(node: &str, shard: usize) -> u64 {
    fnv1a(shard as u64, node.as_bytes())
}

/// The `r` owners of `shard` drawn from `nodes`, best-weight first.
///
/// Ties (astronomically unlikely with 64-bit weights, but possible) break
/// on the node string so the order is total. If `r >= nodes.len()` every
/// node owns the shard. Returns an empty vector for an empty roster.
pub fn owners(nodes: &[String], shard: usize, r: usize) -> Vec<String> {
    let mut scored: Vec<(u64, &String)> = nodes.iter().map(|n| (weight(n, shard), n)).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    scored
        .into_iter()
        .take(r.max(1))
        .map(|(_, n)| n.clone())
        .collect()
}

/// Full ownership map: `map[s]` lists the owners of shard `s`.
pub fn ownership_map(nodes: &[String], shards: usize, r: usize) -> Vec<Vec<String>> {
    (0..shards).map(|s| owners(nodes, s, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ownership_is_deterministic_and_order_free() {
        let a = roster(&["w1", "w2", "w3"]);
        let b = roster(&["w3", "w1", "w2"]);
        for s in 0..64 {
            assert_eq!(owners(&a, s, 2), owners(&b, s, 2));
        }
    }

    #[test]
    fn replication_caps_at_roster_size() {
        let n = roster(&["a", "b"]);
        assert_eq!(owners(&n, 7, 5).len(), 2);
        assert!(owners(&[], 7, 2).is_empty());
    }

    #[test]
    fn owners_are_distinct_nodes() {
        let n = roster(&["a", "b", "c", "d"]);
        for s in 0..32 {
            let own = owners(&n, s, 3);
            let mut dedup = own.clone();
            dedup.dedup();
            assert_eq!(own.len(), 3);
            assert_eq!(dedup.len(), 3);
        }
    }

    #[test]
    fn join_moves_only_a_fraction_of_shards() {
        let before = roster(&["w1", "w2", "w3", "w4"]);
        let mut after = before.clone();
        after.push("w5".to_string());
        let shards = 256;
        let moved = (0..shards)
            .filter(|&s| owners(&before, s, 1) != owners(&after, s, 1))
            .count();
        // HRW moves ~1/5 of shards on a 4→5 join; assert well under half.
        assert!(moved > 0 && moved < shards / 2, "moved {moved}");
    }

    #[test]
    fn spread_is_roughly_balanced() {
        let n = roster(&["w1", "w2", "w3", "w4"]);
        let shards = 400;
        let mut counts = std::collections::HashMap::new();
        for s in 0..shards {
            for o in owners(&n, s, 1) {
                *counts.entry(o).or_insert(0usize) += 1;
            }
        }
        for (_, c) in counts {
            assert!(c > shards / 10, "owner starved: {c}");
        }
    }
}
