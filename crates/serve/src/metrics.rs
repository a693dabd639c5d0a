//! Lock-free serving metrics: atomic counters plus a fixed-bucket
//! latency histogram.
//!
//! Counters are `Relaxed` — they are monotone tallies read only for
//! reporting, so no ordering is needed. The histogram is log-linear:
//! every power-of-two octave of the recorded unit is cut into
//! [`SUB_BUCKETS`] equal sub-buckets, and values below `SUB_BUCKETS`
//! get a bucket each. `record` stays one atomic increment, p50/p99 are
//! a cumulative walk at `STATS` time, and a quantile is the midpoint of
//! its bucket — within 1/16 (6.25 %) of the true value, fine enough to
//! see a 20 % regression. Small integers such as pipeline depths up to
//! 15 are exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Exact buckets `0..SUB_BUCKETS`, then `SUB_BUCKETS` per octave for the
/// octaves `SUB_BITS..64`.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Fixed-bucket log-linear latency histogram (see the module docs).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket holding `v`: `v` itself below [`SUB_BUCKETS`], else its
/// octave's block plus the `SUB_BITS` bits below its leading one.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    SUB_BUCKETS * (octave - SUB_BITS + 1) as usize + sub
}

/// The value a bucket reports: the midpoint of the integers it holds.
fn bucket_value(idx: usize) -> f64 {
    if idx < SUB_BUCKETS {
        return idx as f64;
    }
    let shift = (idx / SUB_BUCKETS - 1) as i32;
    let lo = ((SUB_BUCKETS + idx % SUB_BUCKETS) as f64) * 2f64.powi(shift);
    lo + (2f64.powi(shift) - 1.0) / 2.0
}

impl LatencyHistogram {
    /// Records one observation in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) in milliseconds: the midpoint of
    /// the bucket holding the `ceil(q · count)`-th observation.
    /// Returns 0 when nothing has been recorded.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) / 1_000.0
    }

    /// The `q`-quantile in the raw recorded unit (the bucket midpoint,
    /// exact below 16). The histogram is unit-agnostic — the server
    /// also uses one to track pipeline depths, where the unit is
    /// requests per network read rather than microseconds.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_value(idx);
            }
        }
        // Concurrent recording can move `count()` between the two scans;
        // the top bucket's value is the honest answer then.
        bucket_value(BUCKETS - 1)
    }
}

/// Counters the server exposes via `STATS` and dumps on shutdown.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `QUERY` requests answered (including degraded ones).
    pub queries: AtomicU64,
    /// `LOAD` requests served.
    pub loads: AtomicU64,
    /// Requests answered with `ERR`.
    pub errors: AtomicU64,
    /// Fingerprints served from the cache.
    pub cache_hits: AtomicU64,
    /// Fingerprints computed because the cache missed.
    pub cache_misses: AtomicU64,
    /// Cache entries evicted under the byte ceiling.
    pub cache_evictions: AtomicU64,
    /// Whole selections served from the per-dataset result memo
    /// (budget-free repeats of an identical query — no selection ran).
    pub selection_hits: AtomicU64,
    /// Queries that returned a degraded (budget-curtailed) result.
    pub degraded: AtomicU64,
    /// `APPEND` requests served.
    pub appends: AtomicU64,
    /// Dominance tests spent fingerprinting (cumulative, cold paths only).
    pub dominance_tests: AtomicU64,
    /// Shard folds merged from the cache instead of re-scanned.
    pub shards_reused: AtomicU64,
    /// Fingerprint misses whose skyline came from the generation's
    /// skyline memo unchanged (no SFS pass ran).
    pub skyline_hits: AtomicU64,
    /// Fingerprint misses whose skyline was an entry inherited across
    /// `APPEND`, extended over the appended rows only. Misses that are
    /// neither ran a full SFS pass.
    pub skyline_extends: AtomicU64,
    /// Fingerprint misses served by extending an assembled fingerprint
    /// inherited across `APPEND` over the same skyline: only the shards
    /// appended since were merged.
    pub fingerprint_extends: AtomicU64,
    /// Fingerprint misses served by a column delta on an assembled
    /// fingerprint inherited across an `APPEND` that changed the
    /// skyline: the surviving columns were copied, only the entering
    /// columns were folded over the old rows, and only the appended
    /// shards were folded in full.
    pub fingerprint_deltas: AtomicU64,
    /// Bytes resident in the fingerprint cache (last observed).
    pub bytes_resident: AtomicU64,
    /// Dominance plans a worker built for its hosted shards (a fully
    /// cold `FOLD` of a key seen once before builds one).
    pub plan_builds: AtomicU64,
    /// Cold `FOLD`s a worker ran through a memoised dominance plan
    /// instead of the row fold. Not a cache hit: the fold is computed
    /// and charged in full.
    pub plan_hits: AtomicU64,
    /// Bytes resident in a worker's dominance-plan memo (last observed).
    pub plan_bytes: AtomicU64,
    /// Shard folds served from the on-disk signature store.
    pub store_hits: AtomicU64,
    /// Store artefacts quarantined (corrupt, truncated or mis-keyed).
    pub store_quarantined: AtomicU64,
    /// Write-behind persistence attempts that failed (ENOSPC, rename…).
    pub store_write_failures: AtomicU64,
    /// Cluster fold legs dispatched to workers (every attempt counts).
    pub fanout_legs: AtomicU64,
    /// Fold legs retried on a replica after the preferred owner failed.
    pub fanout_retries: AtomicU64,
    /// Fold legs that exhausted every replica (the shard degraded).
    pub fanout_failures: AtomicU64,
    /// Shard movements executed by join/leave handoff plans.
    pub handoffs: AtomicU64,
    /// `BATCH` requests answered.
    pub batches: AtomicU64,
    /// Selections run inside `BATCH` requests (items across all batches).
    pub batch_items: AtomicU64,
    /// Connections switched to the binary framing via `HELLO`.
    pub hellos: AtomicU64,
    /// Request bytes read off accepted connections.
    pub bytes_in: AtomicU64,
    /// Response bytes written to accepted connections.
    pub bytes_out: AtomicU64,
    /// Connections accepted by the event loops.
    pub conns_accepted: AtomicU64,
    /// Connections shed by the idle/read or write deadline sweeps.
    pub conns_shed: AtomicU64,
    /// End-to-end `QUERY` latency.
    pub latency: LatencyHistogram,
    /// Per-leg cluster fan-out latency (connect through fold frame).
    pub fanout: LatencyHistogram,
    /// Requests parsed per network read (the pipelining depth actually
    /// observed on the wire; unit is requests, not time).
    pub pipeline: LatencyHistogram,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Bumps a counter by 1.
    pub fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter (dominance-test tallies arrive in bulk).
    pub fn add(&self, c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// One-line JSON snapshot (the `STATS` payload).
    pub fn snapshot_json(&self) -> String {
        format!(
            concat!(
                "{{\"queries\":{},\"loads\":{},\"errors\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},",
                "\"selection_hits\":{},",
                "\"degraded\":{},\"appends\":{},\"dominance_tests\":{},",
                "\"shards_reused\":{},\"skyline_hits\":{},\"skyline_extends\":{},",
                "\"fingerprint_extends\":{},\"fingerprint_deltas\":{},",
                "\"bytes_resident\":{},",
                "\"plan_builds\":{},\"plan_hits\":{},\"plan_bytes\":{},",
                "\"store_hits\":{},\"store_quarantined\":{},",
                "\"store_write_failures\":{},",
                "\"fanout_legs\":{},\"fanout_retries\":{},",
                "\"fanout_failures\":{},\"handoffs\":{},",
                "\"batches\":{},\"batch_items\":{},\"hellos\":{},",
                "\"bytes_in\":{},\"bytes_out\":{},",
                "\"conns_accepted\":{},\"conns_shed\":{},",
                "\"latency_count\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},",
                "\"fanout_count\":{},\"fanout_p50_ms\":{:.3},\"fanout_p99_ms\":{:.3},",
                "\"pipeline_count\":{},\"pipeline_depth_p50\":{:.0},",
                "\"pipeline_depth_p99\":{:.0}}}"
            ),
            self.get(&self.queries),
            self.get(&self.loads),
            self.get(&self.errors),
            self.get(&self.cache_hits),
            self.get(&self.cache_misses),
            self.get(&self.cache_evictions),
            self.get(&self.selection_hits),
            self.get(&self.degraded),
            self.get(&self.appends),
            self.get(&self.dominance_tests),
            self.get(&self.shards_reused),
            self.get(&self.skyline_hits),
            self.get(&self.skyline_extends),
            self.get(&self.fingerprint_extends),
            self.get(&self.fingerprint_deltas),
            self.get(&self.bytes_resident),
            self.get(&self.plan_builds),
            self.get(&self.plan_hits),
            self.get(&self.plan_bytes),
            self.get(&self.store_hits),
            self.get(&self.store_quarantined),
            self.get(&self.store_write_failures),
            self.get(&self.fanout_legs),
            self.get(&self.fanout_retries),
            self.get(&self.fanout_failures),
            self.get(&self.handoffs),
            self.get(&self.batches),
            self.get(&self.batch_items),
            self.get(&self.hellos),
            self.get(&self.bytes_in),
            self.get(&self.bytes_out),
            self.get(&self.conns_accepted),
            self.get(&self.conns_shed),
            self.latency.count(),
            self.latency.quantile_ms(0.50),
            self.latency.quantile_ms(0.99),
            self.fanout.count(),
            self.fanout.quantile_ms(0.50),
            self.fanout.quantile_ms(0.99),
            self.pipeline.count(),
            self.pipeline.quantile(0.50),
            self.pipeline.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.5), 0.0, "empty histogram");
        // 90 fast (≈100 µs) + 10 slow (≈100 ms) observations.
        for _ in 0..90 {
            h.record_micros(100);
        }
        for _ in 0..10 {
            h.record_micros(100_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        assert!(p50 < 1.0, "p50 {p50} ms should be in the fast band");
        assert!(p99 > 50.0, "p99 {p99} ms should be in the slow band");
        assert!(p50 <= p99);
    }

    #[test]
    fn log_linear_buckets_resolve_a_fifth() {
        // A 54 ms and a 40 ms run read apart, each within 20 % (the
        // bucket midpoint is within 1/16 of any value it holds).
        let p50 = |micros: u64| {
            let h = LatencyHistogram::default();
            for _ in 0..9 {
                h.record_micros(micros);
            }
            h.quantile_ms(0.5)
        };
        let (slow, fast) = (p50(54_000), p50(40_000));
        assert_ne!(slow, fast);
        assert!((slow - 54.0).abs() <= 0.2 * 54.0, "p50 {slow} ms for 54 ms");
        assert!((fast - 40.0).abs() <= 0.2 * 40.0, "p50 {fast} ms for 40 ms");
        for v in (1..200_000u64).step_by(7).chain([u64::MAX / 3, u64::MAX]) {
            let got = bucket_value(bucket_of(v));
            assert!((got - v as f64).abs() <= v as f64 / 16.0, "{v} reads {got}");
        }
        // Buckets are contiguous and ordered.
        for v in 1..5_000u64 {
            assert!(bucket_of(v) - bucket_of(v - 1) <= 1, "gap at {v}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn pipeline_depths_are_exact() {
        for depth in 1..=8u64 {
            let h = LatencyHistogram::default();
            h.record_micros(depth);
            assert_eq!(h.quantile(0.5), depth as f64);
            assert_eq!(h.quantile(0.99), depth as f64);
        }
    }

    #[test]
    fn extreme_observations_clamp_to_end_buckets() {
        let h = LatencyHistogram::default();
        h.record_micros(0);
        h.record_micros(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(1.0) > 0.0);
    }

    #[test]
    fn snapshot_is_flat_json() {
        let m = Metrics::new();
        m.bump(&m.queries);
        m.bump(&m.cache_hits);
        m.latency.record_micros(1_000);
        let j = m.snapshot_json();
        assert_eq!(crate::protocol::json_u64(&j, "queries"), Some(1));
        assert_eq!(crate::protocol::json_u64(&j, "cache_hits"), Some(1));
        assert_eq!(crate::protocol::json_u64(&j, "cache_misses"), Some(0));
        assert_eq!(crate::protocol::json_u64(&j, "latency_count"), Some(1));
        assert!(crate::protocol::json_f64(&j, "p50_ms").is_some());
    }
}
