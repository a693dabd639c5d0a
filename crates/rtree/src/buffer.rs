//! Simulated buffer pool and I/O cost accounting.
//!
//! The paper's experimental setup (§5.1): 4 KiB pages, a cache holding
//! 20 % of the R*-tree's blocks, and a charge of 8 ms per page fault on
//! top of measured CPU time. This module reproduces that model so the
//! I/O-versus-CPU trade-offs (Figures 9–11) keep their shape: page
//! *contents* live in memory, but every logical page access goes through
//! an LRU [`BufferPool`] that records hits and faults.

/// Default page size in bytes (paper §5.1).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Default charge per page fault, in milliseconds (paper §5.1).
pub const DEFAULT_MS_PER_FAULT: f64 = 8.0;

/// Default cache fraction: 20 % of the index's blocks (paper §5.1).
pub const DEFAULT_CACHE_FRACTION: f64 = 0.20;

/// Running I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests satisfied by the buffer pool.
    pub hits: u64,
    /// Page requests that had to "go to disk".
    pub faults: u64,
    /// Pages read by sequential file scans (never cached; the data file
    /// is assumed to be much larger than the pool).
    pub sequential_pages: u64,
}

impl IoStats {
    /// Simulated I/O time in milliseconds under `ms_per_fault`.
    pub fn io_ms(&self, ms_per_fault: f64) -> f64 {
        (self.faults + self.sequential_pages) as f64 * ms_per_fault
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.hits += other.hits;
        self.faults += other.faults;
        self.sequential_pages += other.sequential_pages;
    }
}

/// An LRU page cache with O(1) access/eviction via an intrusive
/// doubly-linked list over a slab.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    stats: IoStats,
    // slot index per cached page id
    map: std::collections::HashMap<u64, usize>,
    // slab of (page_id, prev, next); usize::MAX = none
    slots: Vec<(u64, usize, usize)>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
}

const NONE: usize = usize::MAX;

impl BufferPool {
    /// A pool caching up to `capacity` pages. A capacity of 0 means every
    /// access faults.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            stats: IoStats::default(),
            map: std::collections::HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
        }
    }

    /// A pool sized to the paper's default: `fraction` of `total_pages`,
    /// but at least one page when the index is non-empty.
    pub fn for_index(total_pages: usize, fraction: f64) -> Self {
        let cap = ((total_pages as f64 * fraction).floor() as usize).max(1);
        Self::new(cap)
    }

    /// Registers a logical access to `page_id`; returns `true` on fault.
    pub fn access(&mut self, page_id: u64) -> bool {
        if self.capacity == 0 {
            self.stats.faults += 1;
            return true;
        }
        if let Some(&slot) = self.map.get(&page_id) {
            self.stats.hits += 1;
            self.move_to_front(slot);
            return false;
        }
        self.stats.faults += 1;
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = (page_id, NONE, NONE);
                s
            }
            None => {
                self.slots.push((page_id, NONE, NONE));
                self.slots.len() - 1
            }
        };
        self.map.insert(page_id, slot);
        self.push_front(slot);
        true
    }

    /// Current counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Drops all cached pages and counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
        self.stats = IoStats::default();
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].1 = NONE;
        self.slots[slot].2 = self.head;
        if self.head != NONE {
            self.slots[self.head].1 = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (_, prev, next) = self.slots[slot];
        if prev != NONE {
            self.slots[prev].2 = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.slots[next].1 = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NONE, "evict called on empty pool");
        let page_id = self.slots[victim].0;
        self.unlink(victim);
        self.map.remove(&page_id);
        self.free.push(victim);
    }
}

/// Pages needed to store `n` records of `record_bytes` each under the
/// sequential-file layout.
pub fn pages_for_records(n: usize, record_bytes: usize, page_size: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let per_page = (page_size / record_bytes).max(1);
    n.div_ceil(per_page) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_accesses_fault_then_hit() {
        let mut p = BufferPool::new(2);
        assert!(p.access(1));
        assert!(!p.access(1));
        assert_eq!(p.stats(), IoStats { hits: 1, faults: 1, sequential_pages: 0 });
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = BufferPool::new(2);
        p.access(1); // fault
        p.access(2); // fault
        p.access(1); // hit, 1 is now MRU
        p.access(3); // fault, evicts 2
        assert!(!p.access(1), "1 must still be cached");
        assert!(p.access(2), "2 must have been evicted");
        assert_eq!(p.map.len(), 2);
    }

    #[test]
    fn zero_capacity_always_faults() {
        let mut p = BufferPool::new(0);
        p.access(7);
        p.access(7);
        assert_eq!(p.stats().faults, 2);
        assert_eq!(p.stats().hits, 0);
    }

    #[test]
    fn sequential_reads_counted_separately() {
        let stats = IoStats {
            sequential_pages: 10,
            ..IoStats::default()
        };
        assert_eq!(stats.io_ms(8.0), 80.0);
    }

    #[test]
    fn for_index_sizes_to_fraction() {
        let p = BufferPool::for_index(100, 0.2);
        assert_eq!(p.capacity(), 20);
        // At least one page even for tiny indexes.
        assert_eq!(BufferPool::for_index(1, 0.2).capacity(), 1);
    }

    #[test]
    fn stats_merge() {
        let mut p = BufferPool::new(2);
        p.access(1);
        let mut total = IoStats::default();
        total.merge(&p.stats());
        assert_eq!(total.faults, 1);
    }

    #[test]
    fn clear_empties_cache() {
        let mut p = BufferPool::new(2);
        p.access(1);
        p.clear();
        assert!(p.map.is_empty());
        assert!(p.access(1), "page 1 faults again after clear");
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut p = BufferPool::new(16);
        for round in 0..4u64 {
            for id in 0..64u64 {
                p.access(id * 31 % 64 + round);
            }
        }
        assert!(p.map.len() <= 16);
        let s = p.stats();
        assert_eq!(s.hits + s.faults, 4 * 64);
    }

    #[test]
    fn pages_for_records_math() {
        assert_eq!(pages_for_records(0, 32, 4096), 0);
        assert_eq!(pages_for_records(128, 32, 4096), 1);
        assert_eq!(pages_for_records(129, 32, 4096), 2);
        // Oversized records: one per page.
        assert_eq!(pages_for_records(3, 8192, 4096), 3);
    }
}
