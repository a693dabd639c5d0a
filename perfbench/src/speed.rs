//! The host-speed index: how much slower than a quiet core the core the
//! benchmark runs on is at a given moment.
//!
//! On a shared host a vCPU runs up to 1.7 times slower for spells of
//! one to tens of seconds, while a neighbour's work busies its
//! hyperthread sibling or its host core. A workload with one busy
//! thread at a time (a closed loop whose client waits while the server
//! works) slows by about that factor, whatever the program does. Such a
//! workload runs pinned to one core, and a probe times a fixed kernel
//! of the benchmark's own, never the program's, on that core while the
//! loop is paused. The probe's time over the kernel's time on a quiet
//! core is the index; the run divides its times by the index around
//! them, so its figures read as on a quiet core.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Kernel time on a quiet core of the reference box (a 2-vCPU x86-64
/// VM), milliseconds: the fastest probes seen there.
pub const REFERENCE_MS: f64 = 2.0;

/// Lookups a kernel makes.
const ROUNDS: usize = 160_000;
/// Words in the lookup table: 256 KiB, so the kernel works the caches
/// as well as the ALUs, as the serving code does.
const TABLE: usize = 1 << 15;

fn table() -> &'static [u64] {
    static T: OnceLock<Vec<u64>> = OnceLock::new();
    T.get_or_init(|| {
        let mut x = 7u64;
        (0..TABLE)
            .map(|_| {
                x = mix(x);
                x
            })
            .collect()
    })
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One kernel run on the calling thread, milliseconds.
fn kernel_ms() -> f64 {
    let t = table();
    let start = Instant::now();
    let mut x = black_box(1u64);
    for _ in 0..ROUNDS {
        x = mix(x ^ t[(x as usize) & (TABLE - 1)]);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The index now: the kernel run at once on each of `cores`, one thread
/// pinned to each, their mean time over [`REFERENCE_MS`].
pub fn probe(cores: &[usize]) -> Result<f64, String> {
    table();
    let times = std::thread::scope(|s| {
        let threads: Vec<_> = cores
            .iter()
            .map(|&c| s.spawn(move || pin(c).map(|()| kernel_ms())))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("speed probe panicked"))
            .collect::<Result<Vec<f64>, String>>()
    })?;
    Ok(times.iter().sum::<f64>() / times.len() as f64 / REFERENCE_MS)
}

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The cores the calling thread may run on.
pub fn allowed_cores() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cores: Vec<usize> = (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    if cores.is_empty() {
        return Err("the affinity mask is empty".into());
    }
    Ok(cores)
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// `core`.
pub fn pin(core: usize) -> Result<(), String> {
    let mut one = [0u64; MASK_WORDS];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Probes taken through a measured phase, and the index they give each
/// moment of it.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// `(seconds into the phase, index)`, in time order.
    pub at: Vec<(f64, f64)>,
}

impl Probes {
    /// The index at `seconds`: the mean of the probes just before and
    /// just after it (the nearest one at either end; 1 with no probes).
    pub fn index(&self, seconds: f64) -> f64 {
        let after = self.at.partition_point(|&(t, _)| t <= seconds);
        match (after.checked_sub(1).map(|i| self.at[i].1), self.at.get(after).map(|p| p.1)) {
            (Some(a), Some(b)) => (a + b) / 2.0,
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_averages_the_probes_around_a_moment() {
        let p = Probes {
            at: vec![(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)],
        };
        assert_eq!(p.index(0.5), 1.5);
        assert_eq!(p.index(1.5), 1.5);
        assert_eq!(p.index(2.5), 1.0);
        assert_eq!(Probes::default().index(3.0), 1.0);
    }

    #[test]
    fn probe_is_positive_and_finite() {
        let f = probe(&allowed_cores().unwrap()).unwrap();
        assert!(f.is_finite() && f > 0.0);
    }
}
