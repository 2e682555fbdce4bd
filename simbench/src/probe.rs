//! Host-speed probe: a fixed loop of the benchmark's own, timed between
//! executions, that scales host seconds to a reference host speed.
//!
//! The benchmark runs on a few cores of a shared machine whose speed drifts
//! by tens of percent over minutes as other tenants load the caches and
//! the cores. A raw host-second figure then moves with the neighbours as
//! much as with the program. The probe is a pointer chase over a 512 KiB
//! single cycle, so it lives in the core's private caches and slows under
//! the same contention that slows the simulator. It runs none of the
//! program's code, so scaling by it leaves every change to the program in
//! the figure.

use std::time::Instant;

/// Entries of the probe's cycle (`u32` each, 512 KiB).
const ENTRIES: usize = 128 * 1024;
/// Pointer hops per timed repeat.
const HOPS: usize = 1_000_000;
/// Timed repeats per probe; the probe reports their median, so a repeat
/// that refills caches the simulator evicted does not count.
const REPEATS: usize = 3;
/// Seconds one repeat takes on the reference host. A scaled figure reads
/// as the raw figure would on a host this fast.
pub const REFERENCE_S: f64 = 0.0075;

/// The probe's cycle, built once per process.
pub struct Probe {
    next: Vec<u32>,
}

impl Probe {
    /// A probe over a fixed cycle (Sattolo's algorithm on a fixed xorshift
    /// stream), the same in every run and at every seed.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Self { next }
    }

    /// The host's slowness now: the median repeat time over
    /// [`REFERENCE_S`]. Above 1 the host is slower than the reference.
    pub fn slowness(&self) -> f64 {
        let mut times: Vec<f64> = (0..REPEATS).map(|_| self.chase()).collect();
        times.sort_by(f64::total_cmp);
        times[REPEATS / 2] / REFERENCE_S
    }

    /// One timed repeat: [`HOPS`] dependent loads around the cycle.
    fn chase(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0usize;
        for _ in 0..HOPS {
            at = self.next[at] as usize;
        }
        std::hint::black_box(at);
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry_once() {
        let probe = Probe::new();
        let mut seen = vec![false; ENTRIES];
        let mut at = 0usize;
        for _ in 0..ENTRIES {
            assert!(!seen[at], "entry {at} visited twice");
            seen[at] = true;
            at = probe.next[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn slowness_is_positive_and_finite() {
        let s = Probe::new().slowness();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
