//! A fixed probe of the host's speed: the same hash-map work in every
//! run and at every commit, independent of the repository's code.
//!
//! On a shared host the other tenants change how fast every thread
//! runs, by up to a third for minutes at a time. The fast end of the
//! probe's times over a run tracks the fast end of the server's segment
//! throughput (correlation 0.94–0.98 over twelve runs of the three
//! workloads on the 2-vCPU reference VM), so dividing the host's speed
//! out of the throughput and CPU metrics leaves the server's own.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Map updates per probe: about 1.3 ms on the reference VM.
const UPDATES: u64 = 100_000;
/// Distinct keys: a map that stays in the core's own caches.
const KEYS: u64 = 4096;
/// Probes per sampling point.
const REPEATS: usize = 3;

/// Probe times (ns) collected over a run.
#[derive(Default)]
pub struct HostProbe {
    pub samples_ns: Vec<f64>,
}

impl HostProbe {
    /// Time the probe `REPEATS` times.
    pub fn sample(&mut self) {
        for _ in 0..REPEATS {
            let started = Instant::now();
            black_box(probe());
            self.samples_ns.push(started.elapsed().as_nanos() as f64);
        }
    }
}

/// Sum `UPDATES` values into a `KEYS`-entry hash map at xorshift keys.
fn probe() -> HashMap<u64, f64> {
    let mut map = HashMap::with_capacity(KEYS as usize);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % KEYS).or_insert(0.0) += i as f64;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        let map = probe();
        assert_eq!(map.len(), KEYS as usize);
        let total: f64 = map.values().sum();
        assert_eq!(total, (UPDATES * (UPDATES - 1) / 2) as f64);
        let mut p = HostProbe::default();
        p.sample();
        assert_eq!(p.samples_ns.len(), REPEATS);
        assert!(p.samples_ns.iter().all(|&ns| ns > 0.0));
    }
}
