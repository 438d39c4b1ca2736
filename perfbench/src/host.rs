//! Host-speed scaling. The 2-core machine this benchmark was built on
//! shares its host with other tenants, and its speed changed by up to
//! 1.7× within minutes while showing no steal time. No median inside one
//! run removes a change that outlasts the run, so every timed run and
//! set-up sample is bracketed by two probes: a fixed kernel of the
//! benchmark's own. Each timing is scaled by the nominal probe time over
//! the mean of its two probes, which cancels the part of a host change
//! that the probe shares with the timed work. The probe runs no program
//! code, so a faster or slower program moves a scaled timing exactly as
//! it moves the raw one.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds the probe takes on the nominal host that timings are scaled
/// to (about what it took on the machine the benchmark was built on).
const PROBE_NOMINAL_SECS: f64 = 0.008;

/// Wall seconds of the probe: a 4 096-entry binary heap, a hash map and
/// float math, driven by splitmix64, about 8 ms.
fn probe_secs() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0;
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut heap: BinaryHeap<Reverse<u64>> = (0..4096).map(|_| Reverse(next() >> 20)).collect();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0.0f64;
    for _ in 0..100_000 {
        let Reverse(v) = heap.pop().expect("the heap never empties");
        let r = next();
        heap.push(Reverse(v + (r >> 44)));
        *counts.entry(r & 0x1fff).or_insert(0) += v & 1;
        acc += ((r >> 11) as f64).sqrt();
    }
    black_box((acc, counts.len()));
    start.elapsed().as_secs_f64()
}

/// Runs `timed` between two probes. Returns its result and the factor
/// that scales seconds measured inside it to the nominal host: the
/// nominal probe time over the mean of the two probes.
pub fn around<T>(timed: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_secs();
    let out = timed();
    let probe = (before + probe_secs()) / 2.0;
    (out, PROBE_NOMINAL_SECS / probe)
}
