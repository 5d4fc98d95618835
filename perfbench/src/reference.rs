//! A fixed piece of the benchmark's own work, timed to tell how fast the
//! machine ran during a run.
//!
//! CPU time is immune to the host stealing a vCPU, but not to the host
//! slowing one down: another guest on the same physical core, or sharing
//! its cache and memory, makes every instruction dearer. This work is the
//! same in every run and shares none of the repository's code, so its
//! CPU time (`bench.reference_ms`) shows how fast the machine ran, and
//! sets of runs made at different speeds can be told apart. It is
//! reported, never used to scale the service's figures: in one set of
//! runs they followed it closely, in another not at all (README.md).

use crate::cpu;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

/// Bytes of the freshly allocated buffer each run touches and reads.
const BUFFER: usize = 8 << 20;
/// Keys inserted into, then looked up in, a hash map each run.
const KEYS: u64 = 1 << 16;
/// Random reads from the buffer each run.
const READS: usize = 1 << 18;

/// Does the fixed work once and returns the process CPU time it took.
/// Call it only while no other thread of the process is busy.
pub fn run() -> Duration {
    let start = cpu::process();
    // First touch of fresh memory, as every scheduler build does.
    let mut buf = vec![0u64; BUFFER / 8];
    for (i, word) in buf.iter_mut().enumerate().step_by(4096 / 8) {
        *word = i as u64;
    }
    // Hashing, probing and allocation, as the service's maps do.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = HashMap::with_capacity(KEYS as usize);
    for k in 0..KEYS {
        map.insert(next(), k);
    }
    let mut sum = 0u64;
    for _ in 0..KEYS {
        sum = sum.wrapping_add(map.get(&next()).copied().unwrap_or(1));
    }
    // Dependent reads scattered over the buffer: cache misses.
    let mut at = 0usize;
    for _ in 0..READS {
        at = (buf[at] as usize ^ next() as usize) % buf.len();
        sum = sum.wrapping_add(at as u64);
    }
    black_box((sum, &buf, &map));
    cpu::process() - start
}
