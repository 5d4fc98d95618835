//! Counting-allocator proof that the interned [`AtomicitySpec`] costs no
//! per-pair memory after it is built:
//!
//! * cloning a spec allocates nothing;
//! * `RsgSgt::new` allocates in proportion to the operations of the set,
//!   not to the `n²` pairs of its spec;
//! * `random_spec` allocates a number of times that does not grow with
//!   the number of pairs.
//!
//! This file deliberately contains a single `#[test]`: the counters are
//! process-global, and a sibling test allocating concurrently would
//! produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_workload::{random_spec, random_txns, RandomConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result, the number of
/// allocations and the bytes requested.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    )
}

fn universe(n: usize) -> TxnSet {
    let cfg = RandomConfig {
        txns: n,
        ops_per_txn: (1, 4),
        objects: 64,
        ..Default::default()
    };
    random_txns(&cfg, 11)
}

#[test]
fn spec_clones_and_scheduler_setup_cost_no_per_pair_memory() {
    let small = universe(256);
    let large = universe(1024);

    // random_spec: the allocation count is flat in the pair count (16×
    // more pairs here); only the id table's single allocation grows.
    let (_, small_allocs, _) = counted(|| random_spec(&small, 0.4, 3));
    let (spec, large_allocs, _) = counted(|| random_spec(&large, 0.4, 3));
    assert!(
        large_allocs <= small_allocs + 2,
        "random_spec allocated {small_allocs} times for 256 txns, {large_allocs} for 1024"
    );
    assert!(
        large_allocs < 64,
        "random_spec allocated {large_allocs} times"
    );

    // Cloning shares the table.
    let (copy, clone_allocs, clone_bytes) = counted(|| spec.clone());
    assert_eq!(
        (clone_allocs, clone_bytes),
        (0, 0),
        "spec.clone() allocated"
    );
    assert!(copy == spec);

    // The scheduler keeps its own handle on the spec but no copy of it:
    // its set-up grows like the operation count (4× here), not like the
    // pair count (16×).
    let small_spec = random_spec(&small, 0.4, 3);
    let (_, _, small_bytes) = counted(|| RsgSgt::new(&small, &small_spec));
    let (_, _, large_bytes) = counted(|| RsgSgt::new(&large, &spec));
    let (small_ops, large_ops) = (small.total_ops() as u64, large.total_ops() as u64);
    assert!(
        large_bytes < 8 * small_bytes,
        "RsgSgt::new allocated {small_bytes} B for 256 txns, {large_bytes} B for 1024"
    );
    for (bytes, ops) in [(small_bytes, small_ops), (large_bytes, large_ops)] {
        assert!(
            bytes <= 1024 * ops,
            "RsgSgt::new allocated {bytes} B for {ops} operations"
        );
    }
}
