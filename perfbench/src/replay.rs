//! Times the `protocols` layer from outside: a recorded shard-core trace
//! is replayed through a `Scheduler` wrapper that times every call, so
//! the numbers come from exactly the workload's decision sequence, and
//! `relser_server::replay` checks each decision against the record.

use relser_core::ids::{OpId, TxnId};
use relser_protocols::{Decision, Scheduler};
use relser_server::core::TraceEvent;
use relser_server::{replay, ReplayMismatch};
use std::time::Instant;

/// Per-call wall-clock times and decision counts of one replay.
#[derive(Default)]
pub struct SchedulerTimes {
    pub request_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub abort_ns: Vec<u64>,
    /// Every timed call, `begin` included.
    pub busy_ns: u64,
    pub grants: u64,
    pub blocks: u64,
    /// `Aborted` decisions plus session-initiated aborts.
    pub aborts: u64,
    pub commits: u64,
}

impl SchedulerTimes {
    pub fn merge(&mut self, other: SchedulerTimes) {
        self.request_ns.extend(other.request_ns);
        self.commit_ns.extend(other.commit_ns);
        self.abort_ns.extend(other.abort_ns);
        self.busy_ns += other.busy_ns;
        self.grants += other.grants;
        self.blocks += other.blocks;
        self.aborts += other.aborts;
        self.commits += other.commits;
    }
}

struct Timed<S> {
    inner: S,
    times: SchedulerTimes,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&mut self, txn: TxnId) {
        let t0 = Instant::now();
        self.inner.begin(txn);
        self.times.busy_ns += elapsed_ns(t0);
    }

    fn request(&mut self, op: OpId) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.request(op);
        let ns = elapsed_ns(t0);
        self.times.request_ns.push(ns);
        self.times.busy_ns += ns;
        match d {
            Decision::Granted => self.times.grants += 1,
            Decision::Blocked { .. } => self.times.blocks += 1,
            Decision::Aborted(_) => {}
        }
        d
    }

    fn commit(&mut self, txn: TxnId) {
        let t0 = Instant::now();
        self.inner.commit(txn);
        let ns = elapsed_ns(t0);
        self.times.commit_ns.push(ns);
        self.times.busy_ns += ns;
        self.times.commits += 1;
    }

    fn abort(&mut self, txn: TxnId) {
        let t0 = Instant::now();
        self.inner.abort(txn);
        let ns = elapsed_ns(t0);
        self.times.abort_ns.push(ns);
        self.times.busy_ns += ns;
        self.times.aborts += 1;
    }

    fn retired(&self, txn: TxnId) -> bool {
        self.inner.retired(txn)
    }
}

/// Replays `trace` through a timed `scheduler`, which must be fresh and
/// built over the universe the trace was recorded on.
pub fn timed_replay<S: Scheduler>(
    scheduler: S,
    trace: &[TraceEvent],
) -> Result<SchedulerTimes, ReplayMismatch> {
    let mut timed = Timed {
        inner: scheduler,
        times: SchedulerTimes::default(),
    };
    replay(&mut timed, trace)?;
    Ok(timed.times)
}
