//! CPU-time clocks, which std does not wrap.
//!
//! The service is latency-bound across its threads, so time the host
//! steals from the machine's virtual CPUs stretches its wall-clock
//! figures by far more than the stolen share. The kernel leaves stolen
//! time out of these clocks, so the CPU time a piece of work used stays
//! put while the host is busy.

use std::ffi::{c_int, c_long, c_ulong};
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's clock_gettime binding assumes 64-bit Linux");

/// `struct timespec` on 64-bit Linux (`time_t` is `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn pthread_self() -> c_ulong;
    fn pthread_getcpuclockid(thread: c_ulong, clock: *mut c_int) -> c_int;
}

fn try_read(clock: c_int) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `#[repr(C)]` timespec
    // that clock_gettime fills in; it outlives the call.
    let r = unsafe { clock_gettime(clock, &mut ts) };
    (r == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

fn read(clock: c_int) -> Duration {
    try_read(clock).unwrap_or_else(|| panic!("clock_gettime({clock}) failed"))
}

/// The CPU-time clock of one thread, readable from any thread of the
/// process while that thread lives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ThreadClock(c_int);

impl ThreadClock {
    /// The calling thread's clock.
    pub fn current() -> ThreadClock {
        let mut clock: c_int = 0;
        // SAFETY: pthread_self has no preconditions; `clock` is a valid,
        // exclusively borrowed clockid_t that pthread_getcpuclockid fills
        // in, and it outlives the call.
        let r = unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
        assert_eq!(r, 0, "pthread_getcpuclockid failed");
        ThreadClock(clock)
    }

    /// CPU time the thread has used so far; `None` once it has ended.
    pub fn read(self) -> Option<Duration> {
        try_read(self.0)
    }
}

/// CPU time every thread of this process has used so far.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time every thread of this process but the calling one has used so
/// far: the service's threads, when the client thread asks.
pub fn others() -> Duration {
    let own = read(CLOCK_THREAD_CPUTIME_ID);
    process().saturating_sub(own)
}
