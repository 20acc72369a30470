//! Process-level probes through the C library std already links:
//! `getrusage(2)` for CPU time, context switches and peak RSS (summed over
//! every thread the process ever ran, exited ones included), and
//! `prctl(PR_SET_TIMERSLACK)` so the load generator's short sleeps wake on
//! time.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const PR_SET_TIMERSLACK: c_int = 29;
const PR_GET_TIMERSLACK: c_int = 30;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User CPU time, microseconds.
    pub user_us: u64,
    /// System CPU time, microseconds.
    pub sys_us: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size, KiB.
    pub max_rss_kib: u64,
}

impl ProcSample {
    /// Reads the counters now.
    pub fn now() -> ProcSample {
        // SAFETY: `Rusage` matches the Linux `struct rusage` layout (two
        // timevals then fourteen longs) and getrusage only writes into it.
        let mut ru = unsafe { std::mem::zeroed::<Rusage>() };
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let us = |t: &Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
        ProcSample {
            user_us: us(&ru.utime),
            sys_us: us(&ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            max_rss_kib: ru.maxrss as u64,
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_kib: self.max_rss_kib,
        }
    }

    /// User plus system CPU, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// The calling thread's timer slack, nanoseconds.
pub fn timer_slack() -> u64 {
    // SAFETY: PR_GET_TIMERSLACK reads the calling thread's slack.
    unsafe { prctl(PR_GET_TIMERSLACK) }.max(0) as u64
}

/// Sets the calling thread's timer slack. At 1 ns a 50 µs sleep wakes
/// after ~50 µs instead of up to the default 50 µs late. Applies to this
/// thread and to threads it spawns afterwards.
pub fn set_timer_slack(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling attributes.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, ns.max(1) as c_long) };
}

/// Online CPUs, as the scheduler sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
