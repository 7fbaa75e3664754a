//! Clocks the standard library does not expose: per-thread and
//! per-process CPU time (`clock_gettime`, declared here so the benchmark
//! needs no new dependency) and the process's peak resident set size.

use std::time::Instant;

/// Whether this platform has the clocks below. kbench refuses to run
/// elsewhere rather than report zero CPU time.
pub const SUPPORTED: bool = cfg!(all(target_os = "linux", target_pointer_width = "64"));

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_ns(clock: i32) -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout, and `clock` is one of the two CPU-time clock ids below,
    // which every Linux kernel supports for the calling process/thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_ns(_clock: i32) -> u64 {
    0
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One reading of the three clocks kbench puts around a call.
#[derive(Clone, Copy)]
pub struct Reading {
    wall: Instant,
    thread_ns: u64,
    process_ns: u64,
}

/// Wall, session-thread CPU and process CPU elapsed between two readings.
#[derive(Clone, Copy, Default)]
pub struct Span {
    pub wall_ns: u64,
    pub thread_ns: u64,
    pub process_ns: u64,
}

impl Reading {
    /// Read the clocks; with `cpu` off only the wall clock is read, so an
    /// untraced run pays for one `Instant::now` per boundary.
    pub fn now(cpu: bool) -> Reading {
        let (thread_ns, process_ns) = if cpu {
            (thread_cpu_ns(), process_cpu_ns())
        } else {
            (0, 0)
        };
        Reading {
            wall: Instant::now(),
            thread_ns,
            process_ns,
        }
    }

    /// The span from `self` to a later reading `end` taken in the same mode.
    pub fn to(self, end: Reading) -> Span {
        Span {
            wall_ns: end.wall.duration_since(self.wall).as_nanos() as u64,
            thread_ns: end.thread_ns.saturating_sub(self.thread_ns),
            process_ns: end.process_ns.saturating_sub(self.process_ns),
        }
    }
}

impl Span {
    /// Time the calling thread spent off CPU: sleeping (simulated charges)
    /// or blocked on the worker pool.
    pub fn offcpu_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.thread_ns)
    }

    /// CPU time of the other threads of the process (the worker pool).
    pub fn worker_cpu_ns(&self) -> u64 {
        self.process_ns.saturating_sub(self.thread_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        if !SUPPORTED {
            return;
        }
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let t1 = thread_cpu_ns();
        assert!(t1 > t0, "busy loop consumed no thread CPU ({x})");
        let r0 = Reading::now(true);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let span = r0.to(Reading::now(true));
        assert!(span.wall_ns >= 30_000_000);
        assert!(span.thread_ns < 10_000_000, "a sleep is off CPU");
        assert!(span.offcpu_ns() >= 20_000_000);
        assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
    }
}
