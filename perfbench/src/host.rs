//! Host-side measurements of the benchmark process itself: CPU time,
//! resident memory, and wall-clock timestamps. Linux only.

use std::time::{SystemTime, UNIX_EPOCH};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process.
///
/// # Panics
///
/// Panics if the kernel rejects the clock, which Linux never does for
/// this clock id.
#[must_use]
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resident set (`VmRSS`) and its high-water mark (`VmHWM`) in MiB, read
/// from `/proc/self/status`; zero for a field the kernel does not report.
#[must_use]
pub fn memory_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Nanoseconds since the Unix epoch. The parent process reads the same
/// clock just before spawning, so the difference is time since spawn.
#[must_use]
pub fn unix_ns() -> u64 {
    let since = SystemTime::now().duration_since(UNIX_EPOCH).expect("clock after 1970");
    u64::try_from(since.as_nanos()).expect("timestamp fits u64")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_seconds() > before, "{x}");
    }

    #[test]
    fn memory_readings_are_positive_and_ordered() {
        let (rss, hwm) = memory_mb();
        assert!(rss > 0.0 && hwm >= rss, "rss {rss} hwm {hwm}");
    }
}
