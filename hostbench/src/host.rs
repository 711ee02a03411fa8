//! Host clocks and provenance: process CPU time, peak resident memory,
//! hypervisor steal, core count and CPU affinity.
//!
//! Everything is read from the standard library or `/proc`; the two
//! foreign calls, `clock_gettime` and `sched_setaffinity`, are in the C
//! library `std` already links.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every thread
/// of the process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds (user + sys, all threads) since process start.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A field of `/proc/self/status` (e.g. `VmHWM`), as its raw text.
fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':').map(|v| v.trim().to_string()))
}

/// The process's high-water resident memory in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn cpus_allowed() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string())
}

/// The CPUs this process may run on, parsed from [`cpus_allowed`]
/// (e.g. `0-3,6`); empty if the list cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in cpus_allowed().split(',') {
        let mut ends = part.trim().splitn(2, '-').map(|n| n.parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) if a <= b => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Pin the calling thread, and every thread it spawns afterwards, to
/// `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    // A `cpu_set_t`: 1024 CPU bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned 128-byte CPU set and the
    // size passed is exactly its length in bytes; pid 0 names the calling
    // thread, and the kernel only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Cumulative hypervisor steal over all CPUs, in seconds (the `steal`
/// column of `/proc/stat`, in `USER_HZ` = 100 ticks per second).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Host cores visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The compiler that built the benchmark.
pub const RUSTC: &str = env!("HOSTBENCH_RUSTC");

/// Wall, process-CPU and steal clocks read together, so one interval can
/// be measured on all three.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
    steal_s: f64,
}

/// One measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + sys, all threads).
    pub cpu_s: f64,
    /// Host steal seconds over all CPUs.
    pub steal_s: f64,
}

impl Stamp {
    /// Read every clock now.
    pub fn now() -> Self {
        Stamp { steal_s: steal_s(), cpu_s: process_cpu_s(), wall: Instant::now() }
    }

    /// The interval from this stamp to now.
    pub fn elapsed(&self) -> Interval {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - self.cpu_s;
        Interval { wall_s, cpu_s, steal_s: steal_s() - self.steal_s }
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn clocks_advance() {
        let t = Stamp::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let iv = t.elapsed();
        assert!(iv.wall_s > 0.0 && iv.cpu_s > 0.0, "{iv:?} {x}");
        assert!(iv.steal_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert!(!allowed_cpus().is_empty());
    }
}
