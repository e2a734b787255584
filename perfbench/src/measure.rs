//! Process-level measurements: CPU time, peak memory, the host-speed
//! reference loop, and the order statistics the benchmark reports.

use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time and peak memory through 64-bit Linux getrusage");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux: two timevals followed by
/// fourteen `long` fields, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (enforced by the `compile_error!` gate above), and
    // getrusage writes exactly one such struct through the pointer.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_seconds(usage: &Rusage) -> f64 {
    let micros =
        (usage.utime.sec + usage.stime.sec) * 1_000_000 + usage.utime.usec + usage.stime.usec;
    micros as f64 / 1e6
}

/// User plus system CPU seconds of this process (all threads) plus every
/// child process it has reaped so far.
pub fn cpu_s() -> f64 {
    cpu_seconds(&rusage(RUSAGE_SELF)) + cpu_seconds(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of the largest child process reaped so far, MiB.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// Peak resident set of this process over its lifetime (`VmHWM`), MiB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Iterations of the host-speed loop: about a tenth of a second of
/// dependent integer work on a current x86-64 core.
const HOST_LOOP_ITERATIONS: u64 = 60_000_000;

/// Wall milliseconds of a fixed, dependent xorshift loop. It touches no
/// memory and no code of the program under test, so a change in it
/// between two runs is a change of the host's speed, not of LFI.
pub fn host_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..black_box(HOST_LOOP_ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The share of CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`) since [`StealMeter::start`]: beside the host loop, it
/// tells co-tenant load apart from a change in the program.
pub struct StealMeter {
    steal: u64,
    total: u64,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        let (steal, total) = steal_and_total_jiffies();
        StealMeter { steal, total }
    }

    pub fn share(&self) -> f64 {
        let (steal, total) = steal_and_total_jiffies();
        let elapsed = total.saturating_sub(self.total);
        if elapsed == 0 {
            0.0
        } else {
            steal.saturating_sub(self.steal) as f64 / elapsed as f64
        }
    }
}

/// Steal and total jiffies of all CPUs: the first line of `/proc/stat` is
/// `cpu user nice system idle iowait irq softirq steal ...`.
fn steal_and_total_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|field| field.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// splitmix64: the benchmark's seed-derived choices (replay samples,
/// pass seeds) come from this, never from the clock.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_counters_are_live() {
        assert!(self_peak_rss_mb() > 0.0);
        assert!(host_loop_ms() > 0.0);
        assert!(cpu_s() > 0.0);
    }
}
