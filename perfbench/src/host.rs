//! Host counters: process CPU time, CPU time stolen by the hypervisor
//! (from `/proc/stat`), and peak resident memory (from `/proc/self/status`).

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux counters and assumes a 64-bit `struct timespec`");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The CPU time of every thread of the calling process, including threads
/// that have exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of this process (all its threads, including ones that have
/// exited), seconds, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
///
/// It counts nanoseconds. The tick counts of `/proc/self/stat` round to
/// 10 ms, and a running thread's `/proc/<pid>/task/<tid>/schedstat` lags
/// by up to a scheduler tick (4 ms on a 250 Hz kernel); either would round
/// a 60 ms set-up by several percent. On kernels with paravirtual steal
/// accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) time the hypervisor
/// steals from a running thread is not counted.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, which writes only to it.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(format!("clock_gettime: {}", std::io::Error::last_os_error()));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Aggregate CPU tick counters of the whole machine at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Read the `cpu` line of `/proc/stat`.
    pub fn now() -> Result<Self, String> {
        let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let line =
            stat.lines().find(|l| l.starts_with("cpu ")).ok_or("no cpu line in /proc/stat")?;
        let ticks: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already included in user time.
        let total = ticks.iter().take(8).sum();
        let steal = ticks.get(7).copied().unwrap_or(0);
        Ok(Self { steal, total })
    }

    /// Share of all CPU time between `self` and `later` that the hypervisor
    /// stole; 0 when no tick elapsed.
    pub fn steal_share_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_monotone() {
        let cpu0 = cpu_seconds().unwrap();
        let ticks0 = CpuTicks::now().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().unwrap() > cpu0);
        let share = ticks0.steal_share_until(&CpuTicks::now().unwrap());
        assert!((0.0..=1.0).contains(&share));
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
