//! Host-side measurements read from `/proc`: per-thread CPU and
//! run-queue time, hypervisor steal, and peak resident memory.
//!
//! CPU time is the sum over the process's threads of the on-CPU time in
//! `/proc/self/task/<tid>/schedstat` (nanoseconds, user + system), so it
//! leaves out time a thread spent runnable but waiting for a core — that
//! wait is the second field of the same file and is reported on its own.

use std::fs;

/// Thread name prefix of the solver's worker-pool threads.
const POOL_THREAD_PREFIX: &str = "rbx-pool";

/// A snapshot of the process's threads and the host CPU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostSample {
    /// On-CPU nanoseconds summed over all live threads.
    pub cpu_ns: u64,
    /// Runnable-but-waiting nanoseconds summed over all live threads.
    pub runq_ns: u64,
    /// On-CPU nanoseconds of the worker-pool threads alone.
    pub pool_cpu_ns: u64,
    /// Host steal jiffies (`/proc/stat`, `cpu` line).
    pub steal: u64,
    /// Host total jiffies over every state (`/proc/stat`, `cpu` line).
    pub jiffies: u64,
}

/// Differences between two samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostDelta {
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Process run-queue wait seconds.
    pub runq_s: f64,
    /// Worker-pool CPU seconds.
    pub pool_cpu_s: f64,
    /// Steal jiffies.
    pub steal: u64,
    /// Total jiffies.
    pub jiffies: u64,
}

impl HostDelta {
    /// Accumulate another interval.
    pub fn add(&mut self, o: &HostDelta) {
        self.cpu_s += o.cpu_s;
        self.runq_s += o.runq_s;
        self.pool_cpu_s += o.pool_cpu_s;
        self.steal += o.steal;
        self.jiffies += o.jiffies;
    }

    /// Share of host CPU time stolen by the hypervisor.
    pub fn steal_frac(&self) -> f64 {
        if self.jiffies == 0 {
            0.0
        } else {
            self.steal as f64 / self.jiffies as f64
        }
    }
}

impl HostSample {
    /// Read the current counters.
    pub fn now() -> Result<Self, String> {
        let mut s = HostSample::default();
        let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        for task in tasks.flatten() {
            let dir = task.path();
            // A thread may exit between listing and reading; skip it.
            let Ok(stat) = fs::read_to_string(dir.join("schedstat")) else {
                continue;
            };
            let (run, wait) =
                parse_schedstat(&stat).ok_or_else(|| format!("unreadable schedstat {stat:?}"))?;
            s.cpu_ns += run;
            s.runq_ns += wait;
            let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if name.starts_with(POOL_THREAD_PREFIX) {
                s.pool_cpu_ns += run;
            }
        }
        let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        (s.steal, s.jiffies) =
            parse_cpu_line(&stat).ok_or_else(|| "no cpu line in /proc/stat".to_string())?;
        Ok(s)
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &HostSample) -> HostDelta {
        let ns = |a: u64, b: u64| a.saturating_sub(b) as f64 * 1e-9;
        HostDelta {
            cpu_s: ns(self.cpu_ns, earlier.cpu_ns),
            runq_s: ns(self.runq_ns, earlier.runq_ns),
            pool_cpu_s: ns(self.pool_cpu_ns, earlier.pool_cpu_ns),
            steal: self.steal.saturating_sub(earlier.steal),
            jiffies: self.jiffies.saturating_sub(earlier.jiffies),
        }
    }
}

/// `(on-CPU ns, run-queue wait ns)` from a schedstat line.
fn parse_schedstat(line: &str) -> Option<(u64, u64)> {
    let mut f = line.split_whitespace().map(str::parse::<u64>);
    Some((f.next()?.ok()?, f.next()?.ok()?))
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of /proc/stat.
/// Guest time is already counted in user time, so it is left out of the
/// total.
fn parse_cpu_line(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let steal = *v.get(7)?;
    let total = v.iter().take(8).sum();
    Some((steal, total))
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(parse_schedstat("123 456 7\n"), Some((123, 456)));
        assert_eq!(parse_schedstat("x"), None);
        let stat = "cpu  10 1 5 100 2 0 3 7 4 0\ncpu0 1 1 1 1 1 1 1 1 1 1\n";
        assert_eq!(parse_cpu_line(stat), Some((7, 128)));
    }

    #[test]
    fn samples_the_running_process() {
        let a = HostSample::now().expect("proc is readable");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = HostSample::now().expect("proc is readable").since(&a);
        assert!(d.cpu_s > 0.0);
        assert!(peak_rss_mb().expect("status is readable") > 0.0);
    }
}
