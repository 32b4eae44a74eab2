//! The server's cost read from outside the process: per-thread CPU time
//! from `/proc/<pid>/task`, peak resident memory from `/proc/<pid>/status`,
//! and the machine's steal share from `/proc/stat`.

use std::collections::BTreeMap;
use std::fs;

/// Server thread groups, keyed by the 15-byte `comm` prefix the kernel
/// keeps of each thread name.
pub const THREAD_GROUPS: [(&str, &str); 3] = [
    ("epoll", "imre-serve-epol"),
    ("worker", "imre-serve-work"),
    ("pool", "imre-tensor-wor"),
];

/// CPU nanoseconds per thread of one process at one instant.
#[derive(Clone, Default)]
pub struct CpuSnapshot {
    /// `tid → (comm, ns on CPU)`.
    threads: BTreeMap<u32, (String, u64)>,
}

impl CpuSnapshot {
    /// Reads every thread of `pid`. CPU time is the first field of
    /// `schedstat` (ns on CPU, excluding time stolen by the hypervisor),
    /// the same quantity as `utime + stime` at nanosecond resolution.
    pub fn take(pid: u32) -> CpuSnapshot {
        let mut threads = BTreeMap::new();
        let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
            return CpuSnapshot::default();
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            // A thread can exit between listing and reading; skip it.
            let (Ok(comm), Ok(sched)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            let Some(ns) = sched.split_whitespace().next().and_then(|v| v.parse().ok()) else {
                continue;
            };
            threads.insert(tid, (comm.trim().to_string(), ns));
        }
        CpuSnapshot { threads }
    }

    /// CPU nanoseconds spent since `before` by threads whose `comm` starts
    /// with `prefix` (all threads for `""`). Threads that started in
    /// between count from zero.
    pub fn since(&self, before: &CpuSnapshot, prefix: &str) -> u64 {
        self.threads
            .iter()
            .filter(|(_, (comm, _))| comm.starts_with(prefix))
            .map(|(tid, (_, ns))| {
                let base = before.threads.get(tid).map_or(0, |(_, b)| *b);
                ns.saturating_sub(base)
            })
            .sum()
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Machine-wide CPU tick counters: `(steal, total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user, so it is left out of the total.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU ticks between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}
