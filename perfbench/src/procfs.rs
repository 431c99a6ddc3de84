//! Real CPU and memory of this process, read from `/proc` with std only.
//!
//! The engine's own `cpu` fields are wall time inside scheduling quanta,
//! not CPU; everything this benchmark calls CPU comes from here.
//!
//! * Process CPU (`/proc/self/stat` utime + stime) covers every thread
//!   that ever ran, including exited ones, at clock-tick resolution.
//! * Per-thread CPU (`/proc/self/task/<tid>/schedstat`, nanoseconds)
//!   covers live threads only, named by `/proc/self/task/<tid>/comm`.
//!
//! The difference between the two over a window is CPU burnt by threads
//! that exited inside it; on this engine those are the per-query
//! `split-feed-*` threads.

use std::collections::HashMap;
use std::fs;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ, which is 100 on
/// every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// Thread roles, by thread-name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// `worker-<node>-<thread>`: MLFQ executor threads.
    Executor,
    /// `client-<n>`: the benchmark's client threads, which run
    /// `Coordinator::execute` (parse, plan, schedule, drain).
    Coordinator,
    /// `liveness-monitor`: the failure detector.
    Liveness,
    /// `split-feed-*` threads still alive at the sample.
    SplitFeed,
    /// Anything else (the benchmark's main thread).
    Other,
}

impl Role {
    fn of(name: &str) -> Role {
        if name.starts_with("worker-") {
            Role::Executor
        } else if name.starts_with("client-") {
            Role::Coordinator
        } else if name.starts_with("liveness-") {
            Role::Liveness
        } else if name.starts_with("split-feed") {
            Role::SplitFeed
        } else {
            Role::Other
        }
    }
}

/// Process CPU (user + system) in seconds, all threads ever.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after ")".
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// CPU nanoseconds of every live thread, keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct ThreadSample {
    threads: HashMap<u64, (Role, u64)>,
}

impl ThreadSample {
    pub fn take() -> ThreadSample {
        let mut threads = HashMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry
                    .file_name()
                    .to_str()
                    .and_then(|s| s.parse::<u64>().ok())
                else {
                    continue;
                };
                let path = entry.path();
                let Ok(sched) = fs::read_to_string(path.join("schedstat")) else {
                    continue;
                };
                let ns = sched
                    .split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
                    .unwrap_or(0);
                let name = fs::read_to_string(path.join("comm")).unwrap_or_default();
                threads.insert(tid, (Role::of(name.trim()), ns));
            }
        }
        ThreadSample { threads }
    }

    /// CPU seconds per role burnt between `earlier` and `self` by threads
    /// alive at `self`. A thread born inside the window counts from zero.
    pub fn since(&self, earlier: &ThreadSample) -> HashMap<Role, f64> {
        let mut by_role = HashMap::new();
        for (tid, (role, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, ns)| *ns);
            *by_role.entry(*role).or_insert(0.0) += ns.saturating_sub(before) as f64 / 1e9;
        }
        by_role
    }

    /// Total CPU seconds of live threads between the two samples.
    pub fn total_since(&self, earlier: &ThreadSample) -> f64 {
        self.since(earlier).values().sum()
    }
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// ticks (`/proc/stat`), to tell a slow run on a busy host from a slow
/// program.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let busy = std::time::Instant::now();
        let before = ThreadSample::take();
        let mut x = 0u64;
        while busy.elapsed().as_millis() < 50 {
            x = x.wrapping_mul(31).wrapping_add(1);
        }
        assert!(x != 1);
        let after = ThreadSample::take();
        assert!(after.total_since(&before) > 0.01);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(Role::of("worker-0-1"), Role::Executor);
        assert_eq!(Role::of("split-feed-3-0"), Role::SplitFeed);
    }
}
