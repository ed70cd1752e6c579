//! What the kernel reports about this process: per-thread CPU and run-queue
//! time (`schedstat`), context switches and peak RSS (`status`), and the
//! host the numbers were taken on.  Parsing is split from reading so the
//! parsers can be tested on fixture strings.

use std::fs;

/// One thread's `/proc/<pid>/task/<tid>/schedstat`: time on a CPU, time
/// runnable but waiting for one, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_ascii_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        run_ns: fields.next()?.ok()?,
        wait_ns: fields.next()?.ok()?,
        slices: fields.next()?.ok()?,
    })
}

/// A numeric `Key:\t<n> [kB]` line of a `status` file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// CPU, run-queue wait and voluntary context switches summed over a set of
/// threads; the difference of two samples covers an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSample {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub voluntary_switches: u64,
}

impl ThreadSample {
    pub fn since(self, earlier: ThreadSample) -> ThreadSample {
        ThreadSample {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

fn task_dirs() -> Vec<std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// Samples every thread of this process whose name passes `keep`.  The
/// kernel truncates names to 15 bytes, so the transport's
/// `khameleon-transport` reads `khameleon-trans` and every shard thread
/// (`khameleon-shard-io-0`, `-accept`, `-0`) reads `khameleon-shard`.
pub fn sample_threads(keep: impl Fn(&str) -> bool) -> ThreadSample {
    let mut total = ThreadSample::default();
    for dir in task_dirs() {
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !keep(name.trim_end()) {
            continue;
        }
        if let Some(s) = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        {
            total.run_ns += s.run_ns;
            total.wait_ns += s.wait_ns;
        }
        total.voluntary_switches += fs::read_to_string(dir.join("status"))
            .ok()
            .and_then(|s| parse_status_field(&s, "voluntary_ctxt_switches"))
            .unwrap_or(0);
    }
    total
}

/// All threads of the process.
pub fn sample_process() -> ThreadSample {
    sample_threads(|_| true)
}

/// The system's own server threads (see [`sample_threads`] on names).
pub fn sample_server_threads() -> ThreadSample {
    sample_threads(|name| name.starts_with("khameleon-"))
}

extern "C" {
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins thread `tid` (0: the calling thread) to `cpu`.  Best effort.
fn pin(tid: i32, cpu: usize) {
    let mask: u64 = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 8-byte bitmask and `cpusetsize` is its size;
    // the kernel only reads it.  A failure (bad tid, CPU not allowed) leaves
    // the thread where it was, which is all "best effort" promises.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask);
    }
}

/// Gives the system's server threads one CPU and the calling (generator)
/// thread another, when the host has two.  Left to the kernel, the two busy
/// threads of a socket workload sometimes share a CPU for a stretch, and
/// run-queue waits of 1 % or 20 % of the time then decide the latencies.
pub fn separate_server_and_generator() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    for dir in task_dirs() {
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let tid = dir
            .file_name()
            .and_then(|n| n.to_str()?.parse::<i32>().ok());
        if let (true, Some(tid)) = (name.starts_with("khameleon-"), tid) {
            pin(tid, 0);
        }
    }
    pin(0, 1);
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// The host a result was measured on.
pub struct Host {
    pub kernel: String,
    pub cpu_model: String,
    pub nproc: usize,
}

pub fn host() -> Host {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        cpu_model,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture() {
        assert_eq!(
            parse_schedstat("1234567 89012 345\n"),
            Some(SchedStat {
                run_ns: 1_234_567,
                wait_ns: 89_012,
                slices: 345
            })
        );
        assert_eq!(parse_schedstat("12 x 3"), None);
        assert_eq!(parse_schedstat("12 34"), None);
    }

    #[test]
    fn status_fixture() {
        let status = "Name:\tkbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\n\
                      Threads:\t3\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51_200));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(42)
        );
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // A key that is a prefix of another must not match the longer line.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn samples_this_process() {
        let before = sample_process();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let spent = sample_process().since(before);
        assert!(spent.run_ns > 0, "busy loop must show up as CPU time");
        assert!(peak_rss_mb() > 0.0);
        assert!(host().nproc >= 1);
    }
}
