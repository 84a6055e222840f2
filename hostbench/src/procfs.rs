//! Host accounting read from `/proc`.
//!
//! Every field is an `Option`: a file or field the kernel does not
//! provide reads as `None` and is reported as missing, never as 0.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`, fixed
/// at 100 by the Linux user-space ABI.
const USER_HZ: f64 = 100.0;

/// Scheduler and context-switch counters of the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSample {
    /// Nanoseconds on CPU (`schedstat` field 1).
    pub oncpu_ns: Option<u64>,
    /// Nanoseconds runnable but waiting on a run queue (`schedstat` field 2).
    pub runq_ns: Option<u64>,
    /// Voluntary context switches: the thread blocked, e.g. parked.
    pub voluntary_cs: Option<u64>,
}

impl ThreadSample {
    /// Read `/proc/thread-self/{schedstat,status}`.
    pub fn now() -> Self {
        let sched = fs::read_to_string("/proc/thread-self/schedstat").ok();
        let field = |i: usize| {
            sched.as_deref().and_then(|t| t.split_whitespace().nth(i)).and_then(|v| v.parse().ok())
        };
        let status = fs::read_to_string("/proc/thread-self/status").ok();
        ThreadSample {
            oncpu_ns: field(0),
            runq_ns: field(1),
            voluntary_cs: status
                .as_deref()
                .and_then(|s| status_field(s, "voluntary_ctxt_switches")),
        }
    }

    /// Field-wise `self - earlier`; missing on either side stays missing.
    pub fn since(&self, earlier: &ThreadSample) -> ThreadSample {
        let d = |a: Option<u64>, b: Option<u64>| Some(a?.saturating_sub(b?));
        ThreadSample {
            oncpu_ns: d(self.oncpu_ns, earlier.oncpu_ns),
            runq_ns: d(self.runq_ns, earlier.runq_ns),
            voluntary_cs: d(self.voluntary_cs, earlier.voluntary_cs),
        }
    }
}

/// The numeric value of a `Key:  value [kB]` line of a `status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// User + system CPU seconds of the whole process, every thread it ever
/// ran included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let mut rest = stat[stat.rfind(')')? + 1..].split_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Host-wide CPU ticks from the first line of `/proc/stat`: the total
/// and the `steal` share, time a virtual machine's CPUs were runnable but
/// held by the hypervisor.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Peak resident set size of the process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_and_absent_keys_are_missing() {
        let s = "Name:\tx\nVmHWM:\t  1234 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(1234));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches"), None);
    }

    #[test]
    fn deltas_keep_missing_fields_missing() {
        let a = ThreadSample { oncpu_ns: Some(10), runq_ns: None, ..Default::default() };
        let b = ThreadSample { oncpu_ns: Some(25), runq_ns: Some(5), ..Default::default() };
        let d = b.since(&a);
        assert_eq!(d.oncpu_ns, Some(15));
        assert_eq!(d.runq_ns, None);
        assert_eq!(d.voluntary_cs, None);
    }

    #[test]
    fn this_process_reports_cpu_and_peak_rss() {
        assert!(process_cpu_s().is_some());
        assert!(cpu_ticks().is_some_and(|(total, steal)| total > steal));
        assert!(peak_rss_kib().unwrap_or(0) > 0);
        assert!(ThreadSample::now().voluntary_cs.is_some());
    }
}
