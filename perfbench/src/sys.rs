//! Process-wide resource readings: CPU time, host steal and RSS.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, exited threads included, in ns.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resident set size of this process (`VmRSS`), in KiB.
pub fn rss_kb() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

/// CPU time the hypervisor gave other guests while this machine's
/// vCPUs were runnable (`steal` in `/proc/stat`, all CPUs), in ns.
/// Reported beside a run's figures: it is interference no benchmark
/// design removes.
pub fn steal_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * NS_PER_TICK)
}

/// `/proc/stat` counts in `USER_HZ` ticks, 100 per second on Linux:
/// the resolution of [`steal_ns`].
pub const NS_PER_TICK: u64 = 10_000_000;

/// Process CPU time, host steal and resident set, read together.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// See [`cpu_ns`].
    pub cpu_ns: u64,
    /// See [`steal_ns`].
    pub steal_ns: u64,
    /// See [`rss_kb`].
    pub rss_kb: u64,
}

impl Usage {
    /// All three now.
    pub fn now() -> Usage {
        Usage {
            cpu_ns: cpu_ns(),
            steal_ns: steal_ns(),
            rss_kb: rss_kb(),
        }
    }

    /// CPU time and steal between `earlier` and `self`, and the
    /// resident set at `self`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            steal_ns: self.steal_ns.saturating_sub(earlier.steal_ns),
            rss_kb: self.rss_kb,
        }
    }
}
