//! The host the run measures on: core count, load, steal time, CPU time
//! and peak resident memory, read from `/proc`.

/// Kernel clock ticks per second for `/proc` time fields (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, if readable.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Virtual CPUs of the guest, over which `/proc/stat` sums steal time:
/// its `cpuN` lines (the available parallelism where unreadable).
pub fn vcpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .map(|stat| {
            stat.lines()
                .filter(|l| {
                    l.strip_prefix("cpu")
                        .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
                })
                .count()
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// Machine-wide steal time so far, in seconds (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`).
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / USER_HZ)
}

/// User + system CPU seconds of this process and its reaped children
/// (the process backend's worker processes), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime, stime, cutime and cstime are fields 14–17.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak anonymous resident memory in MB since the last [`reset_peak_rss`]:
/// `VmHWM` less the file-backed resident pages (`RssFile`: the binary and
/// its libraries), which measure code size and which the kernel may drop
/// and fault back in under memory pressure from other processes.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    let kb = |field: &str| -> Option<f64> {
        let line = status.lines().find_map(|l| l.strip_prefix(field))?;
        line.trim().trim_end_matches("kB").trim().parse().ok()
    };
    match (kb("VmHWM:"), kb("RssFile:")) {
        (Some(hwm), Some(file)) => (hwm - file) / 1024.0,
        _ => 0.0,
    }
}

/// Returns the allocator's free pages to the kernel, then lowers `VmHWM`
/// to the resident size that is left, so the next [`peak_rss_mb`] covers
/// the live data plus what runs from here on.
pub fn reset_peak_rss() -> std::io::Result<()> {
    glibc::release_free_pages();
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Makes every thread allocate from one malloc arena. By default glibc
/// gives threads new arenas as they contend, each arena keeps freed memory
/// of its own, and how many there are depends on thread timing: with the
/// default, the same fine-grained run read a resident peak anywhere from
/// 7.6 to 9.3 MB, rising over its first passes. Call before any thread
/// starts.
pub fn single_malloc_arena() {
    glibc::set_arena_max(1);
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
        fn mallopt(param: i32, value: i32) -> i32;
    }

    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;

    pub fn release_free_pages() {
        // SAFETY: `malloc_trim` takes no pointers and only releases free
        // pages; glibc allows it from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }

    pub fn set_arena_max(n: i32) {
        // SAFETY: `mallopt` takes no pointers; `M_ARENA_MAX` only bounds
        // how many arenas glibc creates from here on.
        unsafe {
            mallopt(M_ARENA_MAX, n);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod glibc {
    pub fn release_free_pages() {}
    pub fn set_arena_max(_n: i32) {}
}

/// Host readings bracketing one measured phase.
pub struct HostWindow {
    steal_at_start: Option<f64>,
    cpu_at_start: f64,
}

impl HostWindow {
    pub fn open() -> Self {
        HostWindow {
            steal_at_start: steal_seconds(),
            cpu_at_start: cpu_seconds(),
        }
    }

    /// Steal seconds accrued machine-wide since [`HostWindow::open`].
    pub fn steal_delta(&self) -> Option<f64> {
        Some(steal_seconds()? - self.steal_at_start?)
    }

    /// CPU seconds this process (and its reaped children) used since
    /// [`HostWindow::open`].
    pub fn cpu_delta(&self) -> f64 {
        cpu_seconds() - self.cpu_at_start
    }
}
