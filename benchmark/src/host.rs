//! Host-side cost readers, std only: process CPU time from
//! `/proc/self/stat` and the resident-set high-water mark from
//! `/proc/self/status`.

use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited threads included. Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name (field 2) is parenthesized and may contain spaces;
    // fields after the closing parenthesis start at field 3 (state).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    // utime is field 14 and stime field 15 (1-based).
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// A wall-clock + CPU-time reading, taken together.
#[derive(Copy, Clone, Debug)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        // A /proc read that fails once fails for the whole run; the first
        // reading in `main` surfaces it as an error before any work.
        Stamp {
            wall: Instant::now(),
            cpu_s: cpu_seconds().unwrap_or(f64::NAN),
        }
    }

    /// `(wall seconds, CPU seconds)` elapsed from `self` to `later`.
    pub fn until(&self, later: &Stamp) -> (f64, f64) {
        (
            later.wall.duration_since(self.wall).as_secs_f64(),
            later.cpu_s - self.cpu_s,
        )
    }
}
