//! Process resource readings from `/proc/self` (Linux).

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU time consumed so far by every thread of this process, exited
/// threads included, in milliseconds (10 ms resolution).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_S * 1e3,
        _ => 0.0,
    }
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Resident set size now, in MB (10^6 bytes).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") * 1024.0 / 1e6
}

/// Peak resident set size of the process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") * 1024.0 / 1e6
}
