//! Readings of the server process and the host from `/proc`.

use std::path::Path;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU seconds of process `pid`, all threads, exited
/// ones included.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0)
        + f.get(12).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // SAFETY: sysconf takes an integer selector and has no other
    // precondition.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks as f64 / hz as f64
}

fn status_field(path: &Path, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> f64 {
    status_field(Path::new(&format!("/proc/{pid}/status")), "VmHWM:") as f64 / 1024.0
}

/// Voluntary plus involuntary context switches over the live threads
/// of process `pid`.
pub fn context_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .flatten()
        .map(|t| {
            let p = t.path().join("status");
            status_field(&p, "voluntary_ctxt_switches:")
                + status_field(&p, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Host-wide steal ticks (`cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
