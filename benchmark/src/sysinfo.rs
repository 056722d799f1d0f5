//! Process and host facts: CPU time, peak RSS, and the stamp every result
//! file carries (commit, core count, compiler, file system).

use std::process::Command;

/// Process user+system CPU seconds so far, from `/proc/self/stat`.
/// The kernel reports these fields in USER_HZ ticks, which is 100 on every
/// Linux ABI this benchmark targets.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th overall, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / USER_HZ
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// File-system type of the mount holding `path`, from `/proc/self/mountinfo`.
pub fn fs_type(path: &str) -> String {
    let canonical =
        std::fs::canonicalize(path).map_or_else(|_| path.to_string(), |p| p.display().to_string());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in mounts.lines() {
        // "... <mount point> <options> [optional fields] - <fstype> <source> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = head.split(' ').nth(4) else {
            continue;
        };
        let inside = canonical == mount_point
            || mount_point == "/"
            || canonical
                .strip_prefix(mount_point)
                .is_some_and(|rest| rest.starts_with('/'));
        if inside && mount_point.len() >= best.0 {
            best = (
                mount_point.len(),
                tail.split(' ').next().unwrap_or("unknown").to_string(),
            );
        }
    }
    best.1
}

/// Where databases and scratch files go unless `--dir` says otherwise: a
/// directory beside the running executable, i.e. inside the cargo target
/// directory, so the benchmark writes nowhere outside its checkout.
pub fn data_root() -> String {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf));
    let root = exe_dir
        .unwrap_or_else(|| ".".into())
        .join("shield-benchmark-data");
    let _ = std::fs::create_dir_all(&root);
    root.display().to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD`, or "unknown" outside a git checkout.
pub fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x + 1);
        }
        assert!(peak_rss_mb() >= rss_mb() && rss_mb() > 1.0);
        assert_ne!(fs_type("/proc"), "unknown");
        assert!(nproc() >= 1);
    }
}
