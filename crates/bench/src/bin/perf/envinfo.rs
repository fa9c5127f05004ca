//! The environment a record was taken in, and the process's memory.

use std::process::Command;

pub struct Environment {
    pub nproc: usize,
    pub l2_kib: u64,
    pub l3_kib: u64,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in KiB of cpu0's unified cache at `level`, from sysfs; 0 if absent.
fn cache_kib(level: u32) -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let matches = read("level")?.trim().parse::<u32>().ok()? == level
                && read("type")?.trim() != "Instruction";
            let size = read("size")?;
            let size = size.trim();
            let kib = match size.strip_suffix('K') {
                Some(k) => k.parse::<u64>().ok()?,
                None => size.strip_suffix('M')?.parse::<u64>().ok()? * 1024,
            };
            matches.then_some(kib)
        })
        .next()
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Environment {
    pub fn detect() -> Self {
        Environment {
            nproc: nproc(),
            l2_kib: cache_kib(2),
            l3_kib: cache_kib(3),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    /// L2 in bytes, with a 2 MiB fallback where sysfs does not say.
    pub fn l2_bytes(&self) -> usize {
        match self.l2_kib {
            0 => 2 << 20,
            kib => kib as usize * 1024,
        }
    }
}

/// A `Vm*` line of `/proc/self/status` in MB; 0 where `/proc` is absent.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets the kernel's high-water mark of this process to its current
/// resident set (`clear_refs`, Linux ≥ 4.0), so that [`peak_rss_mb`] read
/// after a timed section is the peak of that section and not of the checks
/// and reference runs before it. Returns whether the kernel took it; where it
/// does not, the peak covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set of this process.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_never_fails_and_memory_is_readable_on_linux() {
        let env = Environment::detect();
        assert!(env.nproc >= 1);
        assert!(env.l2_bytes() > 0);
        assert!(!env.rustc.is_empty() && !env.commit.is_empty());
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0 && rss_mb() > 0.0);
        }
    }
}
