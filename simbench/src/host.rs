//! Host metadata stamped on every result, and the process's peak memory.

use std::process::Command;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// The commit measured (`git rev-parse HEAD`), or `unknown` outside a
    /// git checkout.
    pub commit: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
}

impl HostInfo {
    /// Collects the metadata, waiting for each helper process to exit.
    #[must_use]
    pub fn collect() -> Self {
        HostInfo {
            cores: bscope_harness::resolve_threads(0),
            commit: first_line("git", &["rev-parse", "HEAD"]),
            rustc: first_line("rustc", &["-V"]),
        }
    }
}

/// First line of a command's standard output, or `unknown` if it cannot run
/// or fails.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file does not exist.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
