//! Environment fingerprint printed with every result: enough to tell
//! whether two sets of numbers came from comparable hosts and builds.

use std::process::Command;

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

/// The rest of the first line of `path` that starts with `key`, past any
/// colon and blanks.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(
        line[key.len()..]
            .trim_start_matches([' ', '\t', ':'])
            .trim_end()
            .to_string(),
    )
}

/// Cache sizes as the kernel reports them for cpu0, e.g. `L1d 48K, L2 2048K`.
fn cache_sizes() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(format!("{base}/index{index}/{file}")).map(|s| s.trim().to_string())
    };
    let levels: Vec<String> = (0..8)
        .map_while(|i| {
            let (level, kind, size) = (
                read(i, "level").ok()?,
                read(i, "type").ok()?,
                read(i, "size").ok()?,
            );
            let suffix = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!("L{level}{suffix} {size}"))
        })
        .collect();
    if levels.is_empty() {
        "unknown".into()
    } else {
        levels.join(", ")
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool threads every workload runs with: `min(nproc, 4)`.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

/// `key: value` lines describing the host and build.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    vec![
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        ("nproc", nproc().to_string()),
        ("pool_threads", pool_threads().to_string()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("caches", cache_sizes()),
    ]
}
