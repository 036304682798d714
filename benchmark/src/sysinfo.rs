//! What the benchmark reads about the machine and its own process.

use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;

use rbio_plan::json::escape;

/// Version of the result-file layout `compare` reads.
pub const SCHEMA_VERSION: u32 = 1;

fn proc_field(path: &str, key: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// `(read syscalls, write syscalls)` this process has issued.
pub fn io_syscalls() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "syscr:").unwrap_or(0),
        proc_field("/proc/self/io", "syscw:").unwrap_or(0),
    )
}

/// Apparent bytes of every regular file under `dir`. Apparent size, not
/// allocated blocks: the count must repeat exactly on any filesystem.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Filesystem type holding `dir`, from the longest matching mount point.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, mnt, ty) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// HEAD of the checkout the benchmark runs from. Only asked when the
/// working directory itself is a repository root, so git never walks
/// up out of a plain (non-git) checkout.
fn git_commit() -> String {
    if Path::new(".git").exists() {
        first_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

/// Machine fingerprint as a JSON object, so two result files can be told
/// apart (or recognised as comparable) later.
pub fn fingerprint_json(bench_dir: &Path, seed: u64, seconds: f64) -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"nproc\":{nproc},\"cpu\":\"{}\",\"kernel\":\"{}\",\
         \"bench_dir_fs\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",\"seed\":{seed},\
         \"window_seconds\":{seconds}}}",
        escape(&cpu),
        escape(&kernel),
        escape(&fs_type(bench_dir)),
        escape(&first_line("rustc", &["-V"])),
        escape(&git_commit()),
    )
}
