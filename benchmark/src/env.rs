//! The environment fingerprint every result file carries, and the process's
//! peak resident set. Two results are comparable only on one fingerprint.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `path` lives on, by longest mount-point prefix.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `env{commit, nproc, cpu_model, kernel, rustc, profile, page_size,
/// workdir_fs, seed, scale}`. The commit is unknown outside a git checkout
/// (the benchmark is also run from plain exports of the tree).
pub fn fingerprint(workdir: &Path, seed: u64, scale: &str, seconds: u64) -> Json {
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj()
        .set(
            "commit",
            // Asked only where the tree is a checkout, so git never goes
            // looking for a repository above a plain export.
            Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
        )
        .set("nproc", nproc)
        // The served workloads run confined to one CPU (see `Spec::pinned`).
        .set(
            "confined_to_cpu",
            std::env::var("COLE_BENCHMARK_PINNED").unwrap_or_else(|_| "no".into()),
        )
        .set("cpu_model", cpu_model)
        .set(
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        )
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .set("profile", "release, lto=thin (mirrors the root manifest)")
        .set("page_size", cole_primitives::PAGE_SIZE)
        .set("workdir_fs", filesystem_of(workdir))
        .set("seed", seed)
        .set("scale", scale)
        .set("seconds", seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_has_every_field() {
        let env = fingerprint(Path::new("."), 11, "full", 10);
        for key in [
            "commit",
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "profile",
            "page_size",
            "workdir_fs",
            "seed",
            "scale",
        ] {
            assert!(env.get(key).is_some(), "missing env.{key}");
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
