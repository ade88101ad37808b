//! The machine record every result is tagged with, and process memory.

use std::fs;
use std::path::Path;

/// Where and how a result was measured.  Results from different machine
/// classes or build profiles are not comparable.
#[derive(Debug, Clone)]
pub struct MachineRecord {
    /// `os-arch-Ncpu`, the class the repository's other benchmark files use.
    pub class: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The workload seed.
    pub seed: u64,
    /// Commit of the measured source, or `unknown` outside a git checkout.
    pub revision: String,
}

impl MachineRecord {
    /// The record for this process, reading the revision from `.git` under
    /// the working directory when there is one.
    pub fn current(seed: u64) -> Self {
        MachineRecord {
            class: icfp_bench::machine_class(),
            nproc: nproc(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            revision: git_revision(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One-line rendering for result headers.
    pub fn line(&self) -> String {
        format!(
            "machine class={} nproc={} profile={} seed={} rev={}",
            self.class, self.nproc, self.profile, self.seed, self.revision
        )
    }
}

/// Logical CPUs available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names, read from the files git keeps (no `git` process).
fn git_revision(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Restarts the peak-resident-set count at the current resident set, where
/// the platform allows it (Linux `clear_refs`); otherwise the peak keeps
/// counting from process start.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`, reported in KiB)
/// since start or the last [`reset_peak_rss`], if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1.0e6)
}
