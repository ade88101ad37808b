//! The sweep executor: a `std::thread` pool pulling fork groups from an
//! atomic counter, with optional warm-forking and an optional persistent
//! result cache, streaming cells to a callback as they finish.

use crate::cache::{ColumnKey, ResultCache};
use crate::fault::FaultPlan;
use crate::job::SweepJob;
use crate::report::{SweepCell, SweepReport};
use crate::spec::SweepSpec;
use icfp_isa::{ArenaSource, TraceSource, DEFAULT_BLOCK_INSTS};
use icfp_sim::{CellFigures, SimConfig, Simulator};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// How many times a panicking cell is retried before being recorded as a
/// typed failed cell (so one latent bug on one grid point costs that point,
/// not the sweep).
pub const DEFAULT_PANIC_RETRIES: u32 = 2;

/// Executor options beyond the spec itself.
#[derive(Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Worker threads (0 or 1 = serial, in the calling thread).
    pub threads: usize,
    /// Persistent result cache to serve and populate, if any.
    pub cache: Option<&'a ResultCache>,
    /// Retries for a panicking cell before it is recorded as failed
    /// ([`DEFAULT_PANIC_RETRIES`] by default; 0 = fail on first panic).
    pub panic_retries: u32,
    /// Deterministic fault-injection plan (tests only; `None` in
    /// production).
    pub fault: Option<&'a FaultPlan>,
    /// Cooperative cancellation: when set, workers stop pulling new groups
    /// and the sweep returns a "cancelled" error instead of a report.  Used
    /// by the server's graceful-drain path; in-flight cells still finish
    /// (and land in the cache).
    pub cancel: Option<&'a AtomicBool>,
    /// Pre-built trace sources, one per workload column, overriding the
    /// executor's own construction — the shard-execution path, where a
    /// worker was handed digests (and possibly local containers) instead of
    /// registry names.  When set, every workload in the spec must have an
    /// entry, and workload names are exempt from registry validation.
    pub columns: Option<&'a HashMap<String, Arc<dyn TraceSource>>>,
}

impl std::fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("threads", &self.threads)
            .field("cache", &self.cache.is_some())
            .field("panic_retries", &self.panic_retries)
            .field("fault", &self.fault.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("columns", &self.columns.map(|c| c.len()))
            .finish()
    }
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            threads: 0,
            cache: None,
            panic_retries: DEFAULT_PANIC_RETRIES,
            fault: None,
            cancel: None,
            columns: None,
        }
    }
}

/// Builds one workload column's shared trace source the way the executor
/// would: a materialized arena by default, a resumable streaming generator
/// (bounded residency) when the spec streams columns
/// ([`SweepSpec::streams_columns`]).  Deterministic outputs — the trace
/// digest above all — are identical across backings, so the shard planner,
/// the worker and the local executor all derive the same column identity
/// from the same spec.  `None` for a workload name the registry doesn't
/// know.
pub fn column_source(spec: &SweepSpec, workload: &str) -> Option<Arc<dyn TraceSource>> {
    let seed = spec.workload_seed(workload);
    if spec.streams_columns() {
        icfp_workloads::source_by_name(workload, spec.insts, seed, DEFAULT_BLOCK_INSTS)
            .map(|s| Arc::new(s) as Arc<dyn TraceSource>)
    } else {
        icfp_workloads::by_name(workload, spec.insts, seed)
            .map(|t| Arc::new(ArenaSource::new(t)) as Arc<dyn TraceSource>)
    }
}

/// Renders a `catch_unwind` payload as the panic message it carries.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Counters describing how a sweep's cells were produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the on-disk cache.
    pub hits: u64,
    /// Cells computed (cache absent, cold, or entry damaged).
    pub misses: u64,
    /// Damaged entries encountered and treated as misses.
    pub invalid: u64,
    /// Entries newly written to the cache.
    pub stored: u64,
}

impl CacheStats {
    /// Percentage of cells served from cache (0 when no cells ran).
    pub fn hit_percent(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }

    /// One-line human summary, e.g. `"32 hits, 0 misses (100% cache hits)"`.
    pub fn summary(&self) -> String {
        format!(
            "{} hits, {} misses ({:.0}% cache hits)",
            self.hits,
            self.misses,
            self.hit_percent()
        )
    }
}

/// A sweep's full outcome: the report plus how it was produced.  The cache
/// counters live *beside* the report, never inside it — a fully cached rerun
/// must reproduce the cold report (and its JSON document) byte-for-byte.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The assembled report, cells in [`SweepSpec::expand`] order.
    pub report: SweepReport,
    /// Cache counters for this execution.
    pub cache: CacheStats,
}

/// One finished cell, streamed to the [`run_sweep_streamed`] callback (on
/// the calling thread) as it completes — completion order, not index order.
#[derive(Debug)]
pub struct CellEvent<'a> {
    /// The cell's position in [`SweepSpec::expand`] order.
    pub index: usize,
    /// Whether the cell was served from the result cache.
    pub cached: bool,
    /// The finished cell.
    pub cell: &'a SweepCell,
}

/// A set of jobs executed from one simulation: the leader (first, lowest
/// expand index) runs — in warm-fork mode checkpointing at the column's
/// halfway point — and every member resumes from the leader's checkpoint
/// (or, in cached mode, replays the leader's figures).
pub(crate) struct ForkGroup {
    /// Expand indices, leader first (ascending).
    pub(crate) jobs: Vec<usize>,
}

/// Groups jobs by [`SweepJob::fork_key`] (`group_equivalent`) or one group
/// per job.  Group order follows the leaders' expand order, so the plan —
/// and therefore every deterministic output — is independent of thread
/// count and scheduling.
pub(crate) fn plan_groups(group_equivalent: bool, jobs: &[SweepJob]) -> Vec<ForkGroup> {
    if !group_equivalent {
        return jobs
            .iter()
            .map(|j| ForkGroup { jobs: vec![j.index] })
            .collect();
    }
    let mut by_key: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut groups: Vec<ForkGroup> = Vec::new();
    for job in jobs {
        match by_key.entry(job.fork_key()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                groups[*e.get()].jobs.push(job.index);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(ForkGroup {
                    jobs: vec![job.index],
                });
            }
        }
    }
    groups
}

/// Executes one warm-fork group.
///
/// Singleton groups — cells nothing else can share — keep the cold path
/// (warmup + median-of-reps timing) and pay no checkpoint.  Groups with
/// members fork: the leader advances to the column's halfway instruction,
/// checkpoints, finishes; each member resumes from the checkpoint.  For the
/// incremental iCFP model that is a genuine mid-trace state (this arises
/// when a grid repeats a configuration); for the whole-trace comparison
/// models — today's only source of multi-member groups, via the inert slice
/// axis — the first step simulates the entire trace, so the checkpoint
/// captures the *finished, undrained* run and members replay its result
/// rather than re-simulating.  Either way the checkpoint round-trip is
/// bit-identical to an uninterrupted run and members share the leader's
/// fork key (identical deterministic inputs), so every produced cell equals
/// its cold-run counterpart in all digested fields.  Host-time figures of
/// forked cells are single-run estimates: each member is charged the
/// group's shared pre-checkpoint wall time plus its own post-resume time,
/// so its MIPS approximates a whole-trace rate instead of counting every
/// instruction against a fraction of the work.
fn run_fork_group(
    jobs: &[SweepJob],
    group: &ForkGroup,
    trace: &Arc<dyn TraceSource>,
) -> Vec<(usize, SweepCell)> {
    let leader = &jobs[group.jobs[0]];
    if group.jobs.len() == 1 {
        return vec![(leader.index, leader.run_with_source(&**trace))];
    }
    let mut sim = Simulator::new(SimConfig::with_config(leader.model, leader.config.clone()));
    sim.load(Arc::clone(trace));
    let t0 = std::time::Instant::now();
    if leader.fast_forward > 0 {
        // The group's fast-forward depth is part of its fork key, so every
        // member wants exactly this warmed state — seed it once, before the
        // timed advance, and the checkpoint hands it to every member.
        sim.fast_forward(leader.fast_forward)
            .expect("leader engine was just loaded and has done no work");
    }
    sim.advance_to_inst((trace.len() / 2).max(leader.fast_forward))
        .expect("leader trace was just loaded");
    let front_seconds = t0.elapsed().as_secs_f64();
    let ckpt = sim
        .checkpoint()
        .expect("engine is loaded and not drained at the fork point");
    let mut cells = Vec::with_capacity(group.jobs.len());
    let leader_report = sim.finish_loaded();
    cells.push((leader.index, leader.cell_from_report(&leader_report)));
    for &member in &group.jobs[1..] {
        let mut resumed = Simulator::resume(&ckpt, Arc::clone(trace))
            .expect("resuming against the checkpoint's own trace");
        let mut report = resumed.finish_loaded();
        report.host_seconds += front_seconds;
        report.mips = if report.host_seconds > 0.0 {
            report.instructions as f64 / report.host_seconds / 1.0e6
        } else {
            0.0
        };
        cells.push((member, jobs[member].cell_from_report(&report)));
    }
    cells
}

/// Per-execution cache counters, shared across the worker pool.
#[derive(Default)]
struct Tallies {
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    stored: AtomicU64,
}

impl Tallies {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
        }
    }
}

/// Looks up one group's entry.  A damaged entry is counted, evicted so the
/// recompute's store can land, and reported as a miss.
fn lookup(cache: &ResultCache, key: u64, tallies: &Tallies) -> Option<CellFigures> {
    match cache.load(key) {
        Ok(hit) => hit,
        Err(_) => {
            tallies.invalid.fetch_add(1, Ordering::Relaxed);
            let _ = cache.remove(key);
            None
        }
    }
}

/// Serves a whole group from one cache entry's figures.
fn replay_group(
    jobs: &[SweepJob],
    group: &ForkGroup,
    figures: &CellFigures,
    tallies: &Tallies,
) -> (bool, Vec<(usize, SweepCell)>) {
    tallies
        .hits
        .fetch_add(group.jobs.len() as u64, Ordering::Relaxed);
    let cells = group
        .jobs
        .iter()
        .map(|&j| (j, jobs[j].cell_from_figures(figures)))
        .collect();
    (true, cells)
}

/// Computes a group that missed the cache: the leader runs once (cold timing
/// protocol), the figures are stored first-write-wins under `key`, and
/// members replay them — cells sharing a cache key have identical
/// deterministic inputs, so replaying is exact, and sharing the leader's
/// host figures is what makes a later fully-cached rerun reproduce this
/// report byte-for-byte.
fn compute_group(
    jobs: &[SweepJob],
    group: &ForkGroup,
    trace: &Arc<dyn TraceSource>,
    key: u64,
    cache: &ResultCache,
    tallies: &Tallies,
) -> (bool, Vec<(usize, SweepCell)>) {
    let leader = &jobs[group.jobs[0]];
    let leader_cell = leader.run_with_source(&**trace);
    // Tally the miss only after the compute succeeds: a panicking attempt
    // unwinds past this point, so a retry never double-counts and the
    // hits + misses pair always totals the cell count.
    tallies
        .misses
        .fetch_add(group.jobs.len() as u64, Ordering::Relaxed);
    let figures = CellFigures {
        instructions: leader_cell.instructions,
        cycles: leader_cell.cycles,
        ipc: leader_cell.ipc,
        l1d_mpki: leader_cell.l1d_mpki,
        l2_mpki: leader_cell.l2_mpki,
        host_seconds: leader_cell.host_seconds,
        mips: leader_cell.mips,
        state_digest: leader_cell.state_digest,
    };
    if let Ok(true) = cache.store(key, &figures) {
        tallies.stored.fetch_add(1, Ordering::Relaxed);
    }
    let mut cells = Vec::with_capacity(group.jobs.len());
    cells.push((leader.index, leader_cell));
    for &member in &group.jobs[1..] {
        cells.push((member, jobs[member].cell_from_figures(&figures)));
    }
    (false, cells)
}

#[cfg(test)]
thread_local! {
    /// Registry columns built and trace digests computed by the executor on
    /// this thread — the work a fully warm submission must not do.
    static COLUMN_WORK: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
fn count_column_work(built: usize, digested: usize) {
    COLUMN_WORK.with(|w| {
        let (b, d) = w.get();
        w.set((b + built, d + digested));
    });
}

#[cfg(not(test))]
fn count_column_work(_built: usize, _digested: usize) {}

/// `(columns built, trace digests computed)` by the executor on this thread
/// so far.  Columns are built and registry digests computed on the calling
/// thread only, so a test reads its own work as a difference of two calls.
#[cfg(test)]
pub(crate) fn column_work() -> (usize, usize) {
    COLUMN_WORK.with(|w| w.get())
}

/// [`column_source`] for a workload the spec has already validated.
fn build_column(spec: &SweepSpec, workload: &str) -> Arc<dyn TraceSource> {
    count_column_work(1, 0);
    column_source(spec, workload).expect("workload validated by SweepSpec::validate")
}

/// Resolves a cached registry run before the pool starts, on the calling
/// thread: per group, its cache key and, on a hit, the entry's figures.
/// A column's digest comes from the cache's memo; only a column this
/// process has never built is built and digested to fill it.  Each group's
/// entry is then looked up once (damaged entries are counted and evicted),
/// and a column is built into `traces` only if one of its groups missed —
/// a fully warm grid builds and digests nothing.
fn probe_registry_columns<'a>(
    spec: &'a SweepSpec,
    jobs: &[SweepJob],
    groups: &[ForkGroup],
    cache: &ResultCache,
    tallies: &Tallies,
    traces: &mut HashMap<&'a str, Arc<dyn TraceSource>>,
) -> Vec<(u64, Option<CellFigures>)> {
    let mut digests: HashMap<&str, u64> = HashMap::new();
    for w in &spec.workloads {
        if digests.contains_key(w.as_str()) {
            continue;
        }
        let column = ColumnKey {
            workload: w.clone(),
            insts: spec.insts,
            workload_seed: spec.workload_seed(w),
            streams_columns: spec.streams_columns(),
        };
        let digest = cache.column_digest(&column).unwrap_or_else(|| {
            let source = build_column(spec, w);
            count_column_work(0, 1);
            let digest = source.digest();
            cache.remember_column_digest(column, digest);
            traces.insert(w.as_str(), source);
            digest
        });
        digests.insert(w.as_str(), digest);
    }
    groups
        .iter()
        .map(|group| {
            let leader = &jobs[group.jobs[0]];
            let (&w, &digest) = digests
                .get_key_value(leader.workload.as_str())
                .expect("every job's workload is a spec column");
            let key = leader.cache_key(digest);
            let entry = lookup(cache, key, tallies);
            if entry.is_none() && !traces.contains_key(w) {
                traces.insert(w, build_column(spec, w));
            }
            (key, entry)
        })
        .collect()
}

/// Executes a sweep on `threads` worker threads (1 = serial, in the calling
/// thread).  Each workload column's trace is generated once and shared via
/// `Arc` across every job; with [`SweepSpec::warm_fork`] set, fork groups of
/// equivalent cells resume from one checkpoint per group.  The report's
/// cells are in [`SweepSpec::expand`] order and its digest is independent of
/// `threads` and of warm-forking.
///
/// # Errors
///
/// Returns the [`SweepSpec::validate`] error without running anything.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport, String> {
    run_sweep_streamed(
        spec,
        &ExecOptions {
            threads,
            ..ExecOptions::default()
        },
        |_| {},
    )
    .map(|outcome| outcome.report)
}

/// Executes a sweep, streaming each finished cell to `on_cell` (invoked on
/// the calling thread, in completion order — carry the event's index to
/// reassemble).  With [`ExecOptions::cache`] set, groups of cells with
/// identical deterministic inputs are served from, and populate, the
/// persistent result cache; the returned [`SweepOutcome::cache`] counters
/// say how many cells hit.  The report — cells, digest, JSON document — is
/// byte-identical across thread counts, cache states and transports.
///
/// # Errors
///
/// Returns the [`SweepSpec::validate`] error without running anything.
pub fn run_sweep_streamed(
    spec: &SweepSpec,
    opts: &ExecOptions<'_>,
    mut on_cell: impl FnMut(CellEvent<'_>),
) -> Result<SweepOutcome, String> {
    // One trace source per workload column, shared by reference everywhere.
    // Columns come pre-built on the shard path ([`ExecOptions::columns`],
    // names exempt from registry validation there); otherwise they are
    // built here on the calling thread — arenas by default, streamed
    // sources past the budget threshold.  Cells are backing-independent
    // either way.
    let mut traces: HashMap<&str, Arc<dyn TraceSource>> = HashMap::new();
    if let Some(columns) = opts.columns {
        spec.validate_axes()?;
        for w in &spec.workloads {
            let src = columns
                .get(w)
                .ok_or_else(|| format!("no trace column supplied for workload {w:?}"))?;
            traces.entry(w.as_str()).or_insert_with(|| Arc::clone(src));
        }
    } else {
        spec.validate()?;
    }
    let jobs = spec.expand();
    let n = jobs.len();

    // Warm-forking and caching share one equivalence relation (the fork
    // key), so either turns grouping on.
    let groups = plan_groups(spec.warm_fork || opts.cache.is_some(), &jobs);
    let num_groups = groups.len();
    let workers = opts.threads.clamp(1, num_groups.max(1));
    let mut cells: Vec<Option<SweepCell>> = (0..n).map(|_| None).collect();
    let tallies = Tallies::default();

    // A cached registry run probes every entry up front and builds only
    // the columns its misses need; any other registry run builds them all.
    let probed = match (opts.columns, opts.cache) {
        (Some(_), _) => None,
        (None, Some(cache)) => Some(probe_registry_columns(
            spec,
            &jobs,
            &groups,
            cache,
            &tallies,
            &mut traces,
        )),
        (None, None) => {
            for w in &spec.workloads {
                traces
                    .entry(w.as_str())
                    .or_insert_with(|| build_column(spec, w));
            }
            None
        }
    };

    let run_group_once = |k: usize| -> (bool, Vec<(usize, SweepCell)>) {
        let group = &groups[k];
        // Executor fault seam: an armed job panics here, inside the
        // catch_unwind scope below — indistinguishable from a latent
        // timing-model bug tripping on this grid point.
        if let Some(plan) = opts.fault {
            for &j in &group.jobs {
                if let Some(msg) = plan.injected_panic(j) {
                    panic!("{msg}");
                }
            }
        }
        let leader = &jobs[group.jobs[0]];
        let w = leader.workload.as_str();
        if let Some(cache) = opts.cache {
            let (key, entry) = match &probed {
                Some(probed) => probed[k].clone(),
                // Shard path: the column arrived built, and each group
                // looks up its own entry.
                None => {
                    let key = leader.cache_key(traces[w].digest());
                    (key, lookup(cache, key, &tallies))
                }
            };
            match entry {
                Some(figures) => replay_group(&jobs, group, &figures, &tallies),
                None => compute_group(&jobs, group, &traces[w], key, cache, &tallies),
            }
        } else {
            let trace = &traces[w];
            let batch = if spec.warm_fork {
                run_fork_group(&jobs, group, trace)
            } else {
                vec![(leader.index, leader.run_with_source(&**trace))]
            };
            // No cache: every computed cell counts as a miss (the
            // hits/misses pair always totals the cell count).  Tallied
            // after the compute so a panicking attempt never double-counts.
            tallies
                .misses
                .fetch_add(group.jobs.len() as u64, Ordering::Relaxed);
            (false, batch)
        }
    };

    // Crash-safe wrapper: a panicking group is retried up to
    // `panic_retries` times, then recorded as typed *failed cells* — the
    // sweep completes and reports the hole instead of unwinding a worker
    // and poisoning the whole run.
    let run_group = |k: usize| -> (bool, Vec<(usize, SweepCell)>) {
        let mut reason = String::new();
        for _ in 0..=opts.panic_retries {
            match catch_unwind(AssertUnwindSafe(|| run_group_once(k))) {
                Ok(done) => return done,
                Err(payload) => reason = panic_reason(payload),
            }
        }
        let group = &groups[k];
        // Failed cells were still *computed attempts*, not cache hits.
        tallies
            .misses
            .fetch_add(group.jobs.len() as u64, Ordering::Relaxed);
        let cells = group
            .jobs
            .iter()
            .map(|&j| (j, jobs[j].failed_cell(&reason)))
            .collect();
        (false, cells)
    };

    let cancelled = || opts.cancel.is_some_and(|c| c.load(Ordering::Relaxed));

    if workers == 1 {
        for k in 0..num_groups {
            if cancelled() {
                break;
            }
            let (cached, batch) = run_group(k);
            for (idx, cell) in batch {
                on_cell(CellEvent {
                    index: idx,
                    cached,
                    cell: &cell,
                });
                cells[idx] = Some(cell);
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(bool, Vec<(usize, SweepCell)>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let run_group = &run_group;
                let cancelled = &cancelled;
                scope.spawn(move || loop {
                    if cancelled() {
                        break;
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= num_groups {
                        break;
                    }
                    // A send only fails if the receiver is gone (sweep
                    // abandoned): stop pulling work.
                    if tx.send(run_group(k)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (cached, batch) in rx {
                for (idx, cell) in batch {
                    on_cell(CellEvent {
                        index: idx,
                        cached,
                        cell: &cell,
                    });
                    cells[idx] = Some(cell);
                }
            }
        });
    }

    // A cancelled sweep leaves holes: report the cancellation as a typed
    // error instead of panicking on them.  (Absent cancellation every group
    // posts exactly one batch, failed or not, so the report is complete.)
    let done = cells.iter().filter(|c| c.is_some()).count();
    if done < n {
        return Err(format!("sweep cancelled after {done}/{n} cells"));
    }

    Ok(SweepOutcome {
        report: SweepReport {
            threads: workers,
            warm_fork: spec.warm_fork,
            insts: spec.insts,
            seed: spec.seed,
            reps: spec.reps.max(1),
            workloads: spec.workloads.clone(),
            cells: cells
                .into_iter()
                .map(|c| c.expect("completeness checked above"))
                .collect(),
        },
        cache: tallies.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PanicJob;
    use crate::testutil::tiny_spec;
    use icfp_core::CoreModel;
    use std::fs;
    use std::path::PathBuf;

    #[test]
    fn same_spec_twice_gives_identical_digests() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, 1).unwrap();
        let b = run_sweep(&spec, 1).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.cycles, cb.cycles);
            assert_eq!(ca.state_digest, cb.state_digest);
        }
    }

    #[test]
    fn serial_and_eight_thread_pools_agree_byte_for_byte() {
        // The acceptance grid: 2 models × 4 configs × 4 workloads.
        let spec = tiny_spec();
        let serial = run_sweep(&spec, 1).unwrap();
        let pooled = run_sweep(&spec, 8).unwrap();
        assert_eq!(serial.digest(), pooled.digest());
        assert_eq!(serial.cells.len(), pooled.cells.len());
        for (cs, cp) in serial.cells.iter().zip(&pooled.cells) {
            assert_eq!(cs.model, cp.model);
            assert_eq!(cs.workload, cp.workload);
            assert_eq!(cs.cycles, cp.cycles, "{} {}", cs.model, cs.workload);
            assert_eq!(cs.ipc, cp.ipc);
            assert_eq!(cs.state_digest, cp.state_digest);
        }
    }

    #[test]
    fn streamed_columns_are_digest_identical_and_share_the_cache() {
        // The streamed flag swaps every column's backing (materialized
        // arena -> resumable streamed source) without touching what is
        // simulated, so reports and cache keys must be identical.
        let arena = tiny_spec();
        let mut streamed = tiny_spec();
        streamed.streamed = true;
        assert!(streamed.streams_columns());
        let a = run_sweep(&arena, 2).unwrap();
        let s = run_sweep(&streamed, 2).unwrap();
        assert_eq!(a.digest(), s.digest());

        // Cache interop: a streamed run against a cache an arena run wrote
        // is served entirely from disk (the trace digest, and therefore the
        // cache key, is backing-independent).
        let dir = tmp_cache("streamed");
        let cache = ResultCache::open(&dir).unwrap();
        let cold = run_sweep_streamed(
            &arena,
            &ExecOptions {
                threads: 1,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        let warm = run_sweep_streamed(
            &streamed,
            &ExecOptions {
                threads: 1,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.hits, arena.cell_count() as u64);
        assert_eq!(warm.report.digest(), cold.report.digest());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Per-cell deterministic fields (everything in the digest) must match.
    fn assert_deterministically_equal(a: &SweepReport, b: &SweepReport) {
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.model, cb.model);
            assert_eq!(ca.workload, cb.workload);
            assert_eq!(ca.slice_buffer_entries, cb.slice_buffer_entries);
            assert_eq!(ca.mshr_count, cb.mshr_count);
            assert_eq!(ca.l2_hit_latency, cb.l2_hit_latency);
            assert_eq!(ca.seed, cb.seed);
            assert_eq!(ca.instructions, cb.instructions);
            assert_eq!(ca.cycles, cb.cycles, "{} {}", ca.model, ca.workload);
            assert_eq!(ca.ipc, cb.ipc);
            assert_eq!(ca.l1d_mpki, cb.l1d_mpki);
            assert_eq!(ca.l2_mpki, cb.l2_mpki);
            assert_eq!(ca.state_digest, cb.state_digest);
        }
    }

    #[test]
    fn warm_fork_groups_cells_along_inert_axes_only() {
        let spec = {
            let mut s = tiny_spec();
            s.warm_fork = true;
            s
        };
        let jobs = spec.expand();
        let groups = plan_groups(true, &jobs);
        // icfp reads the slice axis: its 4 configs × 4 workloads stay
        // singleton groups (16).  in-order ignores it: {sb 64, sb 128}
        // collapse per (l2 latency, workload) — 2 × 4 = 8 groups of two.
        assert_eq!(jobs.len(), 32);
        assert_eq!(groups.len(), 16 + 8, "grouping changed unexpectedly");
        let pairs = groups.iter().filter(|g| g.jobs.len() == 2).count();
        assert_eq!(pairs, 8);
        for g in &groups {
            assert!(
                g.jobs.windows(2).all(|w| w[0] < w[1]),
                "leader is lowest index"
            );
            let leader = &jobs[g.jobs[0]];
            for &m in &g.jobs[1..] {
                assert_eq!(jobs[m].model, leader.model);
                assert_eq!(jobs[m].workload, leader.workload);
                assert!(!jobs[m].model.reads_slice_buffer());
            }
        }
        // Cold mode: no grouping at all.
        assert_eq!(plan_groups(false, &jobs).len(), jobs.len());
    }

    #[test]
    fn warm_fork_report_is_deterministically_identical_to_cold_run() {
        // The PR 3 acceptance grid: 2 models × 4 configs × 4 workloads.
        let cold_spec = tiny_spec();
        let warm_spec = {
            let mut s = tiny_spec();
            s.warm_fork = true;
            s
        };
        let cold = run_sweep(&cold_spec, 1).unwrap();
        let warm_serial = run_sweep(&warm_spec, 1).unwrap();
        let warm_pooled = run_sweep(&warm_spec, 8).unwrap();
        assert!(warm_serial.warm_fork && !cold.warm_fork);
        assert_deterministically_equal(&cold, &warm_serial);
        assert_deterministically_equal(&cold, &warm_pooled);
        assert_deterministically_equal(&warm_serial, &warm_pooled);
    }

    #[test]
    fn fast_forward_sweeps_keep_digests_shrink_cycles_and_key_separately() {
        let base_spec = tiny_spec();
        let ff_spec = {
            let mut s = tiny_spec();
            s.fast_forward = 300; // half of the 600-inst budget
            s
        };
        let base = run_sweep(&base_spec, 1).unwrap();
        let ff = run_sweep(&ff_spec, 1).unwrap();
        assert_eq!(base.cells.len(), ff.cells.len());
        for (b, f) in base.cells.iter().zip(&ff.cells) {
            // Architectural execution is timing-independent: skipping the
            // timing model for the first half must not move the final state.
            assert_eq!(b.state_digest, f.state_digest, "{} {}", b.model, b.workload);
            assert_eq!(b.instructions, f.instructions);
            // The timed region shrank; cycles cannot grow.
            assert!(f.cycles <= b.cycles, "{} {}", f.model, f.workload);
        }
        // Warm-forked fast-forward cells agree with cold-path ones on every
        // deterministic field — the leader seeds once and every member
        // inherits the warmed state through the checkpoint.
        let ff_forked = {
            let mut s = ff_spec.clone();
            s.warm_fork = true;
            run_sweep(&s, 1).unwrap()
        };
        assert_deterministically_equal(&ff, &ff_forked);

        // Fast-forward is part of the cell identity: different depths never
        // share a warm-fork checkpoint or a result-cache entry.
        let j0 = base_spec.expand();
        let j1 = ff_spec.expand();
        assert_ne!(j0[0].fork_key(), j1[0].fork_key());
        assert_ne!(j0[0].cache_key(0xD1CE), j1[0].cache_key(0xD1CE));

        // A fast-forward that leaves no timed region is rejected up front.
        let mut bad = tiny_spec();
        bad.fast_forward = bad.insts;
        assert!(bad.validate().unwrap_err().contains("timed region"));
    }

    #[test]
    fn l2_latency_axis_moves_cycles_monotonically() {
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::InOrder];
        spec.slice_buffer_entries = vec![128];
        spec.workloads = vec!["pointer-chase".into()];
        spec.l2_hit_latencies = vec![10, 40];
        let r = run_sweep(&spec, 2).unwrap();
        assert_eq!(r.cells.len(), 2);
        assert!(
            r.cells[0].cycles <= r.cells[1].cycles,
            "higher L2 latency cannot be faster: {} vs {}",
            r.cells[0].cycles,
            r.cells[1].cycles
        );
        // Same trace either way.
        assert_eq!(r.cells[0].state_digest, r.cells[1].state_digest);
    }

    fn tmp_cache(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "icfp-sweep-exec-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn cold_then_cached_runs_reproduce_the_report_byte_for_byte() {
        let dir = tmp_cache("cold-warm");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = tiny_spec();
        let opts = ExecOptions {
            threads: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };

        let mut events = 0usize;
        let cold = run_sweep_streamed(&spec, &opts, |e| {
            assert!(!e.cached, "fresh cache cannot hit");
            events += 1;
        })
        .unwrap();
        assert_eq!(events, 32);
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses, 32);
        assert!(cold.cache.stored > 0);

        // Second submission: everything served from disk, report identical
        // to the last byte of the JSON document.
        let mut seen = [false; 32];
        let warm = run_sweep_streamed(&spec, &opts, |e| {
            assert!(e.cached, "warm cache must hit");
            assert!(!seen[e.index], "cell streamed twice");
            seen[e.index] = true;
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
        assert_eq!(warm.cache.hits, 32);
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.stored, 0);
        assert_eq!(warm.report, cold.report);
        assert_eq!(warm.report.to_json(), cold.report.to_json());

        // Threaded cached run: digest-identical too (host figures replay).
        let warm8 = run_sweep_streamed(
            &spec,
            &ExecOptions {
                threads: 8,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(warm8.cache.hits, 32);
        assert_deterministically_equal(&cold.report, &warm8.report);
        // Only the advisory thread count differs.
        assert_eq!(warm8.report.cells, cold.report.cells);

        // And cached runs agree with an uncached cold run on every
        // deterministic field.
        let uncached = run_sweep(&spec, 1).unwrap();
        assert_deterministically_equal(&uncached, &warm.report);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inert_axis_cells_share_one_cache_entry() {
        let dir = tmp_cache("inert");
        let cache = ResultCache::open(&dir).unwrap();
        // in-order never reads the slice buffer: two slice sizes, one of
        // everything else ⇒ 2 cells, 1 fork group, 1 cache entry.
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::InOrder];
        spec.slice_buffer_entries = vec![64, 128];
        spec.l2_hit_latencies = vec![20];
        spec.workloads = vec!["pointer-chase".into()];
        let opts = ExecOptions {
            threads: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };
        let cold = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(cold.report.cells.len(), 2);
        assert_eq!(cold.cache.misses, 2);
        assert_eq!(cold.cache.stored, 1, "one entry for the whole group");
        assert_eq!(cache.entry_count().unwrap(), 1);
        // Both cells carry their own axis labels but identical figures.
        let [a, b] = &cold.report.cells[..] else {
            panic!("two cells")
        };
        assert_ne!(a.slice_buffer_entries, b.slice_buffer_entries);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.host_seconds, b.host_seconds, "members replay figures");

        let warm = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(warm.cache.hits, 2);
        assert_eq!(warm.report, cold.report);

        // The icfp model *reads* the slice axis: same grid stores two
        // entries and never collapses cells.
        let mut icfp_spec = spec.clone();
        icfp_spec.models = vec![CoreModel::Icfp];
        let icfp = run_sweep_streamed(&icfp_spec, &opts, |_| {}).unwrap();
        assert_eq!(icfp.cache.misses, 2, "no grouping for a live axis");
        assert_eq!(icfp.cache.stored, 2, "one entry per distinct key");
        assert_eq!(cache.entry_count().unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_cache_entries_are_recomputed_not_trusted() {
        let dir = tmp_cache("damaged");
        let cache = ResultCache::open(&dir).unwrap();
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::Icfp];
        spec.slice_buffer_entries = vec![128];
        spec.l2_hit_latencies = vec![20];
        spec.workloads = vec!["branchy".into()];
        let opts = ExecOptions {
            threads: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };
        let cold = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(cold.cache.stored, 1);

        // Truncate the single entry on disk.
        let entry = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "cell"))
            .expect("one entry");
        let bytes = fs::read(&entry).unwrap();
        fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

        let redo = run_sweep_streamed(&spec, &opts, |e| assert!(!e.cached)).unwrap();
        assert_eq!(redo.cache.hits, 0);
        assert_eq!(redo.cache.invalid, 1, "damage is counted");
        assert_eq!(redo.cache.misses, 1);
        assert_eq!(redo.cache.stored, 1, "the evicted entry is re-stored");
        assert_deterministically_equal(&cold.report, &redo.report);

        // The recompute evicted and replaced the damaged entry, so the cache
        // self-heals: a third run is fully served from disk again.
        let third = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(third.cache.hits, 1);
        assert_eq!(third.report, redo.report);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A 2-cell grid small enough for fault tests.
    fn two_cell_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.models = vec![CoreModel::InOrder];
        spec.slice_buffer_entries = vec![128];
        spec.l2_hit_latencies = vec![20];
        spec.workloads = vec!["branchy".into(), "pointer-chase".into()];
        spec
    }

    #[test]
    fn a_panicking_cell_is_retried_and_the_report_matches_fault_free() {
        let spec = two_cell_spec();
        let clean = run_sweep(&spec, 1).unwrap();
        // Job 1 panics twice; the default retry budget absorbs both.
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 1,
            attempts: 2,
        });
        let faulted = run_sweep_streamed(
            &spec,
            &ExecOptions {
                threads: 1,
                fault: Some(&plan),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(plan.panics_raised(), 2);
        assert!(faulted.report.cells.iter().all(|c| c.failed.is_none()));
        // Digest equality covers every deterministic field; the advisory
        // host-time figures legitimately differ between runs.
        assert_eq!(faulted.report.digest(), clean.digest());
        assert_eq!(
            faulted.cache.hits + faulted.cache.misses,
            clean.cells.len() as u64,
            "retries must not double-count tallies"
        );
    }

    #[test]
    fn an_exhausted_panicking_cell_is_recorded_as_failed_not_fatal() {
        let spec = two_cell_spec();
        let clean = run_sweep(&spec, 1).unwrap();
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 0,
            attempts: u32::MAX,
        });
        let outcome = run_sweep_streamed(
            &spec,
            &ExecOptions {
                threads: 1,
                panic_retries: 1,
                fault: Some(&plan),
                ..ExecOptions::default()
            },
            |_| {},
        )
        .unwrap();
        let [failed, ok] = &outcome.report.cells[..] else {
            panic!("two cells")
        };
        let reason = failed.failed.as_deref().expect("job 0 exhausted retries");
        assert!(reason.contains("injected fault"), "{reason:?}");
        assert_eq!(failed.cycles, 0);
        assert_eq!(failed.state_digest, 0);
        assert!(ok.failed.is_none(), "other cells unaffected");
        assert_eq!(ok.cycles, clean.cells[1].cycles);
        // The failure is digested — a holed report can't impersonate a
        // complete one — and survives the JSON round trip.
        assert_ne!(outcome.report.digest(), clean.digest());
        let json = outcome.report.to_json();
        assert!(json.contains("\"failed\": \"injected fault"), "{json}");
        let back = crate::schema::parse(&json).expect("parse");
        assert_eq!(back.cells[0].failed, outcome.report.cells[0].failed);
        assert_eq!(crate::schema::to_json(&back), json);
        // The matrix shows the hole.
        assert!(outcome.report.render_matrix().unwrap().contains("fail"));
        // Accounting stays whole: the failed cell counts as a miss.
        assert_eq!(
            outcome.cache.hits + outcome.cache.misses,
            outcome.report.cells.len() as u64
        );
    }

    fn cached(cache: &ResultCache, threads: usize) -> ExecOptions<'_> {
        ExecOptions {
            threads,
            cache: Some(cache),
            ..ExecOptions::default()
        }
    }

    /// `(columns built, digests computed)` by `f` on this thread.
    fn work_of<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
        let (b0, d0) = column_work();
        let out = f();
        let (b1, d1) = column_work();
        (out, (b1 - b0, d1 - d0))
    }

    /// The cache keys of one workload column's groups.
    fn column_keys(spec: &SweepSpec, workload: &str) -> Vec<u64> {
        let digest = column_source(spec, workload).unwrap().digest();
        let jobs = spec.expand();
        plan_groups(true, &jobs)
            .iter()
            .map(|g| &jobs[g.jobs[0]])
            .filter(|leader| leader.workload == workload)
            .map(|leader| leader.cache_key(digest))
            .collect()
    }

    #[test]
    fn a_fully_warm_grid_builds_no_column_and_computes_no_digest() {
        let dir = tmp_cache("warm-no-build");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = tiny_spec();
        let (cold, work) = work_of(|| run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}));
        let cold = cold.unwrap();
        assert_eq!(work, (4, 4), "each column built and digested once");
        assert_eq!(cold.cache.misses, 32);
        assert_eq!(cache.memoized_columns(), 4);

        for threads in [1, 4] {
            let (warm, work) =
                work_of(|| run_sweep_streamed(&spec, &cached(&cache, threads), |_| {}));
            let warm = warm.unwrap();
            assert_eq!(work, (0, 0), "{threads} threads: warm run built a column");
            assert_eq!(warm.cache.hits, 32);
            assert_eq!(warm.cache.misses, 0);
            assert_eq!(warm.report.cells, cold.report.cells);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_half_warm_grid_builds_only_the_column_with_a_miss() {
        let dir = tmp_cache("half-warm");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = two_cell_spec();
        let cold = run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}).unwrap();
        for key in column_keys(&spec, "pointer-chase") {
            cache.remove(key).unwrap();
        }

        let (warm, work) = work_of(|| {
            run_sweep_streamed(&spec, &cached(&cache, 2), |e| {
                assert_eq!(
                    e.cached,
                    e.cell.workload == "branchy",
                    "{}",
                    e.cell.workload
                )
            })
        });
        let warm = warm.unwrap();
        assert_eq!(work, (1, 0), "pointer-chase rebuilt, its digest memoized");
        assert_eq!(
            (warm.cache.hits, warm.cache.misses, warm.cache.stored),
            (1, 1, 1)
        );
        assert_deterministically_equal(&cold.report, &warm.report);

        // A column the memo has never seen is built and digested once; the
        // warm columns beside it still build nothing.
        let mut wider = spec.clone();
        wider.workloads.push("streaming".into());
        let (wide, work) = work_of(|| run_sweep_streamed(&wider, &cached(&cache, 1), |_| {}));
        let wide = wide.unwrap();
        assert_eq!(work, (1, 1));
        assert_eq!((wide.cache.hits, wide.cache.misses), (2, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_entry_in_a_warm_grid_is_counted_evicted_and_recomputed() {
        let dir = tmp_cache("warm-damaged");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = two_cell_spec();
        let cold = run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}).unwrap();
        let [key] = column_keys(&spec, "branchy")[..] else {
            panic!("one branchy group")
        };
        let entry = dir.join(format!("{key:016x}.cell"));
        let bytes = fs::read(&entry).unwrap();
        fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

        let (redo, work) = work_of(|| run_sweep_streamed(&spec, &cached(&cache, 2), |_| {}));
        let redo = redo.unwrap();
        assert_eq!(work, (1, 0), "only the damaged entry's column is built");
        assert_eq!(redo.cache.invalid, 1, "damage is counted");
        assert_eq!((redo.cache.hits, redo.cache.misses), (1, 1));
        assert_eq!(redo.cache.stored, 1, "the evicted entry is re-stored");
        assert_eq!(redo.report.digest(), cold.report.digest());
        assert_deterministically_equal(&cold.report, &redo.report);

        let (third, work) = work_of(|| run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}));
        let third = third.unwrap();
        assert_eq!(work, (0, 0));
        assert_eq!((third.cache.hits, third.cache.invalid), (2, 0));
        assert_eq!(third.report.cells, redo.report.cells);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_panic_on_a_warm_grid_still_yields_typed_failed_cells() {
        let dir = tmp_cache("warm-panic");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = two_cell_spec();
        let cold = run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}).unwrap();

        // Absorbed by the retry budget: the replay is the cold report.
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 1,
            attempts: 2,
        });
        let opts = ExecOptions {
            fault: Some(&plan),
            ..cached(&cache, 1)
        };
        let retried = run_sweep_streamed(&spec, &opts, |_| {}).unwrap();
        assert_eq!(plan.panics_raised(), 2);
        assert_eq!(retried.report, cold.report);
        assert_eq!((retried.cache.hits, retried.cache.misses), (2, 0));

        // Exhausted: a typed failed cell beside an intact cached one.
        let plan = FaultPlan::new().with_panic_job(PanicJob {
            job_index: 0,
            attempts: u32::MAX,
        });
        let opts = ExecOptions {
            panic_retries: 1,
            fault: Some(&plan),
            ..cached(&cache, 2)
        };
        let (outcome, work) = work_of(|| run_sweep_streamed(&spec, &opts, |_| {}));
        let outcome = outcome.unwrap();
        assert_eq!(work, (0, 0));
        let [failed, ok] = &outcome.report.cells[..] else {
            panic!("two cells")
        };
        let reason = failed.failed.as_deref().expect("job 0 exhausted retries");
        assert!(reason.contains("injected fault"), "{reason:?}");
        assert_eq!((failed.cycles, failed.state_digest), (0, 0));
        assert_eq!(ok, &cold.report.cells[1]);
        assert_eq!((outcome.cache.hits, outcome.cache.misses), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_digest_memo_outlives_a_submission_and_the_shard_path_never_uses_it() {
        let dir = tmp_cache("memo");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = two_cell_spec();
        let cold = run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}).unwrap();
        // A clone shares the memo, as every connection of one server does.
        let server_side = cache.clone();
        let (warm, work) = work_of(|| run_sweep_streamed(&spec, &cached(&server_side, 1), |_| {}));
        assert_eq!(work, (0, 0));
        assert_eq!(warm.unwrap().report, cold.report);

        // The shard path keys by its supplied columns' own digests: a
        // poisoned memo changes nothing there, and nothing is written to it.
        let columns: HashMap<String, Arc<dyn TraceSource>> = spec
            .workloads
            .iter()
            .map(|w| (w.clone(), column_source(&spec, w).unwrap()))
            .collect();
        for w in &spec.workloads {
            let column = ColumnKey {
                workload: w.clone(),
                insts: spec.insts,
                workload_seed: spec.workload_seed(w),
                streams_columns: spec.streams_columns(),
            };
            cache.remember_column_digest(column, 0xBAD);
        }
        let shard = ExecOptions {
            columns: Some(&columns),
            ..cached(&cache, 2)
        };
        let (sharded, work) = work_of(|| run_sweep_streamed(&spec, &shard, |_| {}));
        let sharded = sharded.unwrap();
        assert_eq!(work, (0, 0));
        assert_eq!(sharded.cache.hits, 2, "true digests, true keys");
        assert_eq!(sharded.report.cells, cold.report.cells);
        // The registry path does read the memo: poisoned keys miss.
        let poisoned = run_sweep_streamed(&spec, &cached(&cache, 1), |_| {}).unwrap();
        assert_eq!(poisoned.cache.hits, 0);

        // On a fresh cache the shard path leaves the memo empty.
        let fresh_dir = tmp_cache("memo-fresh");
        let fresh = ResultCache::open(&fresh_dir).unwrap();
        let shard = ExecOptions {
            columns: Some(&columns),
            ..cached(&fresh, 1)
        };
        let first = run_sweep_streamed(&spec, &shard, |_| {}).unwrap();
        assert_eq!(first.cache.misses, 2);
        assert_eq!(fresh.memoized_columns(), 0);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn a_cancelled_sweep_is_a_typed_error_not_a_panic() {
        let flag = AtomicBool::new(true);
        for threads in [1, 4] {
            let err = run_sweep_streamed(
                &tiny_spec(),
                &ExecOptions {
                    threads,
                    cancel: Some(&flag),
                    ..ExecOptions::default()
                },
                |_| {},
            )
            .expect_err("pre-cancelled sweep cannot complete");
            assert!(err.contains("cancelled"), "{err}");
            assert!(err.contains("0/32"), "{err}");
        }
    }
}
