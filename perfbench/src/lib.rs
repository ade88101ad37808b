//! # icfp-perfbench — the repository benchmark
//!
//! Three workloads drive the simulator through its public crate APIs and
//! report end-to-end figures a user sees (tracing off) or per-layer figures
//! that explain them (tracing on).  See `README.md` beside this crate for
//! every metric, its unit and direction, which end-to-end metric each layer
//! metric should move, and why each workload was chosen.
//!
//! The timing model is unvalidated: the repository holds no reference
//! results from hardware, so no accuracy error figure is reported.  Every
//! simulated cell starts with empty modelled caches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod machine;
mod miss_bound;
mod probes;
mod stats;
mod sweep_served;
mod trace_file;
mod tracer;

use check::{FiguresDigest, Tally};
use icfp_core::CoreModel;
use icfp_pipeline::RunStats;
use icfp_sim::CellFigures;
use icfp_workloads::WorkloadSpec;
use machine::MachineRecord;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracer::Tracer;

/// The benchmark's workloads.  The names are fixed: results cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All five models on pointer-chase and dcache-thrash, cold, in memory.
    MissBound,
    /// `icfp-trace/v2` containers, fast-forwarded, short timed region.
    TraceFile,
    /// A sweep grid served over loopback, cold then warm.
    SweepServed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::MissBound,
        Workload::TraceFile,
        Workload::SweepServed,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissBound => "miss-bound",
            Workload::TraceFile => "trace-file",
            Workload::SweepServed => "sweep-served",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes.  [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::TINY`] exercises the same code in a fraction of a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Instructions per miss-bound trace.
    pub miss_insts: usize,
    /// Instructions per trace-file container.
    pub file_insts: usize,
    /// Instructions simulated with timing at the end of each container; the
    /// rest is fast-forwarded.
    pub file_timed: usize,
    /// Instructions per sweep column.
    pub sweep_insts: usize,
    /// Warm re-submissions per sweep round.
    pub warm_submits: usize,
    /// Set-up repetitions per run (the median is reported).
    pub setup_reps: usize,
    /// Instructions per trace in the layer probes of the traced run.
    pub probe_insts: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        miss_insts: 100_000,
        file_insts: 1_000_000,
        file_timed: 100_000,
        sweep_insts: 100_000,
        warm_submits: 3,
        setup_reps: 5,
        probe_insts: 200_000,
    };

    /// A tiny configuration for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        miss_insts: 2_000,
        file_insts: 12_000,
        file_timed: 2_000,
        sweep_insts: 1_000,
        warm_submits: 1,
        setup_reps: 2,
        probe_insts: 5_000,
    };
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measurement (set-up, the checked first pass and the traced
    /// run's layer probes come on top).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for scratch files (trace containers, result caches) and the
    /// span file; scratch files are removed when the run ends.
    pub out_dir: PathBuf,
    /// Test hook: flips one bit of one trace's golden digest, so every cell
    /// simulating that trace must be counted as failed.
    pub corrupt_golden: bool,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulation cells attempted (every pass, every submission).
    pub attempted: u64,
    /// Cells that failed the output check, errored or panicked.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Digest over every deterministic figure of the checked first pass.
    pub figures_digest: u64,
}

impl Outcome {
    /// Failed ÷ attempted cells.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → `{value, unit}`).
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// What the benchmark's calls see: seed, sizes, tracer, scratch space.
pub(crate) struct Ctx<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub tracer: &'a Tracer,
    pub work_dir: &'a Path,
    /// Executor threads the sweep may use (`nproc`).
    pub threads: usize,
}

/// Figures of one measured pass (a sweep round for `sweep-served`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PassFigures {
    /// Timed-region committed instructions.
    pub sim_insts: u64,
    /// Host seconds inside the timed simulation calls.
    pub sim_secs: f64,
    /// Thread-seconds available while those calls ran (wall × threads).
    pub capacity_secs: f64,
    /// Instructions consumed, fast-forwarded ones included.
    pub report_insts: u64,
    /// Wall seconds from input open to finished report.
    pub report_secs: f64,
    /// Cells those reports cover.
    pub report_cells: u64,
    /// Cell reports requested again after a first complete pass.
    pub repeat_cells: u64,
    /// Wall seconds those repeat reports took.
    pub repeat_secs: f64,
    /// Peak resident memory during the pass, in MB.
    pub peak_rss_mb: f64,
}

/// One simulated cell, for per-layer metrics.
#[derive(Debug, Clone)]
pub(crate) struct CellRecord {
    pub model: CoreModel,
    pub trace: String,
    /// Timed-region instructions (trace length minus fast-forward).
    pub timed_insts: u64,
    /// Host seconds inside the timed simulation calls.
    pub secs: f64,
    /// The run's counters; `instructions` there covers the whole trace on a
    /// fast-forwarded run, so rates use `timed_insts`.
    pub stats: RunStats,
}

/// One workload's set-up, passes and probes.
pub(crate) trait Bench: Sized {
    /// Models the workload simulates.
    const MODELS: &'static [CoreModel];

    /// Builds the inputs; timed as set-up.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Stops what set-up started.
    fn teardown(self) {}

    /// Computes the expected outputs (not part of set-up time).
    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String>;

    /// Flips one bit of the first trace's expected final-state digest.
    fn corrupt_golden(&mut self);

    /// One pass.  The first pass of a run passes `first`: its cells fold into
    /// the figures digest and give the deterministic per-layer counters.
    fn pass(
        &mut self,
        ctx: &Ctx,
        tally: &mut Tally,
        cells: &mut Vec<CellRecord>,
        first: Option<&mut FiguresDigest>,
    ) -> PassFigures;

    /// Every trace the workload simulates, as (registry row, trace seed).
    fn probe_traces(&self) -> Vec<(&'static WorkloadSpec, u64)>;

    /// Result-cache keys and figures of the first pass's distinct cells.
    fn cache_entries(&self) -> Vec<(u64, CellFigures)>;

    /// Human-readable lines for the first pass (defects, notes).
    fn first_pass_lines(&self) -> Vec<String> {
        Vec::new()
    }

    /// Workload-specific layer lines from the traced loop.
    fn layer_lines(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The deterministic seed of one trace, derived from the run seed and the
/// trace's name exactly as a sweep derives a column's seed, so every
/// workload's inputs follow from `--seed` alone.
pub(crate) fn trace_seed(seed: u64, name: &str) -> u64 {
    icfp_sweep::SweepSpec::new(Vec::new(), Vec::new(), 1, seed).workload_seed(name)
}

/// Renders a caught panic's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (unwritable scratch directory, no loopback socket): the
/// run cannot measure anything and prints no result.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::MissBound => run_bench::<miss_bound::MissBound>(opts),
        Workload::TraceFile => run_bench::<trace_file::TraceFileBench>(opts),
        Workload::SweepServed => run_bench::<sweep_served::SweepServed>(opts),
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_bench<B: Bench>(opts: &Options) -> Result<Outcome, String> {
    let name = opts.workload.name();
    let machine = MachineRecord::current(opts.seed);
    let scratch = ScratchDir(opts.out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let tracer = Tracer::new(false);
    let ctx = Ctx {
        seed: opts.seed,
        scale: opts.scale,
        tracer: &tracer,
        work_dir: &scratch.0,
        threads: machine::nproc(),
    };
    let mut lines = vec![
        format!(
            "perfbench workload={name} seconds={} trace={} {}",
            opts.seconds,
            u8::from(opts.trace),
            machine.line()
        ),
        "model: unvalidated (no reference results from hardware); modelled caches start empty in every cell".to_string(),
    ];

    // Set-up, repeated; the median is reported.
    let mut setup_secs = Vec::new();
    let mut bench: Option<B> = None;
    for _ in 0..opts.scale.setup_reps.max(1) {
        if let Some(b) = bench.take() {
            b.teardown();
        }
        let t = Instant::now();
        bench = Some(B::setup(&ctx)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    if let Err(e) = bench.prepare(&ctx) {
        bench.teardown();
        return Err(e);
    }
    if opts.corrupt_golden {
        bench.corrupt_golden();
    }

    // The checked first pass: deterministic figures and counters.
    let mut tally = Tally::default();
    let mut digest = FiguresDigest::default();
    let mut first_cells = Vec::new();
    bench.pass(&ctx, &mut tally, &mut first_cells, Some(&mut digest));
    lines.extend(bench.first_pass_lines());

    let metrics = if !opts.trace {
        let passes = measure(&mut bench, &ctx, &mut tally, opts.seconds, &mut Vec::new());
        lines.push(format!(
            "measured {} passes in {:.1} s",
            passes.len(),
            opts.seconds
        ));
        let e2e = end_to_end(&passes, &setup_secs);
        lines.extend(describe(&e2e, &passes, opts.workload));
        e2e.into_iter().map(|(m, _)| m).collect()
    } else {
        let half = opts.seconds * 0.4;
        let untraced = end_to_end(
            &measure(&mut bench, &ctx, &mut tally, half, &mut Vec::new()),
            &setup_secs,
        );
        tracer.set_enabled(true);
        let root = tracer.open_root("bench", format!("bench.loop {name}"));
        let mut cells = Vec::new();
        let traced_passes = measure(&mut bench, &ctx, &mut tally, half, &mut cells);
        tracer.close_root(root);
        let root = root.expect("tracer enabled");
        let traced = end_to_end(&traced_passes, &setup_secs);
        lines.push(closure_line(name, &tracer, root));
        lines.push(calls_line(&tracer, root));
        lines.extend(overhead_lines(&untraced, &traced));
        lines.extend(bench.layer_lines());
        let probes_root = tracer.open_root("bench", "bench.probes".into());
        let probe = probes::run(&ctx, &bench.probe_traces(), &bench.cache_entries());
        tracer.close_root(probes_root);
        let layer = per_layer(&first_cells, &cells, &traced_passes, &probe);
        lines.extend(core_table(&first_cells, &cells));
        for m in &layer {
            lines.push(format!("layer {} = {} {}", m.name, m.value, m.unit));
        }
        let spans_path = opts
            .out_dir
            .join(format!("spans-{name}-seed{}.json", opts.seed));
        let doc = format!(
            "{{\"workload\": \"{name}\", \"machine\": \"{}\", \"spans\": {}}}\n",
            machine.line(),
            tracer.to_json()
        );
        match std::fs::write(&spans_path, doc) {
            Ok(()) => lines.push(format!("spans written to {}", spans_path.display())),
            Err(e) => lines.push(format!("spans not written ({}): {e}", spans_path.display())),
        }
        layer
    };
    bench.teardown();

    for why in &tally.reasons {
        lines.push(format!("FAILED {why}"));
    }
    lines.push(format!(
        "fail_ratio {} ratio (lower is better; {} of {} cells failed)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    ));
    lines.push(format!("figures-digest {:#018x}", digest.finish()));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        lines,
        figures_digest: digest.finish(),
    })
}

/// Runs passes until `seconds` have elapsed (at least one).
fn measure<B: Bench>(
    bench: &mut B,
    ctx: &Ctx,
    tally: &mut Tally,
    seconds: f64,
    cells: &mut Vec<CellRecord>,
) -> Vec<PassFigures> {
    let t = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t.elapsed().as_secs_f64() < seconds {
        machine::reset_peak_rss();
        let mut pass = bench.pass(ctx, tally, cells, None);
        pass.peak_rss_mb = machine::peak_rss_mb().unwrap_or(0.0);
        passes.push(pass);
    }
    passes
}

/// Per-pass values of one end-to-end metric, with its summary.
type Series = (Metric, Vec<f64>);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics: the median over passes of each per-pass figure.
fn end_to_end(passes: &[PassFigures], setup_secs: &[f64]) -> Vec<Series> {
    let series = |f: &dyn Fn(&PassFigures) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, v: Vec<f64>| {
        out.push((metric(name, unit, stats::median(&v)), v));
    };
    push(
        "sim_mips",
        "Minst/s",
        series(&|p| ratio(p.sim_insts as f64, p.sim_secs) / 1e6),
    );
    push(
        "report_mips",
        "Minst/s",
        series(&|p| ratio(p.report_insts as f64, p.report_secs) / 1e6),
    );
    push(
        "repeat_cells_per_s",
        "cells/s",
        series(&|p| ratio(p.repeat_cells as f64, p.repeat_secs)),
    );
    push("setup_s", "s", setup_secs.to_vec());
    push("peak_rss_mb", "MB", series(&|p| p.peak_rss_mb));
    out
}

/// One line per end-to-end metric: median, quartiles and sample count.
fn describe(e2e: &[Series], passes: &[PassFigures], workload: Workload) -> Vec<String> {
    let mut lines = Vec::new();
    for (m, v) in e2e {
        let spread = match stats::quartiles(v) {
            Some((q1, q3)) => format!(
                "q1 {q1:.4} q3 {q3:.4} iqr/median {:.2}%",
                ratio(q3 - q1, m.value) * 100.0
            ),
            None => String::new(),
        };
        lines.push(format!(
            "e2e {} = {} {} (median of {}; {spread})",
            m.name,
            m.value,
            m.unit,
            v.len()
        ));
    }
    if workload == Workload::SweepServed {
        // The sweep figures under their per-submission names.
        let cold: Vec<f64> = passes
            .iter()
            .map(|p| ratio(p.report_cells as f64, p.report_secs))
            .collect();
        lines.push(format!(
            "e2e sweep_cold_cells_per_s = {} cells/s (median of {}; the cold submissions behind report_mips)",
            stats::median(&cold),
            cold.len()
        ));
        let warm = e2e.iter().find(|(m, _)| m.name == "repeat_cells_per_s");
        lines.push(format!(
            "e2e sweep_warm_cells_per_s = {} cells/s (repeat_cells_per_s: warm re-submissions)",
            warm.map_or(0.0, |(m, _)| m.value)
        ));
    }
    lines
}

/// Σ layer self time against the measured loop's wall time.
fn closure_line(name: &str, tracer: &Tracer, root: tracer::SpanId) -> String {
    let wall = tracer.secs(root);
    let selfs = tracer.self_times(root);
    let mut line = format!("closure {name}: wall {wall:.4} s =");
    let mut explained = 0.0;
    for (layer, secs) in &selfs {
        if *layer == "bench" {
            continue;
        }
        explained += secs;
        let _ = write!(
            line,
            " {layer} {secs:.4} s ({:.1}%) +",
            ratio(*secs, wall) * 100.0
        );
    }
    let residual = wall - explained;
    let _ = write!(
        line,
        " residual {residual:.4} s ({:.1}%, the benchmark's own code between calls)",
        ratio(residual, wall) * 100.0
    );
    line
}

/// Seconds and call count per called function inside the measured loop.
fn calls_line(tracer: &Tracer, root: tracer::SpanId) -> String {
    let mut line = String::from("calls:");
    for (call, (secs, n)) in tracer.calls(root) {
        let _ = write!(line, " {call} {secs:.4} s/{n};");
    }
    line
}

/// Traced minus untraced end-to-end figures.
fn overhead_lines(untraced: &[Series], traced: &[Series]) -> Vec<String> {
    untraced
        .iter()
        .zip(traced)
        .filter(|((m, _), _)| m.name != "setup_s" && m.name != "peak_rss_mb")
        .map(|((u, _), (t, _))| {
            format!(
                "tracing overhead {}: traced {:.4} - untraced {:.4} = {:+.4} {} ({:+.2}%)",
                u.name,
                t.value,
                u.value,
                t.value - u.value,
                u.unit,
                ratio(t.value - u.value, u.value) * 100.0
            )
        })
        .collect()
}

/// Per-(model, trace) rows of the traced loop: host time, share and the
/// first pass's deterministic counters.
fn core_table(first: &[CellRecord], loop_cells: &[CellRecord]) -> Vec<String> {
    let total: f64 = loop_cells.iter().map(|c| c.secs).sum();
    first
        .iter()
        .map(|c| {
            let (secs, insts) = loop_cells
                .iter()
                .filter(|l| l.model == c.model && l.trace == c.trace)
                .fold((0.0, 0u64), |(s, n), l| (s + l.secs, n + l.timed_insts));
            let s = &c.stats;
            format!(
                "core.{}.{} ns_per_inst {:.1} host_share {:.3} reexec_per_inst {:.3} cycles {} rally_passes {} simple_runahead_entries {} slice_peak {} l1d_mpki {:.2} l2_mpki {:.2} loads_per_inst {:.3} mispredicts_pki {:.2}",
                c.model.name(),
                c.trace,
                ratio(secs, insts as f64) * 1e9,
                ratio(secs, total),
                ratio((s.advance_instructions + s.rally_instructions) as f64, c.timed_insts as f64),
                s.cycles,
                s.rally_passes,
                s.simple_runahead_entries,
                s.slice_peak,
                ratio(s.l1d_misses as f64 * 1000.0, c.timed_insts as f64),
                ratio(s.l2_misses as f64 * 1000.0, c.timed_insts as f64),
                ratio(s.mem_loads as f64, c.timed_insts as f64),
                ratio(s.branch_mispredicts as f64 * 1000.0, c.timed_insts as f64),
            )
        })
        .collect()
}

/// The per-layer metrics listed in `BENCHMARK.json`, in that order.
fn per_layer(
    first: &[CellRecord],
    loop_cells: &[CellRecord],
    passes: &[PassFigures],
    probe: &probes::ProbeFigures,
) -> Vec<Metric> {
    let capacity: f64 = passes.iter().map(|p| p.capacity_secs).sum();
    let sim_secs: f64 = passes.iter().map(|p| p.sim_secs).sum();
    let time_of = |m: Option<CoreModel>| {
        loop_cells
            .iter()
            .filter(|c| m.is_none_or(|m| c.model == m))
            .fold((0.0, 0u64), |(s, n), c| (s + c.secs, n + c.timed_insts))
    };
    let counts_of = |m: Option<CoreModel>| {
        let mut acc = (RunStats::default(), 0u64);
        for c in first.iter().filter(|c| m.is_none_or(|m| c.model == m)) {
            let s = &c.stats;
            acc.0.cycles += s.cycles;
            acc.0.advance_instructions += s.advance_instructions;
            acc.0.rally_instructions += s.rally_instructions;
            acc.0.rally_passes += s.rally_passes;
            acc.0.simple_runahead_entries += s.simple_runahead_entries;
            acc.0.slice_peak = acc.0.slice_peak.max(s.slice_peak);
            acc.0.mem_loads += s.mem_loads;
            acc.0.l1d_misses += s.l1d_misses;
            acc.0.l2_misses += s.l2_misses;
            acc.1 += c.timed_insts;
        }
        acc
    };
    let reexec = |(s, n): &(RunStats, u64)| {
        ratio(
            (s.advance_instructions + s.rally_instructions) as f64,
            *n as f64,
        )
    };
    let ns_per_inst = |(secs, n): (f64, u64)| ratio(secs, n as f64) * 1e9;
    let per_kinst = |x: u64, n: u64| ratio(x as f64 * 1000.0, n as f64);
    let all = counts_of(None);
    let (inorder, inorder_n) = counts_of(Some(CoreModel::InOrder));
    let icfp = counts_of(Some(CoreModel::Icfp));
    let inorder_time = time_of(Some(CoreModel::InOrder));
    let icfp_time = time_of(Some(CoreModel::Icfp));
    [
        (
            "workloads.gen_ns_per_inst",
            "ns/inst",
            probe.gen_ns_per_inst,
        ),
        (
            "isa.v2_encode_ns_per_inst",
            "ns/inst",
            probe.encode_ns_per_inst,
        ),
        ("isa.v2_bytes_per_inst", "B/inst", probe.bytes_per_inst),
        (
            "isa.decode_ns_per_inst",
            "ns/inst",
            probe.decode_ns_per_inst,
        ),
        (
            "isa.resident_blocks_peak",
            "blocks",
            probe.resident_blocks_peak as f64,
        ),
        ("isa.decoded_kib_peak", "KiB", probe.decoded_kib_peak),
        ("sim.ff_ns_per_inst", "ns/inst", probe.ff_ns_per_inst),
        ("sim.timed_share", "ratio", ratio(sim_secs, capacity)),
        ("core.ns_per_inst", "ns/inst", ns_per_inst(time_of(None))),
        ("core.reexec_per_inst", "inst/inst", reexec(&all)),
        (
            "core.in-order.ns_per_inst",
            "ns/inst",
            ns_per_inst(inorder_time),
        ),
        (
            "core.in-order.host_share",
            "ratio",
            ratio(inorder_time.0, capacity),
        ),
        ("core.in-order.cycles", "cycles", inorder.cycles as f64),
        ("core.icfp.ns_per_inst", "ns/inst", ns_per_inst(icfp_time)),
        (
            "core.icfp.host_share",
            "ratio",
            ratio(icfp_time.0, capacity),
        ),
        ("core.icfp.reexec_per_inst", "inst/inst", reexec(&icfp)),
        ("core.icfp.cycles", "cycles", icfp.0.cycles as f64),
        (
            "core.icfp.rally_passes",
            "count",
            icfp.0.rally_passes as f64,
        ),
        (
            "core.icfp.simple_runahead_entries",
            "count",
            icfp.0.simple_runahead_entries as f64,
        ),
        ("core.icfp.slice_peak", "entries", icfp.0.slice_peak as f64),
        (
            "mem.l1d_mpki",
            "miss/Kinst",
            per_kinst(inorder.l1d_misses, inorder_n),
        ),
        (
            "mem.l2_mpki",
            "miss/Kinst",
            per_kinst(inorder.l2_misses, inorder_n),
        ),
        (
            "mem.icfp.loads_per_inst",
            "load/inst",
            ratio(icfp.0.mem_loads as f64, icfp.1 as f64),
        ),
        (
            "mem.replay_ns_per_access",
            "ns/access",
            probe.mem_ns_per_access,
        ),
        (
            "bpred.replay_ns_per_branch",
            "ns/branch",
            probe.bpred_ns_per_branch,
        ),
        ("bpred.mispredicts_pki", "miss/Kinst", probe.mispredicts_pki),
        ("sweep.cache.store_us", "us/entry", probe.cache_store_us),
        ("sweep.cache.load_us", "us/entry", probe.cache_load_us),
        ("sweep.cache.hit_ratio", "ratio", probe.cache_hit_ratio),
    ]
    .into_iter()
    .map(|(name, unit, value)| metric(name, unit, value))
    .collect()
}

/// The per-layer metric names, in report order (what `BENCHMARK.json` lists).
pub fn per_layer_names() -> Vec<String> {
    per_layer(&[], &[], &[], &probes::ProbeFigures::default())
        .into_iter()
        .map(|m| m.name)
        .collect()
}

/// The end-to-end metric names, in report order.
pub fn end_to_end_names() -> Vec<String> {
    end_to_end(&[], &[])
        .into_iter()
        .map(|(m, _)| m.name)
        .collect()
}
