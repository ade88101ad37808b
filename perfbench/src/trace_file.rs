//! `trace-file`: dcache-thrash and streaming written to `icfp-trace/v2`
//! containers during set-up; each cell opens its container, fast-forwards
//! functionally through most of it, and simulates the rest with timing.
//! Block decode and functional fast-forward do most of the work here;
//! in-memory workloads bypass both.
//!
//! Containers are opened with `TraceFile::open_sync`.  With the async
//! prefetch worker of `TraceFile::open`, run-to-run spread on a two-CPU
//! machine was 20–25%, against 2–3% decoding inline, which is too wide for
//! the benchmark's bounds.
//!
//! Timed-region figures are derived here (trace length minus
//! fast-forward).  `SimReport::{ipc, mips}` are not used on these runs: they
//! divide whole-trace instructions by timed-region cycles and seconds (a
//! known program defect; the first pass prints both for comparison).

use crate::check::{digest_matches, golden_digest, FiguresDigest, Tally};
use crate::{panic_message, trace_seed, Bench, CellRecord, Ctx, PassFigures};
use icfp_core::CoreModel;
use icfp_isa::{TraceCursor, TraceFile, TraceFileWriter, TraceFormat, DEFAULT_BLOCK_INSTS};
use icfp_sim::{CellFigures, SimConfig, SimReport, Simulator, StepStatus};
use icfp_sweep::SweepJob;
use icfp_workloads::{spec_by_name, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

const TRACES: [&str; 2] = ["dcache-thrash", "streaming"];

struct Container {
    spec: &'static WorkloadSpec,
    seed: u64,
    path: PathBuf,
    len: usize,
    digest: u64,
    golden: u64,
}

pub(crate) struct TraceFileBench {
    containers: Vec<Container>,
    entries: Vec<(u64, CellFigures)>,
    defect_lines: Vec<String>,
}

/// One cell: open, fast-forward, simulate the timed region.  Returns the
/// report, the instructions actually fast-forwarded and the seconds spent in
/// the timed simulation calls.
fn run_cell(ctx: &Ctx, c: &Container, model: CoreModel) -> Result<(SimReport, u64, f64), String> {
    let name = c.spec.name;
    let file = ctx
        .tracer
        .span(
            "isa",
            || format!("isa.open_sync {name}"),
            || TraceFile::open_sync(&c.path),
        )
        .map_err(|e| format!("open {}: {e}", c.path.display()))?;
    let mut sim = Simulator::new(SimConfig::new(model));
    sim.load(file);
    let ff = c.len.saturating_sub(ctx.scale.file_timed);
    let skipped = ctx
        .tracer
        .span(
            "sim",
            || format!("sim.fast_forward {} {name}", model.name()),
            || sim.fast_forward(ff),
        )
        .map_err(|e| format!("fast-forward: {e}"))?;
    let t = Instant::now();
    let status = ctx.tracer.span(
        "sim",
        || format!("sim.step_n {} {name}", model.name()),
        || sim.step_n(u64::MAX),
    );
    let secs = t.elapsed().as_secs_f64();
    match status {
        StepStatus::Done(report) => Ok((*report, skipped, secs)),
        StepStatus::Running { .. } => {
            Err("an unbounded step_n returned before the trace ended".into())
        }
        StepStatus::NotLoaded => Err("simulator lost its trace".into()),
    }
}

impl Bench for TraceFileBench {
    const MODELS: &'static [CoreModel] = &[CoreModel::InOrder, CoreModel::Icfp];

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut containers = Vec::new();
        for name in TRACES {
            let spec = spec_by_name(name).expect("registry workload");
            let seed = trace_seed(ctx.seed, name);
            let path = ctx.work_dir.join(format!("{name}.v2.trace"));
            let source = ctx.tracer.span(
                "workloads",
                || format!("workloads.source {name}"),
                || spec.source(ctx.scale.file_insts, seed, DEFAULT_BLOCK_INSTS),
            );
            let summary = ctx
                .tracer
                .span(
                    "isa",
                    || format!("isa.write_source_as {name}"),
                    || {
                        TraceFileWriter::write_source_as(
                            &path,
                            &source,
                            DEFAULT_BLOCK_INSTS,
                            TraceFormat::V2,
                        )
                    },
                )
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            containers.push(Container {
                spec,
                seed,
                path,
                len: summary.instructions as usize,
                digest: summary.digest,
                golden: 0,
            });
        }
        Ok(TraceFileBench {
            containers,
            entries: Vec::new(),
            defect_lines: Vec::new(),
        })
    }

    fn prepare(&mut self, _ctx: &Ctx) -> Result<(), String> {
        for c in &mut self.containers {
            let file = TraceFile::open_sync(&c.path)
                .map_err(|e| format!("open {}: {e}", c.path.display()))?;
            c.golden = golden_digest(&TraceCursor::new(&file));
        }
        Ok(())
    }

    fn corrupt_golden(&mut self) {
        self.containers[0].golden ^= 1;
    }

    fn pass(
        &mut self,
        ctx: &Ctx,
        tally: &mut Tally,
        cells: &mut Vec<CellRecord>,
        mut first: Option<&mut FiguresDigest>,
    ) -> PassFigures {
        let t_pass = Instant::now();
        let mut f = PassFigures::default();
        for c in &self.containers {
            for &model in Self::MODELS {
                let what = format!("{} {}", model.name(), c.spec.name);
                let t_cell = Instant::now();
                let cell = match catch_unwind(AssertUnwindSafe(|| run_cell(ctx, c, model))) {
                    Ok(r) => r,
                    Err(p) => Err(format!("panicked: {}", panic_message(p))),
                };
                let cell_wall = t_cell.elapsed().as_secs_f64();
                let (report, skipped, secs) = match cell {
                    Ok(r) => r,
                    Err(e) => {
                        tally.cell(Err(format!("{what}: {e}")));
                        continue;
                    }
                };
                tally.cell(digest_matches(&what, report.state_digest, c.golden));
                let timed = (c.len as u64).saturating_sub(skipped);
                f.sim_insts += timed;
                f.sim_secs += secs;
                f.report_insts += c.len as u64;
                f.report_secs += cell_wall;
                if let Some(d) = first.as_deref_mut() {
                    d.add(
                        model.name(),
                        c.spec.name,
                        timed,
                        report.cycles,
                        report.state_digest,
                    );
                    self.defect_lines.push(format!(
                        "ff-report-defect {what}: SimReport ipc {:.3} mips {:.2} (whole-trace instructions {}); derived timed-region ipc {:.3} mips {:.2} ({timed} instructions)",
                        report.ipc,
                        report.mips,
                        report.instructions,
                        timed as f64 / report.cycles.max(1) as f64,
                        timed as f64 / secs / 1e6,
                    ));
                    let job = SweepJob {
                        index: self.entries.len(),
                        model,
                        config: model.default_config(),
                        workload: c.spec.name.to_string(),
                        insts: c.len,
                        seed: c.seed,
                        reps: 1,
                        fast_forward: skipped as usize,
                    };
                    self.entries
                        .push((job.cache_key(c.digest), report.figures()));
                }
                cells.push(CellRecord {
                    model,
                    trace: c.spec.name.to_string(),
                    timed_insts: timed,
                    secs,
                    stats: report.result.stats,
                });
            }
        }
        let wall = t_pass.elapsed().as_secs_f64();
        f.capacity_secs = wall;
        f.report_cells = (self.containers.len() * Self::MODELS.len()) as u64;
        f.repeat_cells = f.report_cells;
        f.repeat_secs = wall;
        f
    }

    fn probe_traces(&self) -> Vec<(&'static WorkloadSpec, u64)> {
        self.containers.iter().map(|c| (c.spec, c.seed)).collect()
    }

    fn cache_entries(&self) -> Vec<(u64, CellFigures)> {
        self.entries.clone()
    }

    fn first_pass_lines(&self) -> Vec<String> {
        self.defect_lines.clone()
    }
}
