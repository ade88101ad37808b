//! `miss-bound`: all five models on pointer-chase and dcache-thrash,
//! in-memory traces, every cell timed from a cold start with no
//! fast-forward.  Re-executed work (advance and rally instructions) is where
//! the host time goes here.

use crate::check::{digest_matches, golden_digest, FiguresDigest, Tally};
use crate::{panic_message, trace_seed, Bench, CellRecord, Ctx, PassFigures};
use icfp_core::CoreModel;
use icfp_isa::{Trace, TraceCursor};
use icfp_sim::{CellFigures, SimConfig, Simulator};
use icfp_sweep::SweepJob;
use icfp_workloads::{spec_by_name, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const TRACES: [&str; 2] = ["pointer-chase", "dcache-thrash"];

pub(crate) struct MissBound {
    traces: Vec<(&'static WorkloadSpec, u64, Trace)>,
    golden: Vec<u64>,
    entries: Vec<(u64, CellFigures)>,
}

impl Bench for MissBound {
    const MODELS: &'static [CoreModel] = &CoreModel::ALL;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let traces = TRACES
            .iter()
            .map(|name| {
                let spec = spec_by_name(name).expect("registry workload");
                let seed = trace_seed(ctx.seed, name);
                let trace = ctx.tracer.span(
                    "workloads",
                    || format!("workloads.trace {name}"),
                    || spec.trace(ctx.scale.miss_insts, seed),
                );
                (spec, seed, trace)
            })
            .collect();
        Ok(MissBound {
            traces,
            golden: Vec::new(),
            entries: Vec::new(),
        })
    }

    fn prepare(&mut self, _ctx: &Ctx) -> Result<(), String> {
        self.golden = self
            .traces
            .iter()
            .map(|(_, _, t)| golden_digest(&TraceCursor::from_trace(t)))
            .collect();
        Ok(())
    }

    fn corrupt_golden(&mut self) {
        self.golden[0] ^= 1;
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
        for (k, (_, seed, trace)) in self.traces.iter().enumerate() {
            for &model in Self::MODELS {
                let what = format!("{} {}", model.name(), trace.name());
                let t = Instant::now();
                let run = ctx.tracer.span(
                    "sim",
                    || format!("sim.run {what}"),
                    || {
                        catch_unwind(AssertUnwindSafe(|| {
                            Simulator::new(SimConfig::new(model)).run(trace)
                        }))
                    },
                );
                let secs = t.elapsed().as_secs_f64();
                let report = match run {
                    Ok(r) => r,
                    Err(p) => {
                        tally.cell(Err(format!("{what}: panicked: {}", panic_message(p))));
                        continue;
                    }
                };
                tally.cell(digest_matches(&what, report.state_digest, self.golden[k]));
                // No fast-forward: the timed region is the whole trace.
                let timed = trace.len() as u64;
                f.sim_insts += timed;
                f.sim_secs += secs;
                f.report_insts += timed;
                if let Some(d) = first.as_deref_mut() {
                    d.add(
                        model.name(),
                        trace.name(),
                        report.instructions,
                        report.cycles,
                        report.state_digest,
                    );
                    let job = SweepJob {
                        index: self.entries.len(),
                        model,
                        config: model.default_config(),
                        workload: trace.name().to_string(),
                        insts: trace.len(),
                        seed: *seed,
                        reps: 1,
                        fast_forward: 0,
                    };
                    self.entries
                        .push((job.cache_key(trace.digest()), report.figures()));
                }
                cells.push(CellRecord {
                    model,
                    trace: trace.name().to_string(),
                    timed_insts: timed,
                    secs,
                    stats: report.result.stats,
                });
            }
        }
        let wall = t_pass.elapsed().as_secs_f64();
        f.capacity_secs = wall;
        f.report_secs = wall;
        f.report_cells = (self.traces.len() * Self::MODELS.len()) as u64;
        f.repeat_cells = f.report_cells;
        f.repeat_secs = wall;
        f
    }

    fn probe_traces(&self) -> Vec<(&'static WorkloadSpec, u64)> {
        self.traces.iter().map(|(s, seed, _)| (*s, *seed)).collect()
    }

    fn cache_entries(&self) -> Vec<(u64, CellFigures)> {
        self.entries.clone()
    }
}
