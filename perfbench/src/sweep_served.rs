//! `sweep-served`: an in-process `icfp_sweep::serve` on loopback with a
//! fresh `icfp-cache/v1` directory.  Each round empties the cache, makes one
//! cold submission of the grid, then warm re-submissions of the same spec.
//! Submissions go one at a time over one connection each; the server runs
//! at most `nproc` executor threads.
//!
//! The cold pass exercises executor scheduling, inert-axis cache sharing,
//! cache writes and the pipeline's hit path (branchy and streaming bypass
//! the rally machinery).  The warm passes simulate nothing, so cache reads
//! and wire framing show undiluted.

use crate::check::{digest_matches, golden_digest, FiguresDigest, Tally};
use crate::{panic_message, Bench, CellRecord, Ctx, PassFigures};
use icfp_core::CoreModel;
use icfp_isa::{TraceCursor, TraceSource};
use icfp_sim::{CellFigures, SimConfig, Simulator};
use icfp_sweep::{
    column_source, serve, submit_with, AcceptOptions, ResultCache, RetryPolicy, ServeOptions,
    ServeSummary, SweepCell, SweepSpec,
};
use icfp_workloads::{spec_by_name, WorkloadSpec};
use std::collections::{BTreeMap, HashMap};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const COLUMNS: [&str; 2] = ["branchy", "streaming"];

/// A stalled server surfaces as a typed error instead of hanging the run.
const IO_TIMEOUT_MS: u64 = 60_000;

pub(crate) struct SweepServed {
    spec: SweepSpec,
    columns: Vec<Arc<dyn TraceSource>>,
    addr: String,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<ServeSummary>>,
    cache: ResultCache,
    /// Distinct cache keys of the grid, each with the first job index that
    /// has it (the cell the executor computes).
    computed: BTreeMap<u64, usize>,
    golden: HashMap<String, u64>,
    /// The first round's cold cells; every later round must reproduce them.
    reference: Option<Vec<SweepCell>>,
    entries: Vec<(u64, CellFigures)>,
    first_cell_ms: Vec<f64>,
    ms_per_cell: Vec<f64>,
    warm_hits: u64,
    warm_cells: u64,
}

static SETUPS: AtomicU64 = AtomicU64::new(0);

/// The grid: five models × 2 slice × 2 MSHR × 2 L2 points × 2 columns
/// = 80 cells, every other field at its library default.
fn grid(insts: usize, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new(
        CoreModel::ALL.to_vec(),
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        insts,
        seed,
    );
    spec.slice_buffer_entries = vec![64, 128];
    spec.mshr_counts = vec![16, 64];
    spec.l2_hit_latencies = vec![10, 20];
    spec
}

impl SweepServed {
    fn policy() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            io_timeout_ms: IO_TIMEOUT_MS,
            ..RetryPolicy::default()
        }
    }

    /// Checks a report's cells: none failed and every final state equals
    /// the golden one.  A cold report's cells must also carry the first
    /// round's deterministic figures (instructions, cycles, state digest)
    /// and none may come from the emptied cache.  A warm report's cells must
    /// equal this round's cold cells exactly, so the two report digests are
    /// equal too.
    fn check_cells(
        &self,
        tally: &mut Tally,
        cold: bool,
        cells: &[SweepCell],
        cached: &[bool],
        reference: Option<&[SweepCell]>,
    ) {
        let label = if cold { "cold" } else { "warm" };
        for (k, c) in cells.iter().enumerate() {
            let what = format!(
                "{label} {} {} sb{} mshr{} l2-{}",
                c.model, c.workload, c.slice_buffer_entries, c.mshr_count, c.l2_hit_latency
            );
            let differs = reference.is_some_and(|r| {
                let r = &r[k];
                if cold {
                    (r.instructions, r.cycles, r.state_digest)
                        != (c.instructions, c.cycles, c.state_digest)
                } else {
                    r != c
                }
            });
            tally.cell(if let Some(why) = &c.failed {
                Err(format!("{what}: failed cell: {why}"))
            } else if cold && cached[k] {
                Err(format!("{what}: served from an emptied cache"))
            } else if differs {
                Err(format!("{what}: differs from its reference cell"))
            } else {
                digest_matches(&what, c.state_digest, self.golden[&c.workload])
            });
        }
    }
}

impl Bench for SweepServed {
    const MODELS: &'static [CoreModel] = &CoreModel::ALL;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let spec = grid(ctx.scale.sweep_insts, ctx.seed);
        let columns = COLUMNS
            .iter()
            .map(|w| {
                ctx.tracer.span(
                    "workloads",
                    || format!("workloads.column_source {w}"),
                    || column_source(&spec, w).expect("registry workload"),
                )
            })
            .collect();
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let cache_dir = ctx.work_dir.join(format!("cache-{n}"));
        let cache = ResultCache::open(&cache_dir).map_err(|e| format!("result cache: {e}"))?;
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listener address: {e}"))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let opts = ServeOptions {
            threads: ctx.threads,
            cache_dir: Some(cache_dir),
            io_timeout: Some(Duration::from_millis(IO_TIMEOUT_MS)),
            ..ServeOptions::default()
        };
        let server = ctx.tracer.span(
            "sweep",
            || "sweep.serve start".into(),
            || {
                std::thread::Builder::new()
                    .name("perfbench-sweepd".into())
                    .spawn(move || {
                        serve(
                            listener,
                            opts,
                            AcceptOptions {
                                max_inflight: 1,
                                max_submissions: None,
                                shutdown: Some(flag),
                            },
                            |_| {},
                        )
                    })
                    .map_err(|e| format!("spawn server: {e}"))
            },
        )?;
        Ok(SweepServed {
            spec,
            columns,
            addr,
            shutdown,
            server: Some(server),
            cache,
            computed: BTreeMap::new(),
            golden: HashMap::new(),
            reference: None,
            entries: Vec::new(),
            first_cell_ms: Vec::new(),
            ms_per_cell: Vec::new(),
            warm_hits: 0,
            warm_cells: 0,
        })
    }

    fn teardown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) -> Result<(), String> {
        for (w, col) in COLUMNS.iter().zip(&self.columns) {
            self.golden
                .insert(w.to_string(), golden_digest(&TraceCursor::new(&**col)));
        }
        let digests: HashMap<&str, u64> = COLUMNS
            .iter()
            .zip(&self.columns)
            .map(|(w, c)| (*w, c.digest()))
            .collect();
        for job in self.spec.expand() {
            self.computed
                .entry(job.cache_key(digests[job.workload.as_str()]))
                .or_insert(job.index);
        }
        Ok(())
    }

    fn corrupt_golden(&mut self) {
        if let Some(g) = self.golden.get_mut(COLUMNS[0]) {
            *g ^= 1;
        }
    }

    fn pass(
        &mut self,
        ctx: &Ctx,
        tally: &mut Tally,
        cells: &mut Vec<CellRecord>,
        first: Option<&mut FiguresDigest>,
    ) -> PassFigures {
        let mut f = PassFigures::default();
        let n_cells = self.spec.cell_count() as u64;
        let keys: Vec<u64> = self.computed.keys().copied().collect();
        let removed = ctx.tracer.span(
            "sweep",
            || "sweep.cache.remove".into(),
            || keys.iter().try_for_each(|&k| self.cache.remove(k)),
        );
        if let Err(e) = removed {
            tally.fail_many(n_cells, format!("emptying the result cache: {e}"));
            return f;
        }

        // Cold submission.
        let t = Instant::now();
        let mut cached = vec![false; n_cells as usize];
        let cold = ctx.tracer.span(
            "sweep",
            || "sweep.submit cold".into(),
            || {
                submit_with(
                    &self.addr,
                    &self.spec,
                    ctx.threads,
                    &Self::policy(),
                    |i, hit, _| {
                        cached[i] = hit;
                    },
                )
            },
        );
        let cold_wall = t.elapsed().as_secs_f64();
        let cold = match cold {
            Ok(out) => out,
            Err(e) => {
                tally.fail_many(n_cells, format!("cold submission: {e}"));
                return f;
            }
        };
        self.check_cells(
            tally,
            true,
            &cold.report.cells,
            &cached,
            self.reference.as_deref(),
        );
        if self.reference.is_none() {
            self.reference = Some(cold.report.cells.clone());
        }
        for &idx in self.computed.values() {
            let c = &cold.report.cells[idx];
            f.sim_insts += c.instructions - self.spec.fast_forward as u64;
            f.sim_secs += c.host_seconds;
            let model = CoreModel::parse(&c.model).expect("report names a registry model");
            cells.push(CellRecord {
                model,
                trace: c.workload.clone(),
                timed_insts: c.instructions - self.spec.fast_forward as u64,
                secs: c.host_seconds,
                stats: Default::default(),
            });
        }
        f.capacity_secs = cold_wall * cold.report.threads.max(1) as f64;
        f.report_insts = cold.report.cells.iter().map(|c| c.instructions).sum();
        f.report_secs = cold_wall;
        f.report_cells = n_cells;

        if let Some(d) = first {
            for c in &cold.report.cells {
                d.add(
                    &c.model,
                    &c.workload,
                    c.instructions,
                    c.cycles,
                    c.state_digest,
                );
            }
            for (&key, &idx) in &self.computed {
                let c = &cold.report.cells[idx];
                self.entries.push((
                    key,
                    CellFigures {
                        instructions: c.instructions,
                        cycles: c.cycles,
                        ipc: c.ipc,
                        l1d_mpki: c.l1d_mpki,
                        l2_mpki: c.l2_mpki,
                        host_seconds: c.host_seconds,
                        mips: c.mips,
                        state_digest: c.state_digest,
                    },
                ));
            }
            // Served cells carry no run counters; the first pass runs each
            // model on each column locally at the default configuration (a
            // point of the grid) for them.
            cells.clear();
            for (w, col) in COLUMNS.iter().zip(&self.columns) {
                for &model in Self::MODELS {
                    let t = Instant::now();
                    match catch_unwind(AssertUnwindSafe(|| {
                        Simulator::new(SimConfig::new(model)).run_source(&**col)
                    })) {
                        Ok(r) => {
                            let what = format!("local {} {w}", model.name());
                            tally.cell(digest_matches(&what, r.state_digest, self.golden[*w]));
                            cells.push(CellRecord {
                                model,
                                trace: w.to_string(),
                                timed_insts: col.len() as u64,
                                secs: t.elapsed().as_secs_f64(),
                                stats: r.result.stats,
                            });
                        }
                        Err(p) => tally.cell(Err(format!(
                            "local {} {w}: panicked: {}",
                            model.name(),
                            panic_message(p)
                        ))),
                    }
                }
            }
        }

        // Warm re-submissions of the same spec.
        for k in 0..ctx.scale.warm_submits {
            let t = Instant::now();
            let mut arrivals = Vec::with_capacity(n_cells as usize);
            let mut cached = vec![false; n_cells as usize];
            let warm = ctx.tracer.span(
                "sweep",
                || format!("sweep.submit warm{k}"),
                || {
                    submit_with(
                        &self.addr,
                        &self.spec,
                        ctx.threads,
                        &Self::policy(),
                        |i, hit, _| {
                            arrivals.push(t.elapsed().as_secs_f64());
                            cached[i] = hit;
                        },
                    )
                },
            );
            let wall = t.elapsed().as_secs_f64();
            let warm = match warm {
                Ok(out) => out,
                Err(e) => {
                    tally.fail_many(n_cells, format!("warm submission: {e}"));
                    continue;
                }
            };
            self.check_cells(
                tally,
                false,
                &warm.report.cells,
                &cached,
                Some(&cold.report.cells),
            );
            self.warm_hits += warm.hits;
            self.warm_cells += n_cells;
            if let (Some(first), Some(last)) = (arrivals.first(), arrivals.last()) {
                self.first_cell_ms.push(first * 1e3);
                if arrivals.len() > 1 {
                    self.ms_per_cell
                        .push((last - first) * 1e3 / (arrivals.len() - 1) as f64);
                }
            }
            f.repeat_cells += n_cells;
            f.repeat_secs += wall;
        }
        f
    }

    fn probe_traces(&self) -> Vec<(&'static WorkloadSpec, u64)> {
        COLUMNS
            .iter()
            .map(|w| {
                (
                    spec_by_name(w).expect("registry workload"),
                    self.spec.workload_seed(w),
                )
            })
            .collect()
    }

    fn cache_entries(&self) -> Vec<(u64, CellFigures)> {
        self.entries.clone()
    }

    fn layer_lines(&self) -> Vec<String> {
        let median = crate::stats::median;
        vec![
            format!(
                "layer sweep.cells = {} count (cold; sweep.cells_computed = {} distinct cache keys, the gap is inert-axis sharing)",
                self.spec.cell_count(),
                self.computed.len()
            ),
            format!(
                "layer sweep.cache.warm_hit_ratio = {} ratio ({} of {} warm cells served from the cache)",
                self.warm_hits as f64 / self.warm_cells.max(1) as f64,
                self.warm_hits,
                self.warm_cells
            ),
            format!(
                "layer sweep.wire.first_cell_ms = {} ms (median of {} warm submissions)",
                median(&self.first_cell_ms),
                self.first_cell_ms.len()
            ),
            format!(
                "layer sweep.wire.ms_per_cell = {} ms (median interval between streamed warm cells)",
                median(&self.ms_per_cell)
            ),
        ]
    }
}
