//! Layer probes of the traced run: each calls one crate's public functions
//! over the workload's own traces (re-generated at a fixed probe length) and
//! times them without a simulation around them.

use crate::{ratio, trace_seed, Ctx};
use icfp_bpred::{BranchPredictor, PredictorConfig};
use icfp_isa::{
    ArenaSource, Trace, TraceCursor, TraceFile, TraceFileWriter, TraceFormat, TraceSource,
    DEFAULT_BLOCK_INSTS,
};
use icfp_mem::{MemConfig, MemError, MemoryHierarchy};
use icfp_sim::{CellFigures, SimConfig, Simulator};
use icfp_sweep::ResultCache;
use icfp_workloads::{spec_by_name, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

/// What the probes measured.
#[derive(Debug, Clone, Default)]
pub struct ProbeFigures {
    /// `WorkloadSpec::trace`, ns per generated instruction.
    pub gen_ns_per_inst: f64,
    /// `TraceFileWriter::write_source_as` (v2), ns per instruction.
    pub encode_ns_per_inst: f64,
    /// v2 container bytes per instruction.
    pub bytes_per_inst: f64,
    /// `TraceFile::open_sync` plus a `TraceCursor` walk over every block, ns
    /// per instruction.
    pub decode_ns_per_inst: f64,
    /// Peak decoded blocks resident during the walk.
    pub resident_blocks_peak: usize,
    /// Peak decoded KiB resident during the walk.
    pub decoded_kib_peak: f64,
    /// `Simulator::fast_forward` over a whole v2 container, ns per
    /// instruction.
    pub ff_ns_per_inst: f64,
    /// `MemoryHierarchy::{load, store}` replay of every memory access, ns per
    /// access.
    pub mem_ns_per_access: f64,
    /// `BranchPredictor::{predict, update}` replay of every branch of a
    /// branchy trace, ns per branch.
    pub bpred_ns_per_branch: f64,
    /// Mispredictions of that replay per 1000 instructions.
    pub mispredicts_pki: f64,
    /// `ResultCache::store`, µs per entry.
    pub cache_store_us: f64,
    /// `ResultCache::load`, µs per entry.
    pub cache_load_us: f64,
    /// Loads that returned the stored entry ÷ loads.
    pub cache_hit_ratio: f64,
}

/// Seconds `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Replays every load and store of `trace` through a cold hierarchy, one
/// instruction per cycle, waiting out full miss-status registers.
pub fn replay_memory(trace: &Trace) -> u64 {
    let mut mem = MemoryHierarchy::new(MemConfig::paper_default());
    let mut now = 0u64;
    let mut accesses = 0u64;
    for inst in trace {
        now += 1;
        let Some(addr) = inst.addr else { continue };
        loop {
            let r = if inst.is_store() {
                mem.store(addr, now).map(|s| s.completes_at)
            } else {
                mem.load(addr, now).map(|l| l.completes_at)
            };
            match r {
                Ok(done) => {
                    black_box(done);
                    break;
                }
                Err(MemError::MshrFull { retry_at }) => now = retry_at.max(now + 1),
            }
        }
        accesses += 1;
    }
    accesses
}

/// Replays every branch of `trace` through a fresh predictor; returns
/// (branches, mispredictions).
pub fn replay_branches(trace: &Trace) -> (u64, u64) {
    let mut bp = BranchPredictor::new(PredictorConfig::paper_default());
    let (mut branches, mut wrong) = (0u64, 0u64);
    for inst in trace {
        let Some(b) = inst.branch else { continue };
        black_box(bp.predict(inst.pc));
        wrong += u64::from(bp.update(inst.pc, b.taken, b.target));
        branches += 1;
    }
    (branches, wrong)
}

/// Cache entries each result-cache probe stores and loads at least.
const CACHE_PROBE_ENTRIES: usize = 200;

/// Runs every probe over `traces`, and the result-cache probe over
/// `entries`.  A probe that cannot write its scratch file leaves its figures
/// at 0.
pub(crate) fn run(
    ctx: &Ctx,
    traces: &[(&'static WorkloadSpec, u64)],
    entries: &[(u64, CellFigures)],
) -> ProbeFigures {
    let tr = ctx.tracer;
    let n = ctx.scale.probe_insts;
    let mut p = ProbeFigures::default();
    let (mut gen_s, mut enc_s, mut dec_s, mut ff_s, mut mem_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut insts, mut bytes, mut ff_insts, mut accesses) = (0u64, 0u64, 0u64, 0u64);
    for (k, (spec, seed)) in traces.iter().enumerate() {
        let name = spec.name;
        let (trace, s) = timed(|| {
            tr.span(
                "workloads",
                || format!("workloads.trace {name}"),
                || spec.trace(n, *seed),
            )
        });
        gen_s += s;
        insts += trace.len() as u64;

        let path = ctx.work_dir.join(format!("probe-{k}-{name}.v2.trace"));
        let source = ArenaSource::new(trace);
        let (written, s) = timed(|| {
            tr.span(
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
        });
        enc_s += s;
        if let Ok(summary) = written {
            bytes += summary.bytes;
            let (walked, s) = timed(|| {
                tr.span(
                    "isa",
                    || format!("isa.cursor_walk {name}"),
                    || {
                        let file = TraceFile::open_sync(&path).ok()?;
                        TraceCursor::new(&file).for_each_block_from(0, |_, insts| {
                            black_box(insts);
                            true
                        });
                        file.residency().map(|r| (r.peak(), r.peak_bytes()))
                    },
                )
            });
            dec_s += s;
            if let Some((blocks, peak_bytes)) = walked {
                p.resident_blocks_peak = p.resident_blocks_peak.max(blocks);
                p.decoded_kib_peak = p.decoded_kib_peak.max(peak_bytes as f64 / 1024.0);
            }
            if let Ok(file) = TraceFile::open_sync(&path) {
                let len = file.len();
                let mut sim = Simulator::new(SimConfig::default());
                sim.load(file);
                let (done, s) = timed(|| {
                    tr.span(
                        "sim",
                        || format!("sim.fast_forward {name}"),
                        || sim.fast_forward(len),
                    )
                });
                if let Ok(done) = done {
                    ff_s += s;
                    ff_insts += done;
                }
            }
        }

        let trace = source.trace();
        let (a, s) = timed(|| {
            tr.span(
                "mem",
                || format!("mem.replay {name}"),
                || replay_memory(trace),
            )
        });
        mem_s += s;
        accesses += a;
    }
    // Of the standard workloads only branchy has branches, so the predictor
    // replays a branchy trace on every workload.
    let branchy = spec_by_name("branchy").expect("registry workload");
    let trace = branchy.trace(n, trace_seed(ctx.seed, branchy.name));
    let ((branches, wrong), bp_s) = timed(|| {
        tr.span(
            "bpred",
            || "bpred.replay branchy".into(),
            || replay_branches(&trace),
        )
    });
    p.gen_ns_per_inst = ratio(gen_s, insts as f64) * 1e9;
    p.encode_ns_per_inst = ratio(enc_s, insts as f64) * 1e9;
    p.bytes_per_inst = ratio(bytes as f64, insts as f64);
    p.decode_ns_per_inst = ratio(dec_s, insts as f64) * 1e9;
    p.ff_ns_per_inst = ratio(ff_s, ff_insts as f64) * 1e9;
    p.mem_ns_per_access = ratio(mem_s, accesses as f64) * 1e9;
    p.bpred_ns_per_branch = ratio(bp_s, branches as f64) * 1e9;
    p.mispredicts_pki = ratio(wrong as f64 * 1000.0, trace.len() as f64);

    // Stores are first-write-wins, so each repetition uses a fresh directory.
    let reps = CACHE_PROBE_ENTRIES.div_ceil(entries.len().max(1));
    let (mut stored, mut loaded, mut hits, mut store_s, mut load_s) =
        (0usize, 0usize, 0usize, 0.0, 0.0);
    for r in 0..reps {
        let Ok(cache) = ResultCache::open(ctx.work_dir.join(format!("probe-cache-{r}"))) else {
            break;
        };
        let (n, s) = timed(|| {
            tr.span(
                "sweep",
                || "sweep.cache.store".into(),
                || {
                    entries
                        .iter()
                        .filter(|(k, f)| matches!(cache.store(*k, f), Ok(true)))
                        .count()
                },
            )
        });
        stored += n;
        store_s += s;
        let (n, s) = timed(|| {
            tr.span(
                "sweep",
                || "sweep.cache.load".into(),
                || {
                    entries
                        .iter()
                        .filter(|(k, f)| matches!(cache.load(*k), Ok(Some(ref got)) if got == f))
                        .count()
                },
            )
        });
        hits += n;
        loaded += entries.len();
        load_s += s;
    }
    p.cache_store_us = ratio(store_s, stored as f64) * 1e6;
    p.cache_load_us = ratio(load_s, loaded as f64) * 1e6;
    p.cache_hit_ratio = ratio(hits as f64, loaded as f64);
    p
}
