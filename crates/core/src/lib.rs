//! # icfp-core — the iCFP mechanism and the designs it is compared against
//!
//! This crate contains cycle-level models of the five back ends evaluated in
//! the paper, all built on the shared substrate crates (`icfp-mem`,
//! `icfp-bpred`, `icfp-pipeline`):
//!
//! | Model | Module | Paper role |
//! |---|---|---|
//! | Vanilla in-order | [`inorder`] | baseline; stalls at the first miss-dependent instruction |
//! | Runahead execution | [`runahead`] | non-blocking advance, discards and re-executes everything |
//! | Multipass pipelining | [`multipass`] | Runahead + saved miss-independent results to accelerate re-execution |
//! | SLTP | [`sltp`] | commits miss-independent work, SRL memory system, single *blocking* rally |
//! | iCFP | [`icfp`] | commits miss-independent work, chained store buffer, multiple non-blocking multithreaded rallies |
//!
//! Supporting structures that the paper introduces or relies on are their own
//! modules: the address-hash-chained store buffer ([`storebuf`]), the slice
//! buffer ([`slicebuf`]), the store redo log and runahead cache (also in
//! [`storebuf`]), and the multiprocessor-safety signature ([`signature`]).
//!
//! Every core implements [`Core`]: it consumes a [`icfp_isa::Trace`] and
//! produces a [`icfp_pipeline::RunResult`] whose final architectural state is
//! checked against the functional golden model in the integration tests.
//!
//! Drivers (the simulator, the bench harness, the sweep executor) do not
//! dispatch over models themselves: [`CoreModel::engine`] — the registry in
//! [`engine`] — hands them an object-safe [`CoreEngine`] they step, drain and
//! digest uniformly.
//!
//! ```
//! use icfp_core::{Core, CoreConfig, InOrderCore, IcfpCore};
//! use icfp_isa::{DynInst, Op, Reg, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("tiny");
//! b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x4000));
//! b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
//! let trace = b.build();
//!
//! let cfg = CoreConfig::paper_default();
//! let base = InOrderCore::new(cfg.clone()).run(&trace);
//! let icfp = IcfpCore::new(cfg).run(&trace);
//! assert_eq!(base.final_regs, icfp.final_regs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advance_memo;
pub mod common;
pub mod config;
pub mod engine;
pub use icfp_isa::fxmap;
pub mod icfp;
pub mod inorder;
pub mod multipass;
pub mod runahead;
pub mod signature;
pub mod slicebuf;
pub mod sltp;
pub mod storebuf;

pub use common::Engine;
pub use config::{AdvancePolicy, CoreConfig, IcfpFeatures, StoreBufferKind};
pub use engine::{run_model, CoreEngine, CoreModel, EngineSnapshot};
pub use icfp::{IcfpCore, IcfpMachine};
pub use inorder::InOrderCore;
pub use multipass::MultipassCore;
pub use runahead::RunaheadCore;
pub use signature::Signature;
pub use slicebuf::{SliceBuffer, SliceEntry};
pub use sltp::SltpCore;
pub use storebuf::{AssocStoreBuffer, ChainedStoreBuffer, LimitedStoreBuffer, RunaheadCache, StoreRedoLog};

use icfp_isa::{exec::ArchState, Trace, TraceCursor};
use icfp_pipeline::RunResult;

/// A back-end core model that can execute a trace.
///
/// Models read the instruction stream exclusively through a
/// [`TraceCursor`], so the same code path serves in-memory arenas (the
/// cursor's zero-cost fast path) and block-streamed sources (`icfp-trace/v1`
/// files, resumable generators) whose traces never fully materialize.
pub trait Core {
    /// The model's short name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Simulates the trace behind the cursor to completion and returns
    /// timing statistics plus the final architectural state.
    fn run_cursor(&mut self, trace: &TraceCursor<'_>) -> RunResult {
        self.run_cursor_from(trace, None)
    }

    /// [`Core::run_cursor`] with an optional functional fast-forward seed:
    /// when `warm` is given, the engine starts with its architectural
    /// registers and memory (timing state cold) and the timed region covers
    /// trace positions `warm.instructions..len`.  The final architectural
    /// state equals the cold run's — architectural execution is
    /// timing-independent — while cycles cover only the timed region.
    fn run_cursor_from(&mut self, trace: &TraceCursor<'_>, warm: Option<&ArchState>)
        -> RunResult;

    /// Convenience wrapper over [`Core::run_cursor`] for in-memory traces
    /// (the historical entry point; all deterministic outputs are identical).
    fn run(&mut self, trace: &Trace) -> RunResult {
        self.run_cursor(&TraceCursor::from_trace(trace))
    }
}
