//! Output checks: every simulated cell must end in the architectural state
//! the golden functional model computes for its trace.

use icfp_core::common::golden_final_state_cursor;
use icfp_isa::{Fnv1a, TraceCursor};
use icfp_pipeline::{RunResult, RunStats};

/// State digest of the golden functional model over the trace behind
/// `cursor`, computed with the same fold as [`RunResult::state_digest`].
pub fn golden_digest(cursor: &TraceCursor<'_>) -> u64 {
    let (final_regs, final_mem) = golden_final_state_cursor(cursor);
    RunResult {
        core: String::new(),
        workload: String::new(),
        stats: RunStats::default(),
        final_regs,
        final_mem,
    }
    .state_digest()
}

/// Attempted and failed cells.  A cell fails on a digest mismatch, an error
/// or a panic.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one cell; `Err` carries why it failed.
    pub fn cell(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Records `n` cells that failed for one reason (a failed submission).
    pub fn fail_many(&mut self, n: u64, why: String) {
        self.attempted += n;
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// Compares a cell's final-state digest with the golden one.
pub fn digest_matches(what: &str, found: u64, expected: u64) -> Result<(), String> {
    if found == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: state digest {found:#018x} != golden {expected:#018x}"
        ))
    }
}

/// One digest over every deterministic cell figure of a run (model, trace,
/// committed instructions, simulated cycles, final-state digest), in cell
/// order.  A change that only speeds up the host leaves it unchanged.
#[derive(Debug, Clone)]
pub struct FiguresDigest(Fnv1a);

impl Default for FiguresDigest {
    fn default() -> Self {
        FiguresDigest(Fnv1a::new())
    }
}

impl FiguresDigest {
    /// Folds one cell.
    pub fn add(&mut self, model: &str, trace: &str, instructions: u64, cycles: u64, state: u64) {
        self.0.write_field(model.as_bytes());
        self.0.write_field(trace.as_bytes());
        self.0.write_u64(instructions);
        self.0.write_u64(cycles);
        self.0.write_u64(state);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}
