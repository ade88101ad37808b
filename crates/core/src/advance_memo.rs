//! Replay of inert advance segments for Runahead and Multipass.
//!
//! Runahead discards everything it did in advance mode and re-advances after
//! every miss.  On a dependent-miss chain each episode walks nearly the same
//! window again, from a timing state that is the same *relative to the fetch
//! cycle*.  [`AdvanceMemo`] records such walks in fixed-size segments and,
//! when a later episode reaches the same segment from an equivalent state,
//! applies the recorded effect instead of simulating it instruction by
//! instruction.  Every simulated figure stays the same as the plain loop's.
//!
//! A segment is [`SEGMENT`] instructions starting at a trace position that is
//! a multiple of [`SEGMENT`].  It is recorded only if every instruction in it
//! is *inert* ([`is_inert`]): poisoned and not a store, or clean and not a
//! load, store or branch.  Such an instruction touches only the fetch slots,
//! the issue schedule, the timing and poison state of its destination
//! register, the issue frontier, the completion cycle and two counters.  It
//! never reaches the memory hierarchy, the predictor, the runahead cache, the
//! store queue or the Multipass result buffer, and the register value it
//! computes is replaced from the checkpoint when the episode ends.
//!
//! The lookup key is the state that can influence those instructions, taken
//! relative to the fetch cycle `F` at the segment start:
//!
//! * the position;
//! * every register's poison mask;
//! * the fetch slots already used in cycle `F`;
//! * the last issue grant (cycle − `F` and its slot use), only if it is at or
//!   after `F + frontend_depth` — no instruction fetched at or after `F` can
//!   issue earlier, so an earlier grant constrains nothing;
//! * every clean register still pending after `F + frontend_depth`, as
//!   (register, `ready_at` − `F`).  Every other register is ready before any
//!   instruction of the segment leaves the front end.
//!
//! The memo is run-local: it is never serialised and has no option.  Segments
//! at or behind the current checkpoint are evicted (advance mode never
//! reaches them again) and at most [`CAPACITY`] segments are kept.

use crate::common::Engine;
use icfp_isa::{Cycle, DynInst, OpClass, Reg};
use icfp_pipeline::{PoisonMask, SlotUse};
use std::collections::BTreeMap;

/// Instructions per memoised segment; segments start at multiples of it.
pub(crate) const SEGMENT: usize = 64;

/// Most segments kept at once.
const CAPACITY: usize = 512;

/// Whether an advance-mode instruction with source poison `poison` leaves no
/// trace outside the state the memo records (see the module docs).
#[inline]
pub(crate) fn is_inert(inst: &DynInst, poison: PoisonMask) -> bool {
    if poison.is_poisoned() {
        !inst.is_store()
    } else {
        !matches!(
            inst.class(),
            OpClass::Load | OpClass::Store | OpClass::Branch
        )
    }
}

/// The state an inert segment's timing depends on, relative to its start
/// fetch cycle (the position is the map key).  The fields most likely to
/// differ between candidates at one position come first: the derived
/// equality compares in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Key {
    fetch_used: usize,
    grant: Option<(Cycle, SlotUse)>,
    pending: Vec<(u8, Cycle)>,
    poison: Vec<u64>,
}

/// Timing state after one step of a segment, relative to its start fetch
/// cycle.
#[derive(Debug, Clone, Copy)]
struct Step {
    fetch_cycle: u32,
    fetch_used: u32,
    /// The issue frontier, which is also the last grant's cycle.
    frontier: u32,
    /// The latest completion of the segment's own instructions so far.
    completion: u32,
    issue_used: SlotUse,
}

/// A register's timing state at the end of a segment that wrote it.
#[derive(Debug, Clone, Copy)]
struct Written {
    reg: u8,
    writer: u8,
    poison: PoisonMask,
    /// `ready_at` relative to the start fetch cycle (unused when poisoned).
    ready: u32,
}

#[derive(Debug)]
struct Segment {
    key: Key,
    steps: Box<[Step]>,
    writes: Box<[Written]>,
}

impl Segment {
    /// Applies the segment to `eng`, whose state matches the key relative to
    /// fetch cycle `base`.  Stops after the first step whose frontier reaches
    /// `trigger_return` (the plain loop ends the episode there) and returns
    /// the number of instructions replayed.
    fn replay(&self, eng: &mut Engine, start: usize, base: Cycle, trigger_return: Cycle) -> usize {
        // The frontier is monotone over the steps.
        let k = self
            .steps
            .partition_point(|s| base + Cycle::from(s.frontier) < trigger_return);
        let n = (k + 1).min(self.steps.len());
        let s = self.steps[n - 1];
        eng.fetch.replay_to(
            base + Cycle::from(s.fetch_cycle),
            s.fetch_used as usize,
            n as u64,
        );
        eng.issue
            .resume_at(base + Cycle::from(s.frontier), s.issue_used);
        eng.frontier = base + Cycle::from(s.frontier);
        eng.note_completion(base + Cycle::from(s.completion));
        eng.stats.advance_instructions += n as u64;
        if k == self.steps.len() {
            // The episode goes on: later instructions see these registers.
            // (When it ends here, the restore overwrites every register.)
            for w in self.writes.iter() {
                eng.rf.replay_write(
                    Reg::from_index(w.reg as usize),
                    w.poison,
                    base + Cycle::from(w.ready),
                    (start + w.writer as usize) as u64,
                );
            }
        }
        n
    }
}

/// A segment being recorded while the plain loop simulates it.
#[derive(Debug)]
struct Recording {
    start: usize,
    base: Cycle,
    key: Key,
    steps: Vec<Step>,
    /// The segment's own latest completion so far, relative to `base`.
    /// Never taken from `Engine::completion`, which carries earlier
    /// completions.
    completion: Cycle,
    /// Completion latency of the instruction being simulated.
    latency: Cycle,
}

/// The run-local memo of inert advance segments.
#[derive(Debug, Default)]
pub(crate) struct AdvanceMemo {
    segments: BTreeMap<usize, Vec<Segment>>,
    len: usize,
    /// Scratch key of the live state, rebuilt at each segment boundary.
    live: Key,
    recording: Option<Recording>,
}

impl AdvanceMemo {
    /// Drops segments at or behind trace index `ckpt`.  Called when an
    /// episode checkpoints at `ckpt`: advance mode starts after it and never
    /// goes back.
    pub(crate) fn evict_through(&mut self, ckpt: usize) {
        while let Some(e) = self.segments.first_entry() {
            if *e.key() > ckpt {
                break;
            }
            self.len -= e.remove().len();
        }
    }

    /// Stops recording: the episode ended or an instruction was not inert.
    pub(crate) fn abandon(&mut self) {
        self.recording = None;
    }

    /// Called before each advance-mode instruction is simulated, with its
    /// source poison.
    #[inline]
    pub(crate) fn admit(&mut self, inst: &DynInst, poison: PoisonMask) {
        if let Some(rec) = &mut self.recording {
            if is_inert(inst, poison) {
                rec.latency = if poison.is_poisoned() {
                    1
                } else {
                    inst.latency()
                };
            } else {
                self.abandon();
            }
        }
    }

    /// Called after each advance-mode instruction is simulated (at the top of
    /// the next loop iteration, before the episode-end check).
    #[inline]
    pub(crate) fn after_step(&mut self, eng: &Engine) {
        let Some(rec) = &mut self.recording else {
            return;
        };
        let (fetch_cycle, fetch_used) = eng.fetch.position();
        let (issue_cycle, issue_used) = eng.issue.last_grant();
        rec.completion = rec.completion.max(issue_cycle + rec.latency - rec.base);
        let rel = |c: Cycle| u32::try_from(c - rec.base).ok();
        let step = (|| {
            Some(Step {
                fetch_cycle: rel(fetch_cycle)?,
                fetch_used: u32::try_from(fetch_used).ok()?,
                frontier: rel(issue_cycle)?,
                completion: u32::try_from(rec.completion).ok()?,
                issue_used,
            })
        })();
        match step {
            Some(s) => rec.steps.push(s),
            None => self.abandon(),
        }
    }

    /// Called in advance mode at trace index `i`, a multiple of [`SEGMENT`],
    /// before instruction `i` is simulated.  Stores a recording that ends
    /// here.  Then, if `open` (Multipass: the result buffer can change no
    /// more this episode), replays a matching segment and returns the number
    /// of instructions it covered, or starts recording and returns 0.
    pub(crate) fn at_boundary(
        &mut self,
        eng: &mut Engine,
        i: usize,
        trigger_return: Cycle,
        len: usize,
        open: bool,
    ) -> usize {
        debug_assert!(i.is_multiple_of(SEGMENT));
        if let Some(rec) = self.recording.take() {
            self.store(eng, rec, i);
        }
        let (grant_cycle, _) = eng.issue.last_grant();
        if !open || eng.frontier != grant_cycle {
            return 0;
        }
        let (base, _) = eng.fetch.position();
        self.fill_live(eng, base);
        if let Some(seg) = self
            .segments
            .get(&i)
            .and_then(|v| v.iter().find(|s| s.key == self.live))
        {
            let n = seg.replay(eng, i, base, trigger_return);
            #[cfg(test)]
            test_counters::note_replay(n as u64);
            return n;
        }
        if self.len < CAPACITY && i + SEGMENT <= len {
            self.recording = Some(Recording {
                start: i,
                base,
                key: self.live.clone(),
                steps: Vec::with_capacity(SEGMENT),
                completion: 0,
                latency: 0,
            });
        }
        0
    }

    /// Rebuilds the live key relative to fetch cycle `base`.
    fn fill_live(&mut self, eng: &Engine, base: Cycle) {
        let horizon = base + eng.cfg.pipeline.frontend_depth;
        let live = &mut self.live;
        live.poison.clear();
        live.poison.extend_from_slice(eng.rf.poison_plane().words());
        live.fetch_used = eng.fetch.position().1;
        let (grant_cycle, grant_used) = eng.issue.last_grant();
        live.grant = (grant_cycle >= horizon).then(|| (grant_cycle - base, grant_used));
        live.pending.clear();
        for (idx, e) in eng.rf.entries().iter().enumerate() {
            #[cfg(test)]
            if e.ready_at == horizon && eng.rf.poison_plane().get(idx).is_clean() {
                test_counters::note_boundary_ready();
            }
            // A poisoned register is keyed by its poison lane instead.
            if e.ready_at > horizon && eng.rf.poison_plane().get(idx).is_clean() {
                live.pending.push((idx as u8, e.ready_at - base));
            }
        }
    }

    /// Stores `rec` if it covered the whole segment ending at `end`.
    fn store(&mut self, eng: &Engine, rec: Recording, end: usize) {
        if rec.steps.len() != SEGMENT || rec.start + SEGMENT != end || self.len >= CAPACITY {
            return;
        }
        let range = rec.start as u64..end as u64;
        let mut writes = Vec::new();
        for r in Reg::all() {
            let Some(seq) = eng.rf.last_writer(r).filter(|s| range.contains(s)) else {
                continue;
            };
            let poison = eng.rf.poison(r);
            let ready = if poison.is_poisoned() {
                0
            } else {
                match u32::try_from(eng.rf.ready_at(r) - rec.base) {
                    Ok(d) => d,
                    Err(_) => return,
                }
            };
            writes.push(Written {
                reg: r.index() as u8,
                writer: (seq - range.start) as u8,
                poison,
                ready,
            });
        }
        self.segments.entry(rec.start).or_default().push(Segment {
            key: rec.key,
            steps: rec.steps.into_boxed_slice(),
            writes: writes.into_boxed_slice(),
        });
        self.len += 1;
    }
}

/// Per-thread counters that let tests prove the memo was exercised.
#[cfg(test)]
pub(crate) mod test_counters {
    use std::cell::Cell;

    thread_local! {
        static REPLAYED: Cell<u64> = const { Cell::new(0) };
        static BOUNDARY_READY: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn note_replay(n: u64) {
        REPLAYED.with(|c| c.set(c.get() + n));
    }

    pub(crate) fn note_boundary_ready() {
        BOUNDARY_READY.with(|c| c.set(c.get() + 1));
    }

    /// Instructions replayed on this thread so far.
    pub(crate) fn replayed() -> u64 {
        REPLAYED.with(Cell::get)
    }

    /// Segment boundaries on this thread so far at which a clean register
    /// became ready exactly at `F + frontend_depth`.
    pub(crate) fn boundary_ready() -> u64 {
        BOUNDARY_READY.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdvancePolicy, CoreConfig};
    use crate::runahead::runahead_like_run;
    use icfp_isa::{Op, TraceCursor};
    use icfp_pipeline::RunResult;

    // ---- The memo against the plain loop, end to end. ----

    const POLICIES: [AdvancePolicy; 3] = [
        AdvancePolicy::L2Only,
        AdvancePolicy::L2AndPrimaryDcache,
        AdvancePolicy::AllMisses,
    ];

    /// Runs `trace` on Runahead and Multipass over L2 hit latency {10, 20} ×
    /// MSHRs {4, 64} × three advance policies, with and without the memo,
    /// and requires identical results.  Returns the instructions replayed.
    fn differential(trace: &TraceCursor<'_>) -> u64 {
        let before = test_counters::replayed();
        for save_results in [false, true] {
            for l2 in [10, 20] {
                for mshrs in [4, 64] {
                    for policy in POLICIES {
                        let mut cfg = CoreConfig::paper_default()
                            .with_advance_policy(policy)
                            .with_l2_hit_latency(l2);
                        cfg.mem.max_outstanding_misses = mshrs;
                        let run = |replay| -> RunResult {
                            runahead_like_run(&cfg, trace, "runahead", save_results, None, replay)
                        };
                        assert_eq!(
                            run(true),
                            run(false),
                            "{} multipass={save_results} l2={l2} mshrs={mshrs} {policy:?}",
                            trace.name()
                        );
                    }
                }
            }
        }
        test_counters::replayed() - before
    }

    fn differential_on(workload: &str, insts: usize) -> u64 {
        let trace = icfp_workloads::by_name(workload, insts, 3).expect("standard workload");
        differential(&TraceCursor::from_trace(&trace))
    }

    #[test]
    fn replay_matches_the_plain_loop_on_pointer_chase() {
        assert!(
            differential_on("pointer-chase", 6_000) > 0,
            "pointer-chase must replay segments, or this test shows nothing"
        );
    }

    #[test]
    fn replay_matches_the_plain_loop_on_dcache_thrash() {
        differential_on("dcache-thrash", 6_000);
    }

    #[test]
    fn replay_matches_the_plain_loop_on_branchy_and_streaming() {
        differential_on("branchy", 6_000);
        differential_on("streaming", 6_000);
    }

    #[test]
    fn replay_matches_the_plain_loop_on_a_streamed_source() {
        let spec = icfp_workloads::spec_by_name("pointer-chase").expect("standard workload");
        let source = spec.source(6_000, 11, 1_000);
        let trace = TraceCursor::new(&source);
        for save_results in [false, true] {
            let cfg = CoreConfig::runahead_default();
            let before = test_counters::replayed();
            let memo = runahead_like_run(&cfg, &trace, "runahead", save_results, None, true);
            assert!(test_counters::replayed() > before);
            assert_eq!(
                memo,
                runahead_like_run(&cfg, &trace, "runahead", save_results, None, false)
            );
        }
    }

    /// The same grid at 100k instructions per run, in release builds:
    /// `cargo test --release -p icfp-core -- --ignored`.
    #[test]
    #[ignore = "release-mode grid; run with --ignored"]
    fn replay_matches_the_plain_loop_on_the_full_grid_at_100k() {
        for workload in icfp_workloads::STANDARD_NAMES {
            let replayed = differential_on(workload, 100_000);
            if workload == "pointer-chase" {
                assert!(replayed > 0);
            }
        }
    }

    // ---- One segment, from hand-set states. ----

    /// The plain loop's treatment of one inert advance instruction (its
    /// poisoned path and its clean non-memory path).
    fn simulate_inert(eng: &mut Engine, inst: &DynInst, seq: u64) {
        let poison = eng.src_poison(inst);
        assert!(is_inert(inst, poison));
        let fetch_ready = eng.fetch.next_issue_ready();
        let issue = eng.issue_at(inst.class(), fetch_ready.max(eng.src_ready(inst)));
        eng.stats.advance_instructions += 1;
        if poison.is_poisoned() {
            if let Some(dst) = inst.dst {
                eng.rf.poison_write(dst, poison, seq);
            }
            eng.note_completion(issue + 1);
        } else {
            let completes = issue + inst.latency();
            if let (Some(dst), Some(v)) = (inst.dst, eng.compute(inst)) {
                eng.rf.write(dst, v, completes, seq);
            }
            eng.note_completion(completes);
        }
    }

    /// An inert segment: its first instruction reads r5; r1 is poisoned.
    fn segment() -> Vec<DynInst> {
        let r = Reg::int;
        let mut v = vec![DynInst::alu_imm(Op::Add, r(6), r(5), 1)];
        for k in 1..SEGMENT as u64 {
            v.push(match k % 4 {
                0 => DynInst::alu_imm(Op::Add, r(1), r(1), k),
                1 => DynInst::alu(Op::Mul, r(7), r(6), r(8)),
                2 => DynInst::load(r(9), r(1), 0x4000 + 64 * k),
                _ => DynInst::alu_imm(Op::Add, r(6), r(7), k),
            });
        }
        assert!(v.iter().all(|i| i.class() != OpClass::Store));
        v
    }

    /// An engine fetching at cycle `base` with r1 poisoned and its last
    /// grant before `base`, then adjusted by `setup`.
    fn engine_at(base: Cycle, setup: impl Fn(&mut Engine)) -> Engine {
        let mut eng = Engine::new(&CoreConfig::paper_default());
        eng.fetch.replay_to(base, 0, 0);
        eng.issue.resume_at(base, SlotUse::default());
        eng.frontier = base;
        eng.rf.poison_write(Reg::int(1), PoisonMask::bit(0), 0);
        setup(&mut eng);
        eng
    }

    /// Takes the segment at trace position [`SEGMENT`] from `eng`: replays it
    /// if the memo matches, else simulates and records it.  Stops where the
    /// plain loop would end the episode.  Returns the instructions replayed.
    fn through_memo(memo: &mut AdvanceMemo, eng: &mut Engine, trigger_return: Cycle) -> usize {
        let n = memo.at_boundary(eng, SEGMENT, trigger_return, 4 * SEGMENT, true);
        if n == 0 {
            for (k, inst) in segment().iter().enumerate() {
                if eng.frontier >= trigger_return {
                    memo.abandon();
                    return 0;
                }
                memo.admit(inst, eng.src_poison(inst));
                simulate_inert(eng, inst, (SEGMENT + k) as u64);
                memo.after_step(eng);
            }
            memo.at_boundary(eng, 2 * SEGMENT, trigger_return, 4 * SEGMENT, false);
        }
        n
    }

    /// The plain loop over the segment.
    fn simulated(mut eng: Engine, trigger_return: Cycle) -> Engine {
        for (k, inst) in segment().iter().enumerate() {
            if eng.frontier >= trigger_return {
                break;
            }
            simulate_inert(&mut eng, inst, (SEGMENT + k) as u64);
        }
        eng
    }

    type Timing = (
        (Cycle, usize),
        (Cycle, SlotUse),
        Cycle,
        Cycle,
        u64,
        u64,
        Vec<(Cycle, PoisonMask, Option<u64>)>,
    );

    /// Everything an inert segment can change except register values.
    fn timing(eng: &Engine) -> Timing {
        (
            eng.fetch.position(),
            eng.issue.last_grant(),
            eng.frontier,
            eng.completion,
            eng.stats.advance_instructions,
            eng.fetch.stats().fetched,
            Reg::all()
                .map(|r| (eng.rf.ready_at(r), eng.rf.poison(r), eng.rf.last_writer(r)))
                .collect(),
        )
    }

    #[test]
    fn inertness_follows_poison_and_class() {
        let r = Reg::int;
        let load = DynInst::load(r(2), r(3), 0x40);
        let store = DynInst::store(r(2), r(3), 0x40);
        let branch = DynInst::branch(r(2), true, 0x80, 1.0);
        let alu = DynInst::alu(Op::Mul, r(2), r(3), r(4));
        let p = PoisonMask::bit(0);
        assert!(is_inert(&load, p) && is_inert(&branch, p) && is_inert(&alu, p));
        assert!(!is_inert(&store, p));
        assert!(is_inert(&alu, PoisonMask::CLEAN) && is_inert(&DynInst::nop(), PoisonMask::CLEAN));
        for i in [&load, &store, &branch] {
            assert!(!is_inert(i, PoisonMask::CLEAN));
        }
    }

    #[test]
    fn a_register_ready_exactly_at_the_horizon_is_not_part_of_the_key() {
        let r5 = Reg::int(5);
        let mut memo = AdvanceMemo::default();
        let depth = CoreConfig::paper_default().pipeline.frontend_depth;
        let seen = test_counters::boundary_ready();
        // Recorded with r5 ready exactly at F + frontend_depth.
        let mut first = engine_at(1_000, |e| e.rf.write(r5, 0, 1_000 + depth, 0));
        assert_eq!(through_memo(&mut memo, &mut first, Cycle::MAX), 0);
        assert!(test_counters::boundary_ready() > seen);
        // Ready at or before the horizon: the same key, and the replay is
        // exact.  One cycle after it: a different key.
        for (base, ready, replays) in [
            (5_000, 5_000 + depth, true),
            (7_000, 7_000 + depth - 2, true),
            (9_000, 9_000 + depth + 1, false),
            (11_000, 11_000 + depth + 3, false),
        ] {
            let setup = |e: &mut Engine| e.rf.write(r5, 0, ready, 0);
            let want = simulated(engine_at(base, setup), Cycle::MAX);
            let mut got = engine_at(base, setup);
            let n = through_memo(&mut memo, &mut got, Cycle::MAX);
            assert_eq!(n == SEGMENT, replays, "r5 ready at F + {}", ready - base);
            assert_eq!(
                timing(&got),
                timing(&want),
                "r5 ready at F + {}",
                ready - base
            );
        }
    }

    #[test]
    fn a_pre_segment_completion_is_not_recorded_as_the_segments_own() {
        let mut memo = AdvanceMemo::default();
        // Recorded while an earlier instruction completes far beyond every
        // completion inside the segment.
        let mut first = engine_at(1_000, |e| e.note_completion(50_000));
        assert_eq!(through_memo(&mut memo, &mut first, Cycle::MAX), 0);
        let want = simulated(engine_at(5_000, |_| {}), Cycle::MAX);
        let mut got = engine_at(5_000, |_| {});
        assert_eq!(through_memo(&mut memo, &mut got, Cycle::MAX), SEGMENT);
        assert!(got.completion < 50_000);
        assert_eq!(timing(&got), timing(&want));
    }

    #[test]
    fn a_replay_stops_where_the_episode_ends() {
        let mut memo = AdvanceMemo::default();
        let mut first = engine_at(1_000, |_| {});
        assert_eq!(through_memo(&mut memo, &mut first, Cycle::MAX), 0);
        for offset in [6, 7, 20, 31] {
            let trigger_return = 5_000 + offset;
            let want = simulated(engine_at(5_000, |_| {}), trigger_return);
            let mut got = engine_at(5_000, |_| {});
            let n = through_memo(&mut memo, &mut got, trigger_return);
            assert!(n > 0 && n < SEGMENT, "offset {offset}: replayed {n}");
            assert!(got.frontier >= trigger_return);
            // The episode ends here and its restore rewrites every register,
            // so only the rest of the timing state must match.
            let (t_got, t_want) = (timing(&got), timing(&want));
            assert_eq!(t_got.0, t_want.0);
            assert_eq!(t_got.1, t_want.1);
            assert_eq!(t_got.2, t_want.2);
            assert_eq!(t_got.3, t_want.3);
            assert_eq!(t_got.4, t_want.4);
            assert_eq!(t_got.5, t_want.5);
        }
    }

    #[test]
    fn segments_behind_the_checkpoint_are_evicted() {
        let mut memo = AdvanceMemo::default();
        let mut first = engine_at(1_000, |_| {});
        through_memo(&mut memo, &mut first, Cycle::MAX);
        assert_eq!(memo.len, 1);
        memo.evict_through(SEGMENT - 1);
        assert_eq!(memo.len, 1);
        memo.evict_through(SEGMENT);
        assert_eq!(memo.len, 0);
        let mut again = engine_at(1_000, |_| {});
        assert_eq!(through_memo(&mut memo, &mut again, Cycle::MAX), 0);
    }
}
