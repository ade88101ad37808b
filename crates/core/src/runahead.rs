//! Runahead execution (Dundas & Mudge; Mutlu et al.), adapted to the paper's
//! in-order setting, plus the shared machinery reused by Multipass.
//!
//! On a qualifying miss the core checkpoints the register file and keeps
//! executing ("advance").  Miss-dependent instructions are poisoned and
//! skipped; miss-independent instructions execute — including loads, which is
//! where the benefit comes from: they prefetch future misses and warm the
//! caches.  Advance stores write only a small best-effort runahead cache.
//! When the triggering miss returns, *everything* executed during advance is
//! discarded: the register file is restored from the checkpoint and execution
//! restarts at the checkpointed instruction.  That wholesale re-execution is
//! the overhead iCFP and SLTP avoid.

use crate::advance_memo::{AdvanceMemo, SEGMENT};
use crate::common::{seed_start, Engine};
use crate::config::CoreConfig;
use crate::fxmap::FxHashMap;
use crate::storebuf::RunaheadCache;
use crate::Core;
use icfp_isa::{exec::ArchState, Cycle, OpClass, TraceCursor};
use icfp_pipeline::{PoisonMask, RunResult};
use std::collections::VecDeque;

/// The Runahead core.
#[derive(Debug)]
pub struct RunaheadCore {
    cfg: CoreConfig,
}

impl RunaheadCore {
    /// Creates a Runahead core.  The paper's default advance policy for
    /// Runahead is [`crate::AdvancePolicy::L2Only`]; use
    /// [`CoreConfig::runahead_default`] for that.
    pub fn new(cfg: CoreConfig) -> Self {
        RunaheadCore { cfg }
    }
}

impl Core for RunaheadCore {
    fn name(&self) -> &'static str {
        "runahead"
    }

    fn run_cursor_from(&mut self, trace: &TraceCursor<'_>, warm: Option<&ArchState>) -> RunResult {
        runahead_like_run(&self.cfg, trace, self.name(), false, warm, true)
    }
}

#[derive(Debug, Clone, Copy)]
struct AdvanceEpisode {
    /// Trace index to restart from when the episode ends.
    ckpt_idx: usize,
    /// Cycle at which the triggering miss returns.
    trigger_return: Cycle,
}

/// Shared Runahead/Multipass execution.  When `save_results` is true, results
/// of miss-independent advance instructions are kept in a bounded result
/// buffer and used to accelerate the post-squash re-execution (Multipass's
/// dependence-breaking), otherwise they are discarded (plain Runahead).
///
/// With `replay`, inert advance segments seen before are replayed from an
/// [`AdvanceMemo`] instead of simulated; the result is identical.  The cores
/// always pass `true`; the plain loop (`false`) is the tests' reference.
pub(crate) fn runahead_like_run(
    cfg: &CoreConfig,
    trace: &TraceCursor<'_>,
    name: &'static str,
    save_results: bool,
    warm: Option<&ArchState>,
    replay: bool,
) -> RunResult {
    let mut eng = Engine::new(cfg);
    let start = seed_start(&mut eng, warm, trace.len());
    let mut store_q: VecDeque<(Cycle, u64)> = VecDeque::new();
    let sb_capacity = cfg.pipeline.baseline_store_buffer;
    let l1_lat = cfg.mem.l1_hit_latency;
    let policy = cfg.advance_policy;

    let mut rcache = RunaheadCache::new(cfg.runahead_cache_entries);
    // Multipass result buffer: trace index -> saved value (None = instruction
    // executed but produced no register result).  Probed on every
    // re-executed instruction, so it uses the fast non-cryptographic hasher
    // (keys are trace positions, not outside input).
    let mut results: FxHashMap<usize, Option<u64>> = FxHashMap::default();
    // One past the largest index ever saved: at or above it every probe of
    // the result buffer misses, so none is made.
    let mut saved_end = 0usize;
    let mut memo = replay.then(AdvanceMemo::default);
    let mut episode: Option<AdvanceEpisode> = None;
    // Set once any store has been processed in the current advance episode;
    // results are no longer saved after that because advance loads may then
    // observe stale memory (conservative memory-dependence handling for
    // Multipass's result buffer).
    let mut poisoned_store_seen = false;

    let len = trace.len();
    let mut i = start;
    while i < len || episode.is_some() {
        // End the advance episode once execution time reaches the trigger's
        // return (or the trace ran out while advancing): restore and
        // re-execute from the checkpoint.
        if let Some(ep) = episode {
            if let Some(m) = memo.as_mut() {
                m.after_step(&eng);
            }
            if eng.frontier >= ep.trigger_return || i >= len {
                if let Some(m) = memo.as_mut() {
                    m.abandon();
                }
                finish_episode(&mut eng, &mut rcache, ep, &mut i, &mut poisoned_store_seen);
                episode = None;
                continue;
            }
            if let Some(m) = memo.as_mut().filter(|_| i.is_multiple_of(SEGMENT)) {
                // Multipass: inert instructions leave a full buffer holding
                // nothing at or after `i` unchanged, so replay is exact.
                let open =
                    !save_results || (results.len() >= cfg.result_buffer_entries && saved_end <= i);
                let n = m.at_boundary(&mut eng, i, ep.trigger_return, len, open);
                if n > 0 {
                    i += n;
                    continue;
                }
            }
        }
        if i >= len {
            break;
        }

        let inst = trace.get(i);
        let inst = &inst;
        let seq = i as u64;
        let in_advance = episode.is_some();
        let fetch_ready = eng.fetch.next_issue_ready();
        let src_poison = if in_advance {
            let p = eng.src_poison(inst);
            if let Some(m) = memo.as_mut() {
                m.admit(inst, p);
            }
            p
        } else {
            PoisonMask::CLEAN
        };

        // Multipass: a saved result breaks the dependence during re-execution.
        let saved = if save_results && !in_advance && i < saved_end {
            results.get(&i).copied()
        } else {
            None
        };

        let mut earliest = if saved.is_some() {
            fetch_ready
        } else {
            fetch_ready.max(eng.src_ready(inst))
        };

        if inst.is_store() && !in_advance {
            while store_q.len() >= sb_capacity {
                let (done, _) = store_q.pop_front().expect("non-empty");
                if done > earliest {
                    eng.stats.resource_stall_cycles += done - earliest;
                    earliest = done;
                }
            }
        }

        let issue = eng.issue_at(inst.class(), earliest);
        if in_advance {
            eng.stats.advance_instructions += 1;
        }

        // Poisoned instructions just flow through the pipe.
        if src_poison.is_poisoned() {
            if let Some(dst) = inst.dst {
                eng.rf.poison_write(dst, src_poison, seq);
            }
            if inst.is_store() {
                poisoned_store_seen = true;
                if let Some(addr) = inst.addr {
                    rcache.write(addr, 0, src_poison);
                }
            }
            if save_results && i < saved_end {
                results.remove(&i);
            }
            eng.note_completion(issue + 1);
            i += 1;
            continue;
        }

        match inst.class() {
            OpClass::Load => {
                let addr = inst.addr.expect("load without address");
                if !in_advance {
                    eng.stats.demand_loads += 1;
                }
                if let Some(v) = saved {
                    // Multipass rally acceleration: the result is already known.
                    let completes = issue + 1;
                    if let (Some(dst), Some(v)) = (inst.dst, v) {
                        eng.rf.write(dst, v, completes, seq);
                    }
                    eng.note_completion(completes);
                    i += 1;
                    continue;
                }
                // Advance-mode forwarding via the runahead cache.
                let rc_hit = if in_advance { rcache.read(addr) } else { None };
                if let Some((v, p)) = rc_hit {
                    if p.is_poisoned() {
                        if let Some(dst) = inst.dst {
                            eng.rf.poison_write(dst, p, seq);
                        }
                        eng.note_completion(issue + 1);
                        i += 1;
                        continue;
                    }
                    if let Some(dst) = inst.dst {
                        eng.rf.write(dst, v, issue + l1_lat, seq);
                    }
                    eng.note_completion(issue + l1_lat);
                    i += 1;
                    continue;
                }
                // Baseline forwarding from the conventional store buffer.
                while matches!(store_q.front(), Some(&(done, _)) if done <= issue) {
                    store_q.pop_front();
                }
                let forwarded = store_q.iter().rev().any(|&(_, a)| a == (addr & !7));
                let (completes, outcome) = if forwarded {
                    eng.stats.store_forwards += 1;
                    (issue + l1_lat, icfp_mem::AccessOutcome::L1Hit)
                } else {
                    let (c, o, _) = eng.demand_load(addr, issue);
                    (c, o)
                };
                let value = eng.arch_mem.read(addr);
                let is_miss = outcome.is_l1_miss();
                let is_l2_miss = outcome.is_l2_miss();

                if !in_advance {
                    if is_miss && policy.triggers_on(is_l2_miss) && completes > issue + l1_lat {
                        // Enter advance mode: checkpoint here, poison the dest.
                        eng.rf.checkpoint(issue, seq);
                        eng.stats.advance_episodes += 1;
                        if let Some(m) = memo.as_mut() {
                            m.evict_through(i);
                        }
                        episode = Some(AdvanceEpisode {
                            ckpt_idx: i,
                            trigger_return: completes,
                        });
                        poisoned_store_seen = false;
                        if let Some(dst) = inst.dst {
                            eng.rf.poison_write(dst, PoisonMask::bit(0), seq);
                        }
                        eng.note_completion(issue + 1);
                        i += 1;
                        continue;
                    }
                    // Plain in-order behaviour.
                    if let Some(dst) = inst.dst {
                        eng.rf.write(dst, value, completes, seq);
                    }
                    eng.note_completion(completes);
                } else {
                    // Secondary miss during advance.
                    let poison_it = if is_l2_miss {
                        true
                    } else if is_miss {
                        policy.poisons_secondary_dcache()
                    } else {
                        false
                    };
                    if poison_it && completes > issue + l1_lat {
                        if let Some(dst) = inst.dst {
                            eng.rf.poison_write(dst, PoisonMask::bit(0), seq);
                        }
                        eng.note_completion(issue + 1);
                    } else {
                        // Wait for it (D$-blocking) or it was a hit.
                        if let Some(dst) = inst.dst {
                            eng.rf.write(dst, value, completes, seq);
                        }
                        eng.note_completion(completes);
                        if save_results && !poisoned_store_seen && results.len() < cfg.result_buffer_entries {
                            results.insert(i, Some(value));
                            saved_end = saved_end.max(i + 1);
                        }
                    }
                }
            }
            OpClass::Store => {
                let addr = inst.addr.expect("store without address");
                let data = inst.store_data_reg().map(|r| eng.rf.value(r)).unwrap_or(0);
                if in_advance {
                    // Advance stores write the runahead cache only (plus a
                    // prefetch of the line).  Result saving stops here: later
                    // advance loads may observe stale architectural memory.
                    poisoned_store_seen = true;
                    rcache.write(addr, data, PoisonMask::CLEAN);
                    let _ = eng.demand_store(addr, issue + 1);
                    eng.note_completion(issue + 1);
                } else {
                    eng.arch_mem.write(addr, data);
                    let drain_done = eng.demand_store(addr, issue + 1);
                    store_q.push_back((drain_done, addr & !7));
                    eng.note_completion(issue + 1);
                }
            }
            OpClass::Branch => {
                let resolve = issue + inst.latency();
                eng.exec_branch(inst, resolve);
                eng.note_completion(resolve);
            }
            _ => {
                let completes = if saved.is_some() { issue + 1 } else { issue + inst.latency() };
                let value = eng.compute(inst);
                if let (Some(dst), Some(v)) = (inst.dst, value) {
                    eng.rf.write(dst, v, completes, seq);
                }
                if in_advance
                    && save_results
                    && !poisoned_store_seen
                    && results.len() < cfg.result_buffer_entries
                {
                    results.insert(i, value);
                    saved_end = saved_end.max(i + 1);
                }
                eng.note_completion(completes);
            }
        }
        i += 1;
    }

    eng.finish(name, trace)
}

/// Ends an advance episode: restores the checkpoint, redirects the front end
/// to the restart point and rolls the instruction pointer back.
fn finish_episode(
    eng: &mut Engine,
    rcache: &mut RunaheadCache,
    ep: AdvanceEpisode,
    i: &mut usize,
    poisoned_store_seen: &mut bool,
) {
    let advance_len = i.saturating_sub(ep.ckpt_idx) as u64;
    eng.stats.rally_instructions += advance_len;
    eng.stats.rally_passes += 1;
    eng.rf.restore(ep.trigger_return);
    rcache.clear();
    *poisoned_store_seen = false;
    // The front end restarts fetching the checkpointed instruction when the
    // miss returns; the restart pays a pipeline-refill penalty.
    eng.fetch.redirect(ep.trigger_return);
    eng.frontier = eng.frontier.max(ep.trigger_return);
    *i = ep.ckpt_idx;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::golden_final_state;
    use crate::config::AdvancePolicy;
    use crate::inorder::InOrderCore;
    use icfp_isa::{DynInst, Op, Reg, Trace, TraceBuilder};

    fn independent_miss_trace(n: usize) -> Trace {
        // Pointer-independent loads to distinct far-apart lines, each followed
        // by a dependent op and some independent filler.
        let mut b = TraceBuilder::new("indep-misses");
        for k in 0..n {
            let base = 0x100000 + (k as u64) * 0x4000;
            b.push(DynInst::load(Reg::int(1), Reg::int(2), base));
            b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
            for j in 0..6u64 {
                b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), j));
            }
        }
        b.build()
    }

    #[test]
    fn runahead_matches_golden_state() {
        let t = independent_miss_trace(8);
        let r = RunaheadCore::new(CoreConfig::runahead_default()).run(&t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    #[test]
    fn runahead_overlaps_independent_l2_misses() {
        let t = independent_miss_trace(10);
        let base = InOrderCore::new(CoreConfig::paper_default()).run(&t);
        let ra = RunaheadCore::new(CoreConfig::runahead_default()).run(&t);
        assert!(
            ra.stats.cycles < base.stats.cycles,
            "runahead {} should beat in-order {}",
            ra.stats.cycles,
            base.stats.cycles
        );
        assert!(ra.stats.advance_episodes > 0);
        assert!(ra.stats.rally_instructions > 0);
    }

    #[test]
    fn runahead_gains_nothing_on_a_lone_miss() {
        // Figure 1a: a lone L2 miss with one dependent instruction — Runahead
        // provides no benefit because it re-executes everything anyway.
        let mut b = TraceBuilder::new("lone");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1));
        for j in 0..20u64 {
            b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(5), j));
        }
        let t = b.build();
        let base = InOrderCore::new(CoreConfig::paper_default()).run(&t);
        let ra = RunaheadCore::new(CoreConfig::runahead_default()).run(&t);
        assert!(
            ra.stats.cycles + 5 >= base.stats.cycles,
            "runahead ({}) should not beat in-order ({}) on a lone miss",
            ra.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn advance_stores_do_not_corrupt_memory() {
        // A store under the shadow of a miss, then the miss returns and the
        // store re-executes: final memory must match the golden model.
        let mut b = TraceBuilder::new("adv-store");
        b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x100000));
        b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(1), 1)); // dependent
        b.push(DynInst::alu_imm(Op::Add, Reg::int(4), Reg::int(4), 9)); // independent
        b.push(DynInst::store(Reg::int(4), Reg::int(5), 0x200)); // independent store
        b.push(DynInst::store(Reg::int(3), Reg::int(5), 0x300)); // dependent store
        b.push(DynInst::load(Reg::int(6), Reg::int(5), 0x200)); // reads the store
        let t = b.build();
        let r = RunaheadCore::new(CoreConfig::runahead_default()).run(&t);
        let (regs, mem) = golden_final_state(&t);
        assert_eq!(r.final_regs, regs);
        assert_eq!(r.final_mem, mem);
    }

    #[test]
    fn all_miss_policy_enters_more_episodes_than_l2_only() {
        // After a warming phase, repeated conflict misses hit in the L2 but
        // miss the tiny L1.  Under the L2-only policy those data-cache misses
        // must not start new advance episodes; under the all-misses policy
        // they do.
        let mut cfg_l2 = CoreConfig::runahead_default();
        cfg_l2.mem = icfp_mem::MemConfig::tiny_for_tests();
        let mut cfg_all = cfg_l2.clone();
        cfg_all.advance_policy = AdvancePolicy::AllMisses;

        let mut b = TraceBuilder::new("d$-misses");
        // Warming phase: touch 9 conflicting lines (cold L2 misses).
        for k in 0..9u64 {
            b.push(DynInst::load(Reg::int(1), Reg::int(2), 0x400 * k));
            for j in 0..40u64 {
                b.push(DynInst::alu_imm(Op::Add, Reg::int(3), Reg::int(3), j));
            }
        }
        // Conflict phase: cycle through the same lines; these are D$ misses
        // that hit in the L2, each followed by a dependent use.
        for r in 0..6u64 {
            for k in 0..5u64 {
                b.push(DynInst::load(Reg::int(4), Reg::int(2), 0x400 * ((k + r) % 9)));
                b.push(DynInst::alu_imm(Op::Add, Reg::int(5), Reg::int(4), 1));
                for j in 0..10u64 {
                    b.push(DynInst::alu_imm(Op::Add, Reg::int(6), Reg::int(6), j));
                }
            }
        }
        let t = b.build();
        let r_l2 = RunaheadCore::new(cfg_l2).run(&t);
        let r_all = RunaheadCore::new(cfg_all).run(&t);
        assert!(
            r_all.stats.advance_episodes > r_l2.stats.advance_episodes,
            "all-miss policy ({}) should enter more episodes than L2-only ({})",
            r_all.stats.advance_episodes,
            r_l2.stats.advance_episodes
        );
    }
}
