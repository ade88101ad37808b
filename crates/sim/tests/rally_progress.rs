//! iCFP's rally loops must always make progress.  A store-address stall
//! that leaves misses pending after 64 rallies, or an episode-cleanup pass
//! that retires nothing, panics with "rally made no progress" (release
//! builds included).  These tests run iCFP over a grid of slice-buffer
//! sizes, MSHR counts and L2 latencies on every standard workload and
//! require every run to finish with the golden architectural state.

use icfp_core::common::golden_final_state;
use icfp_sim::{CoreModel, SimConfig, Simulator};

const INSTS: usize = 100_000;
const SEED: u64 = 0x9A11;

fn assert_rallies_progress(workload: &str) {
    let spec = icfp_workloads::STANDARD
        .iter()
        .find(|s| s.name == workload)
        .expect("standard workload");
    let trace = spec.trace(INSTS, SEED);
    let (regs, mem) = golden_final_state(&trace);
    for slice in [16, 32, 64, 128] {
        for mshrs in [4, 16, 64] {
            for l2 in [10, 20] {
                let mut config = SimConfig::new(CoreModel::Icfp);
                config.cfg.slice_buffer_entries = slice;
                config.cfg.mem.max_outstanding_misses = mshrs;
                config.cfg.mem.l2_hit_latency = l2;
                let report = Simulator::new(config).run(&trace);
                let cell = format!("{workload} slice={slice} mshrs={mshrs} l2={l2}");
                assert_eq!(report.result.final_regs, regs, "{cell}: registers diverged");
                assert_eq!(report.result.final_mem, mem, "{cell}: memory diverged");
            }
        }
    }
}

#[test]
fn icfp_rallies_progress_on_pointer_chase() {
    assert_rallies_progress("pointer-chase");
}

#[test]
fn icfp_rallies_progress_on_dcache_thrash() {
    assert_rallies_progress("dcache-thrash");
}

#[test]
fn icfp_rallies_progress_on_branchy() {
    assert_rallies_progress("branchy");
}

#[test]
fn icfp_rallies_progress_on_streaming() {
    assert_rallies_progress("streaming");
}
