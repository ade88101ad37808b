//! Issue-slot and port scheduling for the 2-way in-order pipeline.
//!
//! In-order issue means issue cycles are non-decreasing in program order.
//! The schedule enforces:
//!
//! * total issue width per cycle (2),
//! * integer-port occupancy (2 integer ALU/multiply slots),
//! * the shared fp/load/store/branch port (1 slot).
//!
//! Every caller asks for a cycle at or after the last one granted (the cores
//! route all requests through a monotone issue frontier, see
//! [`IssueSchedule::issue`]), so every cycle after the last granted one is
//! still empty and no earlier one can be probed again.  The schedule
//! therefore keeps the slot counters of the last granted cycle only: one
//! compare and one increment per instruction on the per-instruction hot path
//! of every core model.

use icfp_isa::{Cycle, OpClass};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct SlotUse {
    total: u8,
    int: u8,
    mem_fp_br: u8,
}

/// Tracks issue-slot usage and finds the earliest legal issue cycle for each
/// instruction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IssueSchedule {
    width: u8,
    int_ports: u8,
    mem_fp_br_ports: u8,
    /// The last granted cycle (0 before the first grant).
    cycle: Cycle,
    /// Slots taken at `cycle`.
    used: SlotUse,
}

impl IssueSchedule {
    /// Creates a schedule with the given width and port counts.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(width: usize, int_ports: usize, mem_fp_br_ports: usize) -> Self {
        assert!(width > 0 && int_ports > 0 && mem_fp_br_ports > 0);
        IssueSchedule {
            width: width as u8,
            int_ports: int_ports as u8,
            mem_fp_br_ports: mem_fp_br_ports as u8,
            cycle: 0,
            used: SlotUse::default(),
        }
    }

    /// Creates the paper's 2-wide / 2-int / 1-mem-fp-br schedule.
    pub fn paper_default() -> Self {
        Self::new(2, 2, 1)
    }

    /// True if the last granted cycle still has a slot for `class`.
    #[inline]
    fn has_room(&self, class: OpClass) -> bool {
        let u = &self.used;
        if u.total >= self.width {
            return false;
        }
        if class.uses_int_port() {
            u.int < self.int_ports
        } else {
            u.mem_fp_br < self.mem_fp_br_ports
        }
    }

    /// Reserves an issue slot for an instruction of class `class` at the
    /// earliest cycle `>= earliest` with room, and returns that cycle.
    ///
    /// In-order contract: `earliest` must be at or after the previously
    /// granted cycle (every core routes requests through a monotonic issue
    /// frontier).  Earlier requests are clamped to the last granted cycle.
    #[inline]
    pub fn issue(&mut self, earliest: Cycle, class: OpClass) -> Cycle {
        if earliest > self.cycle || !self.has_room(class) {
            // A later cycle is empty, so it always has room (every width
            // and port count is at least one).
            self.cycle = earliest.max(self.cycle + 1);
            self.used = SlotUse::default();
        }
        self.used.total += 1;
        if class.uses_int_port() {
            self.used.int += 1;
        } else {
            self.used.mem_fp_br += 1;
        }
        self.cycle
    }

    /// Number of instructions issued at `cycle` if it is the last granted
    /// cycle; zero otherwise (later cycles are empty, earlier ones are not
    /// retained).
    pub fn issued_at(&self, cycle: Cycle) -> usize {
        if cycle == self.cycle {
            self.used.total as usize
        } else {
            0
        }
    }

    /// Resets the schedule (between runs).
    pub fn reset(&mut self) {
        self.cycle = 0;
        self.used = SlotUse::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The previous 64-cycle ring schedule, kept as the reference the
    /// single-cycle tracker is checked against.
    struct RingSchedule {
        width: u8,
        int_ports: u8,
        mem_fp_br_ports: u8,
        ring: Vec<SlotUse>,
        base: Cycle,
    }

    const WINDOW: usize = 64;

    impl RingSchedule {
        fn new(width: usize, int_ports: usize, mem_fp_br_ports: usize) -> Self {
            RingSchedule {
                width: width as u8,
                int_ports: int_ports as u8,
                mem_fp_br_ports: mem_fp_br_ports as u8,
                ring: vec![SlotUse::default(); WINDOW],
                base: 0,
            }
        }

        fn slot(&self, cycle: Cycle) -> &SlotUse {
            &self.ring[(cycle % WINDOW as u64) as usize]
        }

        fn has_room(&self, cycle: Cycle, class: OpClass) -> bool {
            let u = self.slot(cycle);
            if u.total >= self.width {
                return false;
            }
            if class.uses_int_port() {
                u.int < self.int_ports
            } else {
                u.mem_fp_br < self.mem_fp_br_ports
            }
        }

        fn cover(&mut self, cycle: Cycle) {
            let end = self.base + WINDOW as u64;
            if cycle < end {
                return;
            }
            if cycle - end >= WINDOW as u64 {
                self.ring.iter_mut().for_each(|u| *u = SlotUse::default());
            } else {
                for c in end..=cycle {
                    self.ring[(c % WINDOW as u64) as usize] = SlotUse::default();
                }
            }
            self.base = cycle - (WINDOW as u64 - 1);
        }

        fn issue(&mut self, earliest: Cycle, class: OpClass) -> Cycle {
            let mut cycle = earliest.max(self.base);
            self.cover(cycle);
            while !self.has_room(cycle, class) {
                cycle += 1;
                self.cover(cycle);
            }
            let u = &mut self.ring[(cycle % WINDOW as u64) as usize];
            u.total += 1;
            if class.uses_int_port() {
                u.int += 1;
            } else {
                u.mem_fp_br += 1;
            }
            cycle
        }

        fn issued_at(&self, cycle: Cycle) -> usize {
            if cycle >= self.base && cycle < self.base + WINDOW as u64 {
                self.slot(cycle).total as usize
            } else {
                0
            }
        }
    }

    #[test]
    fn tracker_matches_ring_reference_on_random_monotone_streams() {
        // Seeded random request streams in the shape `Engine::issue_at`
        // produces: each request is at or after the last granted cycle,
        // mostly at it or a few cycles later, sometimes far beyond the ring
        // window; classes mix integer and memory/fp/branch ports.
        const CLASSES: [OpClass; 7] = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
            OpClass::FpAdd,
            OpClass::FpMul,
        ];
        for (seed, (width, int_ports, mem_ports)) in [(2, 2, 1), (1, 1, 1), (4, 2, 2), (3, 1, 2)]
            .into_iter()
            .enumerate()
        {
            let mut state = 0x1557_0000 + seed as u64;
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut tracker = IssueSchedule::new(width, int_ports, mem_ports);
            let mut ring = RingSchedule::new(width, int_ports, mem_ports);
            let mut frontier: Cycle = 0;
            for step in 0..20_000 {
                let earliest = frontier
                    + match rng() % 16 {
                        0..=9 => 0,
                        10..=13 => rng() % 4,
                        14 => 64 + rng() % 200,
                        _ => 1_000 + rng() % 100_000,
                    };
                let class = CLASSES[(rng() % CLASSES.len() as u64) as usize];
                let want = ring.issue(earliest, class);
                let got = tracker.issue(earliest, class);
                assert_eq!(
                    got, want,
                    "step {step}: grant for {class:?} at >= {earliest}"
                );
                assert_eq!(tracker.issued_at(got), ring.issued_at(got), "step {step}");
                assert_eq!(
                    tracker.issued_at(got + 1),
                    ring.issued_at(got + 1),
                    "step {step}"
                );
                frontier = got;
            }
        }
    }

    #[test]
    fn two_wide_issue_packs_two_per_cycle() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        // Third integer op in the same cycle must slip.
        assert_eq!(s.issue(0, OpClass::IntAlu), 1);
    }

    #[test]
    fn single_mem_port_serializes_loads() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::Load), 0);
        assert_eq!(s.issue(0, OpClass::Load), 1);
        assert_eq!(s.issue(0, OpClass::Store), 2);
        assert_eq!(s.issue(0, OpClass::Branch), 3);
    }

    #[test]
    fn int_and_mem_share_total_width() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::Load), 0);
        // Width 2 exhausted even though an int port remains.
        assert_eq!(s.issue(0, OpClass::IntAlu), 1);
    }

    #[test]
    fn earliest_constraint_is_respected() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(10, OpClass::IntAlu), 10);
        assert_eq!(s.issued_at(10), 1);
        assert_eq!(s.issued_at(9), 0);
    }

    #[test]
    fn scalar_schedule_is_one_per_cycle() {
        let mut s = IssueSchedule::new(1, 1, 1);
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        assert_eq!(s.issue(0, OpClass::Load), 1);
        assert_eq!(s.issue(0, OpClass::IntAlu), 2);
    }

    #[test]
    fn pruning_does_not_lose_future_slots() {
        let mut s = IssueSchedule::paper_default();
        for i in 0..10_000u64 {
            s.issue(i, OpClass::IntAlu);
        }
        // Still works after the window has slid many times over.
        let c = s.issue(10_000, OpClass::IntAlu);
        assert!(c >= 10_000);
    }

    #[test]
    fn far_jumps_land_in_a_clean_window() {
        let mut s = IssueSchedule::paper_default();
        assert_eq!(s.issue(0, OpClass::IntAlu), 0);
        // Jump far past the window (several multiples of it): the target
        // cycle's counters must be vacated, not stale from a previous lap.
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_003);
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_003);
        assert_eq!(s.issue(1_000_003, OpClass::IntAlu), 1_000_004);
    }

    #[test]
    fn monotonic_dense_stream_matches_width() {
        // 2-wide: 1000 int ops from a monotonic frontier occupy exactly 500
        // cycles regardless of where the window slides.
        let mut s = IssueSchedule::paper_default();
        let mut frontier = 0;
        for _ in 0..1000 {
            frontier = s.issue(frontier, OpClass::IntAlu);
        }
        assert_eq!(frontier, 499);
    }

    #[test]
    fn reset_clears_usage() {
        let mut s = IssueSchedule::paper_default();
        s.issue(0, OpClass::IntAlu);
        s.reset();
        assert_eq!(s.issued_at(0), 0);
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        let _ = IssueSchedule::new(0, 1, 1);
    }
}
