//! The slice buffer: a FIFO of deferred miss-dependent instructions together
//! with their miss-independent side inputs (paper Section 3.1).
//!
//! iCFP does not compact the buffer: rally passes mark entries un-poisoned
//! (retired) in place, and successive passes simply skip retired entries;
//! capacity is reclaimed incrementally from the head (Section 3.4, "Slice
//! buffer management").  That behaviour is reproduced here because it is what
//! bounds slice-buffer occupancy and triggers the simple-runahead fallback.
//!
//! Storage is a fixed-capacity ring with a packed side index: every slot's
//! poison mask is mirrored into a [`PoisonVec`] *plane* (four 16-bit lanes per
//! `u64` word, lanes of retired slots cleared), so rally selection — "which
//! active entries depend on this returning miss" — scans `capacity / 4` words
//! and only touches the entries that actually match, instead of testing every
//! entry's mask in a bit loop.

use icfp_isa::{InstSeq, Value};
use icfp_pipeline::{lane_range_mask, PoisonMask, PoisonVec, POISON_LANES_PER_WORD};
use serde::{Deserialize, Serialize};

/// A deferred (sliced-out) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceEntry {
    /// Index of the instruction in the trace.
    pub trace_idx: usize,
    /// Sequence number relative to the active checkpoint (the paper's
    /// dependence-ordering stamp).
    pub seq_from_ckpt: InstSeq,
    /// Captured value of the first source operand, if it was available
    /// (non-poisoned) when the instruction was sliced out.
    pub src1_value: Option<Value>,
    /// Captured value of the second source operand, if it was available.
    pub src2_value: Option<Value>,
    /// Trace index of the sliced instruction producing the first source
    /// operand (`usize::MAX` = captured or absent) — the paper's slice-buffer
    /// dependence pointer, carried in the entry so rallies resolve operands
    /// without a side table.
    pub src1_producer: usize,
    /// Producer of the second source operand (`usize::MAX` = captured/absent).
    pub src2_producer: usize,
    /// Physical slot [`SliceBuffer::slot_of`] found `src1_producer` in when
    /// this entry was pushed (`u32::MAX` = none).  Entries never move, so a
    /// rally checks the producer in O(1) with
    /// [`SliceBuffer::producer_poison`] instead of searching for it.
    pub src1_producer_slot: u32,
    /// Slot of `src2_producer` at push time (`u32::MAX` = none).
    pub src2_producer_slot: u32,
    /// Store colour: SSN of the youngest older store at slice time, used by
    /// rallying loads to ignore younger stores when forwarding.
    pub store_color: u64,
    /// Current poison mask (which outstanding misses this entry waits on).
    pub poison: PoisonMask,
    /// Whether the entry still needs to be executed.  Retired entries stay in
    /// place and are skipped by later passes.
    pub active: bool,
}

impl SliceEntry {
    /// Placeholder for an unoccupied ring slot.
    fn vacant() -> Self {
        SliceEntry {
            trace_idx: usize::MAX,
            seq_from_ckpt: 0,
            src1_value: None,
            src2_value: None,
            src1_producer: usize::MAX,
            src2_producer: usize::MAX,
            src1_producer_slot: u32::MAX,
            src2_producer_slot: u32::MAX,
            store_color: 0,
            poison: PoisonMask::CLEAN,
            active: false,
        }
    }
}

/// Error returned when the slice buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceBufferFull;

impl std::fmt::Display for SliceBufferFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slice buffer is full")
    }
}

impl std::error::Error for SliceBufferFull {}

/// The slice buffer.
///
/// A fixed ring of `capacity` slots (`head` is the physical index of the
/// oldest occupied slot) plus a packed poison plane mirroring the *active*
/// slots' masks, kept in sync by push/retire/repoison/clear so that rally
/// selection runs at word granularity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceBuffer {
    slots: Vec<SliceEntry>,
    /// Packed per-slot poison; lanes of retired or vacant slots are clean.
    plane: PoisonVec,
    head: usize,
    len: usize,
    capacity: usize,
    /// Number of entries with `active == true` (kept in sync by
    /// push/retire/clear so occupancy queries are O(1) on the hot path).
    active: usize,
    /// Peak occupancy over the run (for diagnostics).
    peak: usize,
    /// Total entries ever inserted.
    inserted: u64,
}

impl SliceBuffer {
    /// Creates a slice buffer with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "slice buffer capacity must be positive");
        SliceBuffer {
            slots: vec![SliceEntry::vacant(); capacity],
            plane: PoisonVec::new(capacity),
            head: 0,
            len: 0,
            capacity,
            active: 0,
            peak: 0,
            inserted: 0,
        }
    }

    /// Physical slot of the `logical`-th oldest entry.
    #[inline]
    fn phys(&self, logical: usize) -> usize {
        let p = self.head + logical;
        if p >= self.capacity {
            p - self.capacity
        } else {
            p
        }
    }

    /// Number of occupied slots (active or not yet reclaimed).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of entries still awaiting execution.  O(1).
    pub fn active_len(&self) -> usize {
        self.active
    }

    /// True if there is no active entry left.  O(1).
    pub fn no_active(&self) -> bool {
        self.active == 0
    }

    /// True if the buffer cannot accept another entry.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total number of entries ever inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Appends an entry at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`SliceBufferFull`] if no slot is free (after reclaiming
    /// retired entries from the head).
    pub fn push(&mut self, entry: SliceEntry) -> Result<(), SliceBufferFull> {
        if self.is_full() {
            self.reclaim_head();
        }
        if self.is_full() {
            return Err(SliceBufferFull);
        }
        let slot = self.phys(self.len);
        self.active += usize::from(entry.active);
        self.plane.set(
            slot,
            if entry.active { entry.poison } else { PoisonMask::CLEAN },
        );
        self.slots[slot] = entry;
        self.len += 1;
        self.inserted += 1;
        self.peak = self.peak.max(self.len);
        Ok(())
    }

    /// Reclaims retired entries from the head (the only form of compaction
    /// the paper's design performs).
    pub fn reclaim_head(&mut self) {
        while self.len > 0 && !self.slots[self.head].active {
            // Retire already cleared the plane lane; vacate the slot.
            self.slots[self.head] = SliceEntry::vacant();
            self.head = if self.head + 1 == self.capacity {
                0
            } else {
                self.head + 1
            };
            self.len -= 1;
        }
        if self.len == 0 {
            self.head = 0;
        }
    }

    /// Iterates over the *active* entries in program order.
    pub fn active_entries(&self) -> impl Iterator<Item = &SliceEntry> {
        (0..self.len)
            .map(|l| &self.slots[self.phys(l)])
            .filter(|e| e.active)
    }

    /// Active entries whose poison mask intersects `returning` — the entries a
    /// rally pass for that returning miss must process (Section 3.4).
    ///
    /// Allocates a fresh `Vec` per call; the simulation hot path uses
    /// [`SliceBuffer::entries_for_rally_into`] (scratch-buffer reuse, word
    /// scan) or [`SliceBuffer::rally_iter`] instead.
    pub fn entries_for_rally(&self, returning: PoisonMask) -> Vec<SliceEntry> {
        let mut out = Vec::new();
        self.entries_for_rally_into(returning, &mut out);
        out
    }

    /// Zero-allocation form of [`SliceBuffer::entries_for_rally`]: appends the
    /// selected entries to `out` (cleared first), reusing its capacity.
    ///
    /// This is the word-level hot path: the packed poison plane is scanned
    /// four entries per `u64` word (`returning` broadcast into every lane), so
    /// words with no intersecting lane are skipped with a single compare.
    pub fn entries_for_rally_into(&self, returning: PoisonMask, out: &mut Vec<SliceEntry>) {
        out.clear();
        self.scan_ring(returning, &mut |_, e| out.push(*e));
    }

    /// Slot form of [`SliceBuffer::entries_for_rally_into`]: appends the
    /// physical slots of the selected entries to `out` (cleared first), in
    /// program order.  The rally pass reads each entry with
    /// [`SliceBuffer::entry_at`] and retires or re-poisons it in O(1)
    /// ([`SliceBuffer::retire_at`] / [`SliceBuffer::repoison_at`]) instead of
    /// re-finding it by trace index — valid as long as no push or head
    /// reclamation happens between selection and use (entries never move
    /// otherwise).
    pub fn rally_select_into(&self, returning: PoisonMask, out: &mut Vec<u32>) {
        out.clear();
        self.scan_ring(returning, &mut |slot, _| out.push(slot as u32));
    }

    /// The entry in physical slot `slot` (from
    /// [`SliceBuffer::rally_select_into`]).
    #[inline]
    pub fn entry_at(&self, slot: usize) -> &SliceEntry {
        &self.slots[slot]
    }

    /// Scans the ring in program order for active entries whose poison
    /// intersects `returning`, feeding `(physical_slot, entry)` to `sink`.
    #[inline]
    fn scan_ring(&self, returning: PoisonMask, sink: &mut impl FnMut(usize, &SliceEntry)) {
        if self.len == 0 || returning.is_clean() {
            return;
        }
        let tail = self.head + self.len;
        // The ring occupies [head, min(tail, capacity)) and, when it wraps,
        // [0, tail - capacity).  Scan both physical segments in order: within
        // a segment, ascending slot order is program order, and the first
        // segment holds the logically older entries.
        self.scan_segment(self.head, tail.min(self.capacity), returning, sink);
        if tail > self.capacity {
            self.scan_segment(0, tail - self.capacity, returning, sink);
        }
    }

    /// Word-scans physical slots `[lo, hi)` for lanes intersecting
    /// `returning`, appending the matching entries in slot order.  The
    /// broadcast comparand is hoisted and only the two edge words pay for
    /// lane masking; zero words (no intersecting entry among four) are
    /// skipped with a single compare.
    fn scan_segment(
        &self,
        lo: usize,
        hi: usize,
        returning: PoisonMask,
        sink: &mut impl FnMut(usize, &SliceEntry),
    ) {
        if lo >= hi {
            return;
        }
        let comparand = returning.broadcast();
        let first_word = lo / POISON_LANES_PER_WORD;
        let last_word = (hi - 1) / POISON_LANES_PER_WORD;
        let words = &self.plane.words()[first_word..=last_word];
        for (k, &word) in words.iter().enumerate() {
            let mut hits = word & comparand;
            if hits == 0 {
                continue;
            }
            let w = first_word + k;
            let base = w * POISON_LANES_PER_WORD;
            if w == first_word && lo > base {
                hits &= lane_range_mask(lo - base, POISON_LANES_PER_WORD);
            }
            if w == last_word && hi < base + POISON_LANES_PER_WORD {
                hits &= lane_range_mask(0, hi - base);
            }
            // Collapse each non-zero 16-bit lane to its MSB (SWAR: adding
            // 0x7FFF to the low 15 bits carries into bit 15 iff any is set;
            // OR-ing the original covers lanes with only bit 15).  The
            // extraction loop is then one ctz + one clear per matching entry.
            const LANE_LOW: u64 = 0x7FFF_7FFF_7FFF_7FFF;
            const LANE_MSB: u64 = 0x8000_8000_8000_8000;
            let mut lanes = ((hits & LANE_LOW).wrapping_add(LANE_LOW) | hits) & LANE_MSB;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize >> 4;
                lanes &= lanes - 1;
                sink(base + lane, &self.slots[base + lane]);
            }
        }
    }

    /// Borrowing iterator over the entries a rally for `returning` must
    /// process, in program order.  This is the reference (per-entry) path the
    /// word scan is checked against; prefer
    /// [`SliceBuffer::entries_for_rally_into`] on hot paths.
    pub fn rally_iter(&self, returning: PoisonMask) -> impl Iterator<Item = SliceEntry> + '_ {
        (0..self.len)
            .map(|l| &self.slots[self.phys(l)])
            .filter(move |e| e.active && e.poison.intersects(returning))
            .copied()
    }

    /// Logical position of the entry for `trace_idx`.  Entries are appended in
    /// trace order and never reordered, so the buffer is sorted by
    /// `trace_idx` and lookups binary-search in O(log n).
    fn position_of(&self, trace_idx: usize) -> Option<usize> {
        let n = self.len;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.slots[self.phys(mid)].trace_idx < trace_idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < n && self.slots[self.phys(lo)].trace_idx == trace_idx).then_some(lo)
    }

    /// Physical slot of the entry for `trace_idx` (`u32::MAX` if it is not in
    /// the buffer) — what a new entry records as its producer's slot.
    pub fn slot_of(&self, trace_idx: usize) -> u32 {
        self.position_of(trace_idx)
            .map_or(u32::MAX, |l| self.phys(l) as u32)
    }

    /// O(1) form of [`SliceBuffer::entry_poison`] for a producer whose slot
    /// was recorded at push time ([`SliceBuffer::slot_of`]).  The slot may
    /// since have been reclaimed and reused by a younger entry, so the trace
    /// index is checked too.
    #[inline]
    pub fn producer_poison(&self, slot: u32, trace_idx: usize) -> Option<PoisonMask> {
        self.slots
            .get(slot as usize)
            .filter(|e| e.trace_idx == trace_idx && e.active)
            .map(|e| e.poison)
    }

    /// The current poison mask of the *active* entry for `trace_idx`, if any.
    /// Binary search; the reference [`SliceBuffer::producer_poison`] is
    /// checked against.
    pub fn entry_poison(&self, trace_idx: usize) -> Option<PoisonMask> {
        self.position_of(trace_idx)
            .map(|l| &self.slots[self.phys(l)])
            .filter(|e| e.active)
            .map(|e| e.poison)
    }

    /// Marks the entry for `trace_idx` as retired (executed successfully).
    pub fn retire(&mut self, trace_idx: usize) -> bool {
        if let Some(l) = self.position_of(trace_idx) {
            let slot = self.phys(l);
            let e = &mut self.slots[slot];
            if e.active {
                e.active = false;
                self.active -= 1;
                self.plane.clear_lane(slot);
                return true;
            }
        }
        false
    }

    /// O(1) form of [`SliceBuffer::retire`] for a physical slot obtained from
    /// [`SliceBuffer::rally_select_into`].
    pub fn retire_at(&mut self, slot: usize) -> bool {
        let e = &mut self.slots[slot];
        if e.active {
            e.active = false;
            self.active -= 1;
            self.plane.clear_lane(slot);
            return true;
        }
        false
    }

    /// O(1) form of [`SliceBuffer::repoison`] for a physical slot obtained
    /// from [`SliceBuffer::rally_select_into`].
    pub fn repoison_at(&mut self, slot: usize, poison: PoisonMask) -> bool {
        let e = &mut self.slots[slot];
        if e.active {
            e.poison = poison;
            self.plane.set(slot, poison);
            return true;
        }
        false
    }

    /// Re-poisons the entry for `trace_idx` in place (it depends on a miss
    /// that is still outstanding); the entry stays active for a later pass.
    pub fn repoison(&mut self, trace_idx: usize, poison: PoisonMask) -> bool {
        if let Some(l) = self.position_of(trace_idx) {
            let slot = self.phys(l);
            let e = &mut self.slots[slot];
            if e.active {
                e.poison = poison;
                self.plane.set(slot, poison);
                return true;
            }
        }
        false
    }

    /// Clears the buffer entirely (squash).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = SliceEntry::vacant();
        }
        self.plane.clear_all();
        self.head = 0;
        self.len = 0;
        self.active = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(idx: usize, poison: PoisonMask) -> SliceEntry {
        SliceEntry {
            trace_idx: idx,
            seq_from_ckpt: idx as InstSeq,
            src1_value: Some(1),
            src2_value: None,
            src1_producer: usize::MAX,
            src2_producer: usize::MAX,
            src1_producer_slot: u32::MAX,
            src2_producer_slot: u32::MAX,
            store_color: 0,
            poison,
            active: true,
        }
    }

    #[test]
    fn push_and_rally_selection_by_poison_bit() {
        let mut sb = SliceBuffer::new(8);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(1))).unwrap();
        sb.push(entry(2, PoisonMask::bit(0) | PoisonMask::bit(1))).unwrap();
        let pass0 = sb.entries_for_rally(PoisonMask::bit(0));
        assert_eq!(pass0.iter().map(|e| e.trace_idx).collect::<Vec<_>>(), vec![0, 2]);
        let pass1 = sb.entries_for_rally(PoisonMask::bit(1));
        assert_eq!(pass1.iter().map(|e| e.trace_idx).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn retire_marks_in_place_and_skips_later() {
        let mut sb = SliceBuffer::new(8);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(0))).unwrap();
        assert!(sb.retire(0));
        assert!(!sb.retire(0), "already retired");
        assert_eq!(sb.active_len(), 1);
        assert_eq!(sb.len(), 2, "entries are not compacted");
        let pass = sb.entries_for_rally(PoisonMask::bit(0));
        assert_eq!(pass.len(), 1);
        assert_eq!(pass[0].trace_idx, 1);
    }

    #[test]
    fn head_reclamation_frees_capacity() {
        let mut sb = SliceBuffer::new(2);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(0))).unwrap();
        assert!(sb.is_full());
        sb.retire(0);
        // Push succeeds because the retired head is reclaimed.
        sb.push(entry(2, PoisonMask::bit(0))).unwrap();
        assert_eq!(sb.len(), 2);
        // But a retired entry in the middle cannot be reclaimed.
        sb.retire(2);
        assert!(sb.push(entry(3, PoisonMask::bit(0))).is_err());
    }

    #[test]
    fn rally_selection_apis_are_equivalent() {
        // The scratch-buffer (word-scan) and iterator (per-entry) forms must
        // select exactly what the allocating form does, and the scratch must
        // reuse its capacity.
        let mut sb = SliceBuffer::new(16);
        for k in 0..12usize {
            sb.push(entry(k, PoisonMask::bit((k % 3) as u8))).unwrap();
        }
        sb.retire(3);
        sb.retire(6);
        let mut scratch = Vec::new();
        for bit in 0..3u8 {
            let select = PoisonMask::bit(bit);
            let allocated = sb.entries_for_rally(select);
            sb.entries_for_rally_into(select, &mut scratch);
            assert_eq!(allocated, scratch);
            let iterated: Vec<SliceEntry> = sb.rally_iter(select).collect();
            assert_eq!(allocated, iterated);
        }
        let warmed = scratch.capacity();
        for _ in 0..50 {
            sb.entries_for_rally_into(PoisonMask::bit(0), &mut scratch);
            assert_eq!(scratch.capacity(), warmed, "scratch must not reallocate");
        }
    }

    #[test]
    fn word_scan_matches_bit_loop_on_randomized_ring_states() {
        // Drive the ring through randomized push/retire/repoison churn (so the
        // buffer wraps and fragments) and check the word-level selection
        // against the per-entry rally_iter reference on every step.
        let mut state = 0x5EEDu64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 16
        };
        let mut sb = SliceBuffer::new(13); // odd capacity: exercises wrap lanes
        let mut next_idx = 0usize;
        let mut scratch = Vec::new();
        for _ in 0..400 {
            match lcg() % 4 {
                0 | 1 => {
                    let mask = PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 1);
                    if sb.push(entry(next_idx, mask)).is_ok() {
                        next_idx += 1;
                    } else {
                        // Full of active entries: retire the head to make room.
                        let head_idx = sb.active_entries().next().unwrap().trace_idx;
                        sb.retire(head_idx);
                    }
                }
                2 => {
                    if let Some(e) = sb.active_entries().last() {
                        let idx = e.trace_idx;
                        sb.repoison(idx, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 2));
                    }
                }
                _ => {
                    let actives: Vec<usize> =
                        sb.active_entries().map(|e| e.trace_idx).collect();
                    if !actives.is_empty() {
                        let pick = actives[(lcg() % actives.len() as u64) as usize];
                        sb.retire(pick);
                    }
                }
            }
            for bit in 0..16u8 {
                let select = PoisonMask::bit(bit);
                sb.entries_for_rally_into(select, &mut scratch);
                let reference: Vec<SliceEntry> = sb.rally_iter(select).collect();
                assert_eq!(scratch, reference, "selection diverged for bit {bit}");
            }
        }
        assert!(next_idx > 20, "churn should have inserted entries");
    }

    #[test]
    fn slot_carrying_selection_matches_and_slot_ops_are_equivalent() {
        // rally_select_into must pair every selected entry with a physical
        // slot on which retire_at/repoison_at act exactly like the by-index
        // forms — including across a ring wrap.
        let mut sb = SliceBuffer::new(8);
        for k in 0..6usize {
            sb.push(entry(k, PoisonMask::bit((k % 2) as u8))).unwrap();
        }
        sb.retire(0);
        sb.retire(1);
        sb.reclaim_head();
        sb.push(entry(6, PoisonMask::bit(0))).unwrap();
        sb.push(entry(7, PoisonMask::bit(0))).unwrap();
        sb.push(entry(8, PoisonMask::bit(0))).unwrap();
        sb.push(entry(9, PoisonMask::bit(0))).unwrap(); // wraps

        let mut slots = Vec::new();
        sb.rally_select_into(PoisonMask::bit(0), &mut slots);
        let plain = sb.entries_for_rally(PoisonMask::bit(0));
        let with_slots: Vec<(u32, SliceEntry)> = slots
            .iter()
            .map(|&slot| (slot, *sb.entry_at(slot as usize)))
            .collect();
        let entries: Vec<SliceEntry> = with_slots.iter().map(|&(_, e)| e).collect();
        assert_eq!(entries, plain);

        for &(slot, e) in &with_slots {
            // The slot really addresses this entry.
            assert_eq!(sb.entry_poison(e.trace_idx), Some(e.poison));
            assert!(sb.repoison_at(slot as usize, PoisonMask::bit(5)));
            assert_eq!(sb.entry_poison(e.trace_idx), Some(PoisonMask::bit(5)));
            assert!(sb.retire_at(slot as usize));
            assert!(!sb.retire_at(slot as usize), "already retired");
            assert_eq!(sb.entry_poison(e.trace_idx), None);
        }
        assert!(sb.entries_for_rally(PoisonMask::bit(0)).is_empty());
    }

    /// An entry whose first operand is produced by slice entry `prod`,
    /// recording the producer's slot the way iCFP does at push time.
    fn consumer(sb: &SliceBuffer, idx: usize, prod: usize, poison: PoisonMask) -> SliceEntry {
        SliceEntry {
            src1_value: None,
            src1_producer: prod,
            src1_producer_slot: sb.slot_of(prod),
            ..entry(idx, poison)
        }
    }

    #[test]
    fn producer_slot_survives_reclaim_and_reuse_of_the_slot() {
        let mut sb = SliceBuffer::new(4);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        let c = consumer(&sb, 1, 0, PoisonMask::bit(0));
        assert_eq!(c.src1_producer_slot, 0);
        sb.push(c).unwrap();
        assert_eq!(sb.producer_poison(0, 0), Some(PoisonMask::bit(0)));
        assert_eq!(sb.producer_poison(0, 0), sb.entry_poison(0));
        // The producer rallies and retires while its consumer stays active.
        assert!(sb.repoison(0, PoisonMask::bit(2)));
        assert_eq!(sb.producer_poison(0, 0), Some(PoisonMask::bit(2)));
        assert!(sb.retire(0));
        assert_eq!(sb.producer_poison(0, 0), None);
        sb.push(entry(2, PoisonMask::bit(1))).unwrap();
        sb.push(entry(3, PoisonMask::bit(1))).unwrap();
        // Full: this push reclaims the producer's slot and reuses it.
        sb.push(entry(4, PoisonMask::bit(3))).unwrap();
        assert_eq!(sb.slot_of(4), 0, "entry 4 took the producer's slot");
        assert_eq!(
            sb.entry_poison(1),
            Some(PoisonMask::bit(0)),
            "consumer still active"
        );
        assert_eq!(
            sb.producer_poison(0, 0),
            None,
            "slot now holds a different entry"
        );
        assert_eq!(sb.producer_poison(0, 0), sb.entry_poison(0));
        assert_eq!(sb.producer_poison(0, 4), sb.entry_poison(4));
        assert_eq!(sb.slot_of(0), u32::MAX);
        assert_eq!(sb.producer_poison(u32::MAX, usize::MAX), None);
    }

    #[test]
    fn producer_slot_lookup_matches_binary_search_under_churn() {
        // Randomized push/retire/repoison/clear churn on a wrapping ring;
        // every active consumer's recorded producer slot must answer exactly
        // what the binary search over trace indices answers.
        let mut state = 0xC0FFEEu64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 16
        };
        let mut sb = SliceBuffer::new(11);
        let mut next_idx = 0usize;
        let mut checked = 0usize;
        for _ in 0..3000 {
            match lcg() % 8 {
                0..=3 => {
                    let back = (lcg() % 16) as usize + 1;
                    // Producers are always older; none for the first few.
                    let prod = next_idx.checked_sub(back).unwrap_or(usize::MAX);
                    let mask = PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 1);
                    let e = consumer(&sb, next_idx, prod, mask);
                    if sb.push(e).is_ok() {
                        next_idx += 1;
                    } else {
                        let head_idx = sb.active_entries().next().unwrap().trace_idx;
                        sb.retire(head_idx);
                    }
                }
                4 => {
                    let actives: Vec<usize> = sb.active_entries().map(|e| e.trace_idx).collect();
                    if !actives.is_empty() {
                        let pick = actives[(lcg() % actives.len() as u64) as usize];
                        sb.repoison(pick, PoisonMask::from_bits((lcg() % 0xFFFF) as u16 | 4));
                    }
                }
                5 if lcg() % 64 == 0 => sb.clear(),
                _ => {
                    let actives: Vec<usize> = sb.active_entries().map(|e| e.trace_idx).collect();
                    if !actives.is_empty() {
                        let pick = actives[(lcg() % actives.len() as u64) as usize];
                        sb.retire(pick);
                    }
                }
            }
            for e in sb.active_entries() {
                assert_eq!(
                    sb.producer_poison(e.src1_producer_slot, e.src1_producer),
                    sb.entry_poison(e.src1_producer),
                    "entry {} producer {}",
                    e.trace_idx,
                    e.src1_producer
                );
                checked += 1;
            }
        }
        assert!(next_idx > 500 && checked > 5000, "churn too small");
    }

    #[test]
    fn repoison_keeps_entry_active() {
        let mut sb = SliceBuffer::new(4);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        assert!(sb.repoison(0, PoisonMask::bit(3)));
        let pass = sb.entries_for_rally(PoisonMask::bit(3));
        assert_eq!(pass.len(), 1);
        assert!(sb.entries_for_rally(PoisonMask::bit(0)).is_empty());
    }

    #[test]
    fn peak_and_inserted_counters() {
        let mut sb = SliceBuffer::new(4);
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        sb.push(entry(1, PoisonMask::bit(0))).unwrap();
        sb.retire(0);
        sb.reclaim_head();
        sb.push(entry(2, PoisonMask::bit(0))).unwrap();
        assert_eq!(sb.peak(), 2);
        assert_eq!(sb.inserted(), 3);
    }

    #[test]
    fn no_active_and_clear() {
        let mut sb = SliceBuffer::new(4);
        assert!(sb.no_active());
        sb.push(entry(0, PoisonMask::bit(0))).unwrap();
        assert!(!sb.no_active());
        sb.clear();
        assert!(sb.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SliceBuffer::new(0);
    }
}
