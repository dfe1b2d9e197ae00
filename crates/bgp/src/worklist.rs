//! Index-bucketed bitset worklist for the propagation engine.
//!
//! The event engine's waves are popped in ascending node-index order, so a
//! `BTreeSet<NodeIdx>` pays a log factor (and per-activation node
//! allocation traffic) for ordering the worklist already has for free. A
//! [`BitWorklist`] stores pending indices as bits in a fixed-size word
//! array and pops the lowest set bit by scanning forward from a cursor —
//! O(1) amortized insert/pop over a whole wave, no allocation after
//! construction.
//!
//! Two properties the engine leans on:
//!
//! * **Exact `BTreeSet` semantics.** `insert` dedupes and `pop_first`
//!   returns the global minimum (inserting below the cursor pulls the
//!   cursor back), so both the wave-exact and the free activation order
//!   replay the same trajectory, bit for bit, as the ordered-set worklists
//!   they replace.
//! * **O(1) logical clear.** Worklists live for the whole simulation and
//!   are reused across events; [`BitWorklist::reset`] bumps a generation
//!   counter instead of zeroing the array, and each word carries the
//!   generation it was last written in. A word tagged with a stale
//!   generation reads as empty and is lazily zeroed on its next insert, so
//!   seeds cleared in one recovery run can never resurrect in the next.

use ir_topology::graph::NodeIdx;

const WORD_BITS: usize = u64::BITS as usize;

/// A set of node indices with `BTreeSet`-ordered pop, backed by a
/// generation-tagged bitset. Capacity is fixed at construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitWorklist {
    /// One bit per node; valid only where `word_gen` matches `gen`.
    words: Vec<u64>,
    /// Generation each word was last written in.
    word_gen: Vec<u32>,
    /// Current generation; bumped by [`BitWorklist::reset`].
    gen: u32,
    /// Lowest word index that may contain a set bit of this generation.
    cursor: usize,
    /// Number of set bits (pending indices).
    len: usize,
}

impl BitWorklist {
    /// An empty worklist able to hold indices `0..n`.
    pub(crate) fn new(n: usize) -> BitWorklist {
        let words = n.div_ceil(WORD_BITS);
        BitWorklist {
            words: vec![0; words],
            word_gen: vec![0; words],
            // Generation 0 is the tag of never-written words; starting at 1
            // keeps the fresh array logically empty without a first reset.
            gen: 1,
            cursor: usize::MAX,
            len: 0,
        }
    }

    /// Logically clears the worklist in O(1) by advancing the generation.
    /// Stale bits from earlier events become invisible; the rare generation
    /// wrap falls back to a hard clear so old tags can never match again.
    pub(crate) fn reset(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.words.fill(0);
            self.word_gen.fill(0);
            self.gen = 1;
        }
        self.cursor = usize::MAX;
        self.len = 0;
    }

    /// Inserts `i`; returns whether it was newly added.
    pub(crate) fn insert(&mut self, i: NodeIdx) -> bool {
        let w = i / WORD_BITS;
        let bit = 1u64 << (i % WORD_BITS);
        if self.word_gen[w] != self.gen {
            self.word_gen[w] = self.gen;
            self.words[w] = 0;
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        if w < self.cursor {
            self.cursor = w;
        }
        true
    }

    /// Removes and returns the smallest pending index.
    pub(crate) fn pop_first(&mut self) -> Option<NodeIdx> {
        if self.len == 0 {
            return None;
        }
        let mut w = self.cursor;
        loop {
            if self.word_gen[w] == self.gen && self.words[w] != 0 {
                let bit = self.words[w].trailing_zeros() as usize;
                self.words[w] &= self.words[w] - 1;
                self.len -= 1;
                // The popped word may still hold higher bits; keep the
                // cursor on it so the next pop rescans from here.
                self.cursor = w;
                return Some(w * WORD_BITS + bit);
            }
            w += 1;
        }
    }

    /// Whether no index is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices this worklist can hold (0 for a `Default` placeholder).
    pub(crate) fn capacity(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// The pending set as plain bitset words, one per 64 indices (words of
    /// a stale generation read as empty) — the worklist third of the
    /// oscillation probe's state snapshot.
    pub(crate) fn pending_words(&self) -> Vec<u64> {
        self.live_words().collect()
    }

    /// Whether the pending set equals a [`BitWorklist::pending_words`]
    /// snapshot of a worklist of the same capacity.
    pub(crate) fn same_pending(&self, words: &[u64]) -> bool {
        self.live_words().eq(words.iter().copied())
    }

    fn live_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.words
            .iter()
            .zip(&self.word_gen)
            .map(|(&w, &g)| if g == self.gen { w } else { 0 })
    }

    /// Number of pending indices.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Test hook: forces the generation counter to the wrap boundary so the
    /// hard-clear path is exercised without 2^32 resets.
    #[cfg(test)]
    pub(crate) fn force_generation(&mut self, gen: u32) {
        self.gen = gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_pop_matches_btreeset_semantics() {
        let mut wl = BitWorklist::new(300);
        let mut set = BTreeSet::new();
        // Interleave inserts (including below the cursor) and pops.
        let script = [250usize, 3, 190, 64, 63, 65, 3, 0, 299, 128, 127, 129, 2, 1];
        for (step, &i) in script.iter().enumerate() {
            assert_eq!(wl.insert(i), set.insert(i), "insert {i}");
            if step % 3 == 2 {
                assert_eq!(wl.pop_first(), set.pop_first(), "pop at step {step}");
            }
            assert_eq!(wl.len(), set.len(), "len after step {step}");
        }
        while let Some(expect) = set.pop_first() {
            assert_eq!(wl.pop_first(), Some(expect));
        }
        assert_eq!(wl.pop_first(), None);
        assert!(wl.is_empty());
    }

    #[test]
    fn insert_below_cursor_pulls_the_minimum_back() {
        // The free activation order inserts indices below the last popped
        // one; pop_first must still return the global minimum.
        let mut wl = BitWorklist::new(256);
        wl.insert(200);
        wl.insert(130);
        assert_eq!(wl.pop_first(), Some(130));
        wl.insert(5);
        wl.insert(199);
        assert_eq!(wl.pop_first(), Some(5));
        assert_eq!(wl.pop_first(), Some(199));
        assert_eq!(wl.pop_first(), Some(200));
        assert_eq!(wl.pop_first(), None);
    }

    #[test]
    fn reset_hides_stale_bits_without_touching_words() {
        let mut wl = BitWorklist::new(256);
        for i in [7usize, 70, 170, 255] {
            wl.insert(i);
        }
        // Drain only part of the list, then reset: the undrained bits are
        // stale seeds from the previous run and must never resurface.
        assert_eq!(wl.pop_first(), Some(7));
        wl.reset();
        assert!(wl.is_empty());
        assert_eq!(wl.pop_first(), None);
        // A fresh insert into a stale word lazily clears it first.
        wl.insert(68);
        assert_eq!(wl.pop_first(), Some(68));
        assert_eq!(wl.pop_first(), None, "70 from the old run resurrected");
    }

    #[test]
    fn repeated_resets_stay_consistent() {
        let mut wl = BitWorklist::new(192);
        for run in 0..50usize {
            wl.reset();
            let base = run % 3;
            for i in (base..192).step_by(7) {
                wl.insert(i);
            }
            let mut prev = None;
            let mut popped = 0;
            while let Some(i) = wl.pop_first() {
                assert!(prev.is_none_or(|p| p < i), "ascending order in run {run}");
                assert_eq!(i % 7, base, "stale bit from an earlier run");
                prev = Some(i);
                popped += 1;
            }
            assert_eq!(popped, (base..192).step_by(7).count());
        }
    }

    #[test]
    fn pending_snapshot_ignores_stale_generations() {
        let mut wl = BitWorklist::new(200);
        for i in [5usize, 64, 199] {
            wl.insert(i);
        }
        let snap = wl.pending_words();
        assert!(wl.same_pending(&snap));
        assert_eq!(wl.pop_first(), Some(5));
        assert!(!wl.same_pending(&snap));
        // After a reset the old words are stale: the set reads as empty
        // until the same indices are inserted again.
        wl.reset();
        assert!(wl.same_pending(&[0, 0, 0, 0]));
        for i in [199usize, 5, 64] {
            wl.insert(i);
        }
        assert!(wl.same_pending(&snap));
    }

    #[test]
    fn generation_wrap_hard_clears() {
        let mut wl = BitWorklist::new(128);
        wl.insert(3);
        wl.insert(90);
        // Force the counter to the wrap boundary: the next reset overflows
        // to 0 and must hard-clear rather than let old tags alias.
        wl.force_generation(u32::MAX);
        wl.reset();
        assert!(wl.is_empty());
        assert_eq!(wl.pop_first(), None);
        wl.insert(90);
        assert_eq!(wl.pop_first(), Some(90));
        assert_eq!(wl.pop_first(), None, "pre-wrap bit survived the wrap");
    }
}
