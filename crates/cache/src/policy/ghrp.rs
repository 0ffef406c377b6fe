//! GHRP — global-history reuse prediction for instruction caches
//! (Mirbagher Ajorpaz et al., ISCA 2018), the strongest prior i-cache
//! replacement policy in the paper's comparison.
//!
//! GHRP hashes the fetched block's signature with a global history of
//! recent fetch signatures, indexes three skewed prediction tables of
//! 2-bit counters, and takes a majority vote to predict whether a line
//! is *dead*. Dead-predicted lines are preferred victims. Tables are
//! trained with the standard dead-block rule: an eviction marks the
//! line's last-access indices dead; a hit marks them live.
//!
//! Parameters follow Table IV: three 4096-entry tables, 2-bit
//! counters, 16-bit signature and history.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_types::hash::{fold, mix64};
use acic_types::{LruStamps, SatCounter, TaggedBlock};

/// Prediction-table entries (4096 each, Table IV).
const TABLE_ENTRIES: usize = 4096;
/// Number of skewed tables.
const NUM_TABLES: usize = 3;
/// History register width (16-bit, Table IV).
const HISTORY_BITS: u32 = 16;

/// Per-line GHRP metadata: table indices of the last access and the
/// dead prediction made then.
#[derive(Clone, Copy, Debug, Default)]
struct LineMeta {
    indices: [u16; NUM_TABLES],
    predicted_dead: bool,
    valid: bool,
}

/// GHRP replacement policy.
#[derive(Clone, Debug)]
pub struct GhrpPolicy {
    ways: usize,
    history: u32,
    tables: Vec<SatCounter>, // NUM_TABLES contiguous banks
    lines: Vec<LineMeta>,
    lru: Vec<LruStamps>,
}

impl GhrpPolicy {
    /// Creates GHRP state for the geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        GhrpPolicy {
            ways: geom.ways(),
            history: 0,
            tables: vec![SatCounter::new(2, 0); NUM_TABLES * TABLE_ENTRIES],
            lines: vec![LineMeta::default(); geom.lines()],
            lru: (0..geom.sets())
                .map(|_| LruStamps::new(geom.ways()))
                .collect(),
        }
    }

    fn signature(&self, block: TaggedBlock) -> u32 {
        (fold(mix64(block.ident()), HISTORY_BITS) as u32) ^ self.history
    }

    fn indices(&self, block: TaggedBlock) -> [u16; NUM_TABLES] {
        let sig = self.signature(block) as u64;
        [
            fold(mix64(sig), 12) as u16,
            fold(mix64(sig ^ 0x9e37), 12) as u16,
            fold(mix64(sig ^ 0x79b9_7f4a), 12) as u16,
        ]
    }

    fn counter(&self, table: usize, idx: u16) -> SatCounter {
        self.tables[table * TABLE_ENTRIES + idx as usize]
    }

    fn predict_dead(&self, indices: &[u16; NUM_TABLES]) -> bool {
        let votes = (0..NUM_TABLES)
            .filter(|&t| self.counter(t, indices[t]).is_high())
            .count();
        votes * 2 > NUM_TABLES
    }

    fn train(&mut self, indices: &[u16; NUM_TABLES], dead: bool) {
        for (t, &idx) in indices.iter().enumerate() {
            self.tables[t * TABLE_ENTRIES + idx as usize].update(dead);
        }
    }

    fn push_history(&mut self, block: TaggedBlock) {
        let piece = fold(mix64(block.ident()), 3) as u32;
        self.history = ((self.history << 3) ^ piece) & ((1 << HISTORY_BITS) - 1);
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Records a new access generation for a line: store current
    /// indices and prediction, then advance the global history.
    fn stamp_line(&mut self, set: usize, way: usize, block: TaggedBlock) {
        let indices = self.indices(block);
        let dead = self.predict_dead(&indices);
        let i = self.idx(set, way);
        self.lines[i] = LineMeta {
            indices,
            predicted_dead: dead,
            valid: true,
        };
        self.lru[set].touch(way);
        self.push_history(block);
    }
}

impl ReplacementPolicy for GhrpPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "ghrp"
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        // The previous access's prediction turned out live.
        let i = self.idx(set, way);
        if self.lines[i].valid {
            let indices = self.lines[i].indices;
            self.train(&indices, false);
        }
        self.stamp_line(set, way, ctx.tagged());
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        self.stamp_line(set, way, ctx.tagged());
    }

    fn on_evict(&mut self, set: usize, way: usize, _block: TaggedBlock, _ctx: &AccessCtx<'_>) {
        // The line died: its last access's indices were dead.
        let i = self.idx(set, way);
        if self.lines[i].valid {
            let indices = self.lines[i].indices;
            self.train(&indices, true);
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.lines[i].valid = false;
        self.lru[set].clear(way);
    }

    fn victim_way(&mut self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        self.peek_victim(set, blocks, ctx)
    }

    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        // Dead-predicted lines first (LRU among them), else plain LRU.
        let base = self.idx(set, 0);
        let mut best: Option<(u64, usize)> = None;
        for w in 0..self.ways {
            if self.lines[base + w].predicted_dead {
                let stamp = self.lru[set].stamp(w);
                if best.is_none_or(|(s, _)| stamp < s) {
                    best = Some((stamp, w));
                }
            }
        }
        match best {
            Some((_, w)) => w,
            None => self.lru[set].lru_way(),
        }
    }

    fn wants_victim_blocks(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use acic_types::BlockAddr;

    fn ctx(b: u64, i: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), i)
    }

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn falls_back_to_lru_when_nothing_dead() {
        let geom = CacheGeometry::from_sets_ways(1, 3);
        let mut c = SetAssocCache::new(geom, GhrpPolicy::new(geom));
        for i in 0..3u64 {
            c.fill(&ctx(i, i));
        }
        c.access(&ctx(0, 10));
        let evicted = c.fill(&ctx(9, 11));
        assert_eq!(evicted, Some(tb(1)));
    }

    #[test]
    fn training_marks_streaming_blocks_dead() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = GhrpPolicy::new(geom);
        // Simulate the same block being filled and evicted repeatedly
        // with a stable history: its indices become dead-voting.
        for _ in 0..4 {
            p.history = 0; // stabilize history so indices repeat
            p.on_fill(0, 0, &ctx(42, 0));
            p.on_evict(0, 0, tb(42), &ctx(1, 1));
        }
        p.history = 0;
        let indices = p.indices(tb(42));
        assert!(p.predict_dead(&indices));
    }

    #[test]
    fn hits_train_live() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = GhrpPolicy::new(geom);
        for _ in 0..4 {
            p.history = 0;
            p.on_fill(0, 0, &ctx(42, 0));
            p.on_evict(0, 0, tb(42), &ctx(1, 1));
        }
        // Now hits should walk the counters back down.
        for _ in 0..4 {
            p.history = 0;
            p.on_fill(0, 0, &ctx(42, 0));
            p.history = 0;
            p.on_hit(0, 0, &ctx(42, 1));
        }
        p.history = 0;
        let indices = p.indices(tb(42));
        assert!(!p.predict_dead(&indices));
    }

    #[test]
    fn history_changes_signature() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = GhrpPolicy::new(geom);
        let s1 = p.signature(tb(5));
        p.push_history(tb(77));
        let s2 = p.signature(tb(5));
        assert_ne!(s1, s2);
    }

    #[test]
    fn storage_parameters_match_table_iv() {
        // 3 tables x 4096 entries x 2-bit = 3 KB; 16-bit history.
        assert_eq!(NUM_TABLES * TABLE_ENTRIES * 2 / 8, 3072);
        assert_eq!(HISTORY_BITS, 16);
    }
}
