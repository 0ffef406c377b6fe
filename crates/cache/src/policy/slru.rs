//! Segmented LRU — the base replacement policy of DSB (Gao &
//! Wilkerson, JWAC 2010 cache replacement championship entry).
//!
//! Each set is split into a probationary and a protected segment:
//! fills enter probationary; a hit promotes to protected (demoting the
//! LRU protected line if the segment is full); victims come from the
//! probationary segment first.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_types::{LruStamps, TaggedBlock};

/// Per-line segment membership.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Segment {
    #[default]
    Probationary,
    Protected,
}

/// Segmented-LRU replacement.
///
/// The protected segment holds at most half the ways (rounded up).
#[derive(Clone, Debug)]
pub struct SlruPolicy {
    ways: usize,
    protected_cap: usize,
    segment: Vec<Segment>,
    lru: Vec<LruStamps>,
}

impl SlruPolicy {
    /// Creates SLRU state for the geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        SlruPolicy {
            ways: geom.ways(),
            protected_cap: geom.ways().div_ceil(2),
            segment: vec![Segment::Probationary; geom.lines()],
            lru: (0..geom.sets())
                .map(|_| LruStamps::new(geom.ways()))
                .collect(),
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn protected_count(&self, set: usize) -> usize {
        let base = self.idx(set, 0);
        self.segment[base..base + self.ways]
            .iter()
            .filter(|&&s| s == Segment::Protected)
            .count()
    }

    fn victim_in_segment(&self, set: usize, seg: Segment) -> Option<usize> {
        let base = self.idx(set, 0);
        (0..self.ways)
            .filter(|&w| self.segment[base + w] == seg)
            .min_by_key(|&w| (self.lru[set].stamp(w), w))
    }
}

impl ReplacementPolicy for SlruPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "slru"
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        if self.segment[i] == Segment::Probationary {
            // Promote; demote the LRU protected line if over capacity.
            if self.protected_count(set) >= self.protected_cap {
                if let Some(demote) = self.victim_in_segment(set, Segment::Protected) {
                    let di = self.idx(set, demote);
                    self.segment[di] = Segment::Probationary;
                }
            }
            self.segment[i] = Segment::Protected;
        }
        self.lru[set].touch(way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        self.segment[i] = Segment::Probationary;
        self.lru[set].touch(way);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.segment[i] = Segment::Probationary;
        self.lru[set].clear(way);
    }

    fn victim_way(&mut self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        self.peek_victim(set, blocks, ctx)
    }

    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        self.victim_in_segment(set, Segment::Probationary)
            .or_else(|| self.victim_in_segment(set, Segment::Protected))
            .expect("at least one way")
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

    #[test]
    fn protected_blocks_survive_streaming() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut c = SetAssocCache::new(geom, SlruPolicy::new(geom));
        // Block 0 is hit (protected); blocks 1..=3 stream through.
        c.fill(&ctx(0, 0));
        c.access(&ctx(0, 1));
        for b in 1..10u64 {
            c.fill(&ctx(b, b + 1));
        }
        assert!(
            c.contains(BlockAddr::new(0)),
            "protected line evicted by stream"
        );
    }

    #[test]
    fn promotion_respects_capacity() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut p = SlruPolicy::new(geom);
        for w in 0..4 {
            p.on_fill(0, w, &ctx(w as u64, w as u64));
        }
        // Promote three lines; capacity is 2, so only 2 stay protected.
        p.on_hit(0, 0, &ctx(0, 10));
        p.on_hit(0, 1, &ctx(1, 11));
        p.on_hit(0, 2, &ctx(2, 12));
        assert_eq!(p.protected_count(0), 2);
        // Way 0 (oldest protected) was demoted.
        assert_eq!(p.segment[0], Segment::Probationary);
    }

    #[test]
    fn victim_prefers_probationary() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = SlruPolicy::new(geom);
        p.on_fill(0, 0, &ctx(0, 0));
        p.on_fill(0, 1, &ctx(1, 1));
        p.on_hit(0, 0, &ctx(0, 2)); // way 0 protected
        let blocks = vec![
            TaggedBlock::untagged(BlockAddr::new(0)),
            TaggedBlock::untagged(BlockAddr::new(1)),
        ];
        assert_eq!(p.peek_victim(0, &blocks, &ctx(9, 3)), 1);
    }
}
