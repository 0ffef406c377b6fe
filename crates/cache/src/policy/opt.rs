//! Belady's OPT — the unimplementable upper bound the paper measures
//! everything against (Table IV: "evict the block that is reused
//! furthest in the future").
//!
//! Each line remembers the next-use position its block reported at its
//! most recent access (supplied through [`AccessCtx::next_use`] by the
//! oracle-aware simulation driver); the victim is the line whose next
//! use is furthest away, with "never used again"
//! ([`acic_trace::NO_NEXT_USE`]) winning outright.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_trace::NO_NEXT_USE;
use acic_types::TaggedBlock;

/// Oracle OPT replacement.
///
/// # Panics
///
/// Debug builds assert that accesses carry a `next_use` value; running
/// OPT without an oracle silently degrades to FIFO-like behavior in
/// release builds and is a driver bug.
#[derive(Clone, Debug)]
pub struct OptPolicy {
    ways: usize,
    next_use: Vec<u64>,
}

impl OptPolicy {
    /// Creates OPT state for the geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        OptPolicy {
            ways: geom.ways(),
            next_use: vec![NO_NEXT_USE; geom.lines()],
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl ReplacementPolicy for OptPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "opt"
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        self.next_use[i] = ctx.next_use;
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        self.next_use[i] = ctx.next_use;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.next_use[i] = NO_NEXT_USE;
    }

    fn victim_way(&mut self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        self.peek_victim(set, blocks, ctx)
    }

    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        let base = set * self.ways;
        self.next_use[base..base + self.ways]
            .iter()
            .enumerate()
            .max_by_key(|&(i, &n)| (n, usize::MAX - i))
            .map(|(i, _)| i)
            .expect("at least one way")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use acic_types::BlockAddr;

    fn ctx_with(b: u64, next: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), 0).with_next_use(next)
    }

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn evicts_furthest_future_use() {
        let geom = CacheGeometry::from_sets_ways(1, 3);
        let mut c = SetAssocCache::new(geom, OptPolicy::new(geom));
        c.fill(&ctx_with(1, 10));
        c.fill(&ctx_with(2, 100));
        c.fill(&ctx_with(3, 50));
        let evicted = c.fill(&ctx_with(4, 20));
        assert_eq!(evicted, Some(tb(2)));
    }

    #[test]
    fn never_reused_wins_eviction() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut c = SetAssocCache::new(geom, OptPolicy::new(geom));
        c.fill(&ctx_with(1, NO_NEXT_USE));
        c.fill(&ctx_with(2, 5));
        let evicted = c.fill(&ctx_with(3, 7));
        assert_eq!(evicted, Some(tb(1)));
    }

    #[test]
    fn hit_refreshes_next_use() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut c = SetAssocCache::new(geom, OptPolicy::new(geom));
        c.fill(&ctx_with(1, 5));
        c.fill(&ctx_with(2, 50));
        // Block 1 is accessed; its *new* next use is far away.
        c.access(&ctx_with(1, 1000));
        let evicted = c.fill(&ctx_with(3, 60));
        assert_eq!(evicted, Some(tb(1)));
    }

    #[test]
    fn opt_never_worse_than_lru_on_cyclic_pattern() {
        use crate::policy::lru::LruPolicy;
        // Classic LRU-pathological cyclic access over ways+1 blocks.
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let seq: Vec<u64> = (0..60).map(|i| i % 3).collect();
        let blocks: Vec<BlockAddr> = seq.iter().map(|&b| BlockAddr::new(b)).collect();
        let oracle = acic_trace::ReuseOracle::from_sequence(&blocks);

        let mut misses_opt = 0;
        let mut c = SetAssocCache::new(geom, OptPolicy::new(geom));
        let mut cur = oracle.cursor();
        for (i, &b) in blocks.iter().enumerate() {
            let pos = cur.advance(b);
            debug_assert_eq!(pos, i as u64);
            let ctx = AccessCtx::demand(b, i as u64).with_next_use(cur.next_use_of(b));
            if !c.access(&ctx) {
                misses_opt += 1;
                c.fill(&ctx);
            }
        }

        let mut misses_lru = 0;
        let mut c = SetAssocCache::new(geom, LruPolicy::new(geom));
        for (i, &b) in blocks.iter().enumerate() {
            let ctx = AccessCtx::demand(b, i as u64);
            if !c.access(&ctx) {
                misses_lru += 1;
                c.fill(&ctx);
            }
        }
        assert!(
            misses_opt < misses_lru,
            "OPT {misses_opt} vs LRU {misses_lru}"
        );
    }
}
