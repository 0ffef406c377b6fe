//! Least-recently-used replacement — the paper's baseline i-cache
//! policy (Table II).

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_types::{LruStamps, TaggedBlock};

/// True-LRU replacement using recency stamps.
///
/// Stamps live in one flat `sets * ways` array ordered by a single
/// global clock — victim selection only ever compares stamps *within*
/// a set, so a global clock produces the identical relative order a
/// per-set clock would (same victims, bit for bit) while keeping the
/// whole policy in one allocation. The L2/L3 tag stores probe this on
/// every simulated miss; per-set `Vec`s cost a pointer chase per
/// touch at thousands of sets.
///
/// # Examples
///
/// ```
/// use acic_cache::{AccessCtx, CacheGeometry, SetAssocCache};
/// use acic_cache::policy::lru::LruPolicy;
/// use acic_types::BlockAddr;
///
/// let geom = CacheGeometry::from_sets_ways(1, 2);
/// let mut c = SetAssocCache::new(geom, LruPolicy::new(geom));
/// for (i, b) in [10u64, 20].iter().enumerate() {
///     c.fill(&AccessCtx::demand(BlockAddr::new(*b), i as u64));
/// }
/// c.access(&AccessCtx::demand(BlockAddr::new(10), 2)); // 20 becomes LRU
/// let evicted = c.fill(&AccessCtx::demand(BlockAddr::new(30), 3));
/// assert_eq!(evicted.map(|t| t.block), Some(BlockAddr::new(20)));
/// ```
#[derive(Clone, Debug)]
pub struct LruPolicy {
    ways: usize,
    /// Per-line stamps; 0 means "never touched" (preferred victim).
    stamps: Vec<u64>,
    clock: u64,
}

impl LruPolicy {
    /// Creates LRU state for the geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        LruPolicy {
            ways: geom.ways(),
            stamps: vec![0; geom.lines()],
            clock: 0,
        }
    }

    /// Recency stamps of one set, materialized as [`LruStamps`]
    /// (exposed for tests and the storage model).
    pub fn stamps(&self, set: usize) -> LruStamps {
        let base = set * self.ways;
        LruStamps::from_stamps(&self.stamps[base..base + self.ways])
    }

    #[inline]
    fn lru_way(&self, set: usize) -> usize {
        let base = set * self.ways;
        let mut way = 0;
        let mut best = u64::MAX;
        for (w, &s) in self.stamps[base..base + self.ways].iter().enumerate() {
            if s < best {
                best = s;
                way = w;
            }
        }
        way
    }
}

impl ReplacementPolicy for LruPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "lru"
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = 0;
    }

    #[inline]
    fn victim_way(&mut self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        self.lru_way(set)
    }

    #[inline]
    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        self.lru_way(set)
    }

    fn wants_victim_blocks(&self) -> bool {
        false
    }

    fn prefetch_hint(&self, set: usize) {
        crate::cache::host_prefetch(&self.stamps[set * self.ways]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use acic_types::BlockAddr;

    #[test]
    fn evicts_least_recently_touched() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut c = SetAssocCache::new(geom, LruPolicy::new(geom));
        for i in 0..4u64 {
            c.fill(&AccessCtx::demand(BlockAddr::new(i), i));
        }
        // Touch 0 and 1; LRU should now be 2.
        c.access(&AccessCtx::demand(BlockAddr::new(0), 10));
        c.access(&AccessCtx::demand(BlockAddr::new(1), 11));
        let evicted = c.fill(&AccessCtx::demand(BlockAddr::new(9), 12));
        assert_eq!(evicted, Some(TaggedBlock::untagged(BlockAddr::new(2))));
    }

    #[test]
    fn peek_matches_victim() {
        let geom = CacheGeometry::from_sets_ways(1, 3);
        let mut c = SetAssocCache::new(geom, LruPolicy::new(geom));
        for i in 0..3u64 {
            c.fill(&AccessCtx::demand(BlockAddr::new(i), i));
        }
        let ctx = AccessCtx::demand(BlockAddr::new(100), 50);
        let peek = c.contender(&ctx).unwrap();
        let evicted = c.fill(&ctx).unwrap();
        assert_eq!(peek, evicted);
    }

    #[test]
    fn lru_stack_order_after_sequence() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut p = LruPolicy::new(geom);
        let ctx = AccessCtx::demand(BlockAddr::new(0), 0);
        p.on_fill(0, 0, &ctx);
        p.on_fill(0, 1, &ctx);
        p.on_fill(0, 2, &ctx);
        p.on_fill(0, 3, &ctx);
        p.on_hit(0, 0, &ctx);
        assert_eq!(p.stamps(0).recency_order(), vec![0, 3, 2, 1]);
    }
}
