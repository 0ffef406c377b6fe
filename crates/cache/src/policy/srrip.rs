//! SRRIP — static re-reference interval prediction (Jaleel et al.,
//! ISCA 2010), with the paper's 2-bit RRPV configuration (Table IV).

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_types::TaggedBlock;

/// Width of the re-reference prediction value in bits.
pub const RRPV_BITS: u32 = 2;
/// Maximum (distant) RRPV.
pub const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;
/// Insertion RRPV ("long re-reference interval": max − 1).
pub const RRPV_INSERT: u8 = RRPV_MAX - 1;

/// SRRIP replacement: blocks are inserted with a long re-reference
/// prediction, promoted to near-immediate on hit, and the victim is
/// the first block predicted distant (aging the set if none is).
///
/// # Examples
///
/// ```
/// use acic_cache::{AccessCtx, CacheGeometry, SetAssocCache};
/// use acic_cache::policy::srrip::SrripPolicy;
/// use acic_types::BlockAddr;
///
/// let geom = CacheGeometry::from_sets_ways(1, 2);
/// let mut c = SetAssocCache::new(geom, SrripPolicy::new(geom));
/// c.fill(&AccessCtx::demand(BlockAddr::new(1), 0));
/// c.access(&AccessCtx::demand(BlockAddr::new(1), 1)); // promote to RRPV 0
/// c.fill(&AccessCtx::demand(BlockAddr::new(2), 2));
/// // Block 2 (RRPV 2) ages out before block 1 (RRPV 0).
/// assert_eq!(
///     c.fill(&AccessCtx::demand(BlockAddr::new(3), 3)).map(|t| t.block),
///     Some(BlockAddr::new(2)),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct SrripPolicy {
    ways: usize,
    rrpv: Vec<u8>,
}

impl SrripPolicy {
    /// Creates SRRIP state for the geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        SrripPolicy {
            ways: geom.ways(),
            rrpv: vec![RRPV_MAX; geom.lines()],
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn victim_scan(rrpv: &[u8]) -> Option<usize> {
        rrpv.iter().position(|&r| r >= RRPV_MAX)
    }
}

impl ReplacementPolicy for SrripPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "srrip"
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        self.rrpv[i] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_INSERT;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
    }

    fn victim_way(&mut self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        let base = self.idx(set, 0);
        loop {
            if let Some(w) = Self::victim_scan(&self.rrpv[base..base + self.ways]) {
                return w;
            }
            for r in &mut self.rrpv[base..base + self.ways] {
                *r += 1;
            }
        }
    }

    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        let base = self.idx(set, 0);
        let slice = &self.rrpv[base..base + self.ways];
        // Without mutating, the victim is the way whose RRPV would
        // reach the maximum first: the highest RRPV, ties to lowest way.
        slice
            .iter()
            .enumerate()
            .max_by_key(|&(i, &r)| (r, usize::MAX - i))
            .map(|(i, _)| i)
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
    fn insert_is_long_not_distant() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = SrripPolicy::new(geom);
        p.on_fill(0, 0, &ctx(1, 0));
        assert_eq!(p.rrpv[0], RRPV_INSERT);
        p.on_hit(0, 0, &ctx(1, 1));
        assert_eq!(p.rrpv[0], 0);
    }

    #[test]
    fn aging_finds_victim_eventually() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut c = SetAssocCache::new(geom, SrripPolicy::new(geom));
        for i in 0..4u64 {
            c.fill(&ctx(i, i));
            c.access(&ctx(i, 10 + i)); // all promoted to RRPV 0
        }
        // All at RRPV 0: victim selection must age and pick way 0.
        let evicted = c.fill(&ctx(100, 20));
        assert_eq!(evicted, Some(TaggedBlock::untagged(BlockAddr::new(0))));
    }

    #[test]
    fn scan_prefers_lowest_way() {
        assert_eq!(SrripPolicy::victim_scan(&[3, 3, 1]), Some(0));
        assert_eq!(SrripPolicy::victim_scan(&[1, 3, 3]), Some(1));
        assert_eq!(SrripPolicy::victim_scan(&[1, 1, 1]), None);
    }

    #[test]
    fn peek_selects_highest_rrpv() {
        let geom = CacheGeometry::from_sets_ways(1, 3);
        let mut p = SrripPolicy::new(geom);
        let blocks: Vec<TaggedBlock> = (0..3)
            .map(|b| TaggedBlock::untagged(BlockAddr::new(b)))
            .collect();
        p.on_fill(0, 0, &ctx(0, 0));
        p.on_fill(0, 1, &ctx(1, 1));
        p.on_fill(0, 2, &ctx(2, 2));
        p.on_hit(0, 1, &ctx(1, 3));
        let peek = p.peek_victim(0, &blocks, &ctx(9, 4));
        assert_eq!(peek, 0); // ways 0 and 2 tie at RRPV 2; lowest way wins
    }
}
