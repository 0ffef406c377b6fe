//! Random replacement — a sanity baseline used in tests and ablations.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_types::hash::SplitMix64;
use acic_types::TaggedBlock;

/// Uniform-random victim selection (deterministic per seed).
///
/// `peek_victim` derives its choice from the access context rather
/// than the PRNG stream so that peeking never perturbs replacement
/// decisions; consequently a peek may differ from the subsequent
/// `victim_way` draw. Random is never used as an ACIC contender
/// provider, so this is acceptable and documented.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    ways: usize,
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates a seeded random policy.
    pub fn new(geom: CacheGeometry, seed: u64) -> Self {
        RandomPolicy {
            ways: geom.ways(),
            rng: SplitMix64::new(seed),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx<'_>) {}

    fn on_fill(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx<'_>) {}

    fn victim_way(&mut self, _set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        self.rng.next_below(self.ways as u64) as usize
    }

    fn peek_victim(&self, _set: usize, _blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        // Hash the tagged identity so peeks stay per-tenant stable
        // (identical to the raw block address for the host space).
        (acic_types::hash::mix64(ctx.ident()) % self.ways as u64) as usize
    }

    fn wants_victim_blocks(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    fn blocks(n: u64) -> Vec<TaggedBlock> {
        (0..n)
            .map(|b| TaggedBlock::untagged(BlockAddr::new(b)))
            .collect()
    }

    #[test]
    fn victims_cover_all_ways() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut p = RandomPolicy::new(geom, 3);
        let blocks = blocks(4);
        let ctx = AccessCtx::demand(BlockAddr::new(9), 0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.victim_way(0, &blocks, &ctx)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_per_seed() {
        let geom = CacheGeometry::from_sets_ways(1, 8);
        let blocks = blocks(8);
        let ctx = AccessCtx::demand(BlockAddr::new(9), 0);
        let mut a = RandomPolicy::new(geom, 42);
        let mut b = RandomPolicy::new(geom, 42);
        for _ in 0..50 {
            assert_eq!(
                a.victim_way(0, &blocks, &ctx),
                b.victim_way(0, &blocks, &ctx)
            );
        }
    }

    #[test]
    fn peek_is_stable() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let p = RandomPolicy::new(geom, 1);
        let blocks = blocks(4);
        let ctx = AccessCtx::demand(BlockAddr::new(7), 0);
        assert_eq!(
            p.peek_victim(0, &blocks, &ctx),
            p.peek_victim(0, &blocks, &ctx)
        );
    }
}
