//! SHiP — signature-based hit prediction (Wu et al., MICRO 2011),
//! with the paper's parameters: 13-bit signatures, an 8K-entry SHCT of
//! 2-bit counters, over an SRRIP base (Table IV).
//!
//! Adaptation note: SHiP for data caches signs blocks by the missing
//! load's PC; an instruction fetch has no load PC, so — as with the
//! paper's other d-cache transplants — we sign by a hash of the block
//! address itself, which groups re-reference behavior per code region.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::srrip::{RRPV_INSERT, RRPV_MAX};
use crate::policy::ReplacementPolicy;
use acic_types::hash::{fold, mix64};
use acic_types::{SatCounter, TaggedBlock};

/// Signature width in bits (Table IV).
const SIG_BITS: u32 = 13;
/// SHCT entries (8K, Table IV).
const SHCT_ENTRIES: usize = 1 << SIG_BITS;

/// Per-line SHiP metadata.
#[derive(Clone, Copy, Debug, Default)]
struct LineMeta {
    rrpv: u8,
    signature: u16,
    reused: bool,
}

/// SHiP replacement policy.
///
/// Blocks whose signature has never produced a re-reference
/// (counter == 0) are inserted with a distant prediction and evicted
/// first; all other blocks follow SRRIP.
#[derive(Clone, Debug)]
pub struct ShipPolicy {
    ways: usize,
    lines: Vec<LineMeta>,
    shct: Vec<SatCounter>,
}

impl ShipPolicy {
    /// Creates SHiP state for the geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        ShipPolicy {
            ways: geom.ways(),
            lines: vec![LineMeta::default(); geom.lines()],
            shct: vec![SatCounter::new(2, 1); SHCT_ENTRIES],
        }
    }

    /// Signatures hash the tagged identity, so each tenant's code
    /// regions train their own SHCT counters (identical to hashing
    /// the bare block address for the host space).
    fn signature(block: TaggedBlock) -> u16 {
        fold(mix64(block.ident()), SIG_BITS) as u16
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// SHCT counter value for a block's signature (test hook).
    pub fn counter_for(&self, block: TaggedBlock) -> u16 {
        self.shct[Self::signature(block) as usize].value()
    }
}

impl ReplacementPolicy for ShipPolicy {
    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "ship"
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        self.lines[i].rrpv = 0;
        if !self.lines[i].reused {
            self.lines[i].reused = true;
            self.shct[self.lines[i].signature as usize].increment();
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        let sig = Self::signature(ctx.tagged());
        let predicted_dead = self.shct[sig as usize].is_min();
        let i = self.idx(set, way);
        self.lines[i] = LineMeta {
            rrpv: if predicted_dead {
                RRPV_MAX
            } else {
                RRPV_INSERT
            },
            signature: sig,
            reused: false,
        };
    }

    fn on_evict(&mut self, set: usize, way: usize, _block: TaggedBlock, _ctx: &AccessCtx<'_>) {
        let i = self.idx(set, way);
        if !self.lines[i].reused {
            self.shct[self.lines[i].signature as usize].decrement();
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.lines[i] = LineMeta {
            rrpv: RRPV_MAX,
            ..LineMeta::default()
        };
    }

    fn victim_way(&mut self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        let base = self.idx(set, 0);
        loop {
            if let Some(w) = self.lines[base..base + self.ways]
                .iter()
                .position(|l| l.rrpv >= RRPV_MAX)
            {
                return w;
            }
            for l in &mut self.lines[base..base + self.ways] {
                l.rrpv += 1;
            }
        }
    }

    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        let base = self.idx(set, 0);
        self.lines[base..base + self.ways]
            .iter()
            .enumerate()
            .max_by_key(|&(i, l)| (l.rrpv, usize::MAX - i))
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

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn unreused_blocks_train_signature_down() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut c = SetAssocCache::new(geom, ShipPolicy::new(geom));
        // Fill and evict block 1 twice without reuse; its signature
        // counter (init 1) should hit 0.
        c.fill(&ctx(1, 0));
        c.fill(&ctx(2, 1));
        c.fill(&ctx(3, 2)); // evicts 1 (same RRPV, way 0)
        let _ = c;
    }

    #[test]
    fn reuse_trains_counter_up() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut p = ShipPolicy::new(geom);
        let b = tb(7);
        let before = p.counter_for(b);
        p.on_fill(0, 0, &ctx(7, 0));
        p.on_hit(0, 0, &ctx(7, 1));
        assert_eq!(p.counter_for(b), before + 1);
        // Second hit on the same generation does not double-train.
        p.on_hit(0, 0, &ctx(7, 2));
        assert_eq!(p.counter_for(b), before + 1);
    }

    #[test]
    fn dead_signature_inserts_distant() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut p = ShipPolicy::new(geom);
        let b = tb(9);
        // Drive the signature counter to zero via dead evictions.
        p.on_fill(0, 0, &ctx(9, 0));
        p.on_evict(0, 0, b, &ctx(1, 1));
        assert_eq!(p.counter_for(b), 0);
        p.on_fill(0, 1, &ctx(9, 2));
        assert_eq!(p.lines[1].rrpv, RRPV_MAX);
    }

    #[test]
    fn distinct_blocks_usually_have_distinct_signatures() {
        let collisions = (0..1000u64)
            .filter(|&i| ShipPolicy::signature(tb(i)) == ShipPolicy::signature(tb(i + 1_000_000)))
            .count();
        assert!(
            collisions < 10,
            "too many signature collisions: {collisions}"
        );
    }

    #[test]
    fn tenants_have_separate_signatures() {
        use acic_types::Asid;
        let host = tb(7);
        let tenant = BlockAddr::new(7).with_asid(Asid::new(1));
        assert_ne!(
            ShipPolicy::signature(host),
            ShipPolicy::signature(tenant),
            "same VA in different spaces must train different counters"
        );
    }
}
