//! The set-associative tag store.
//!
//! [`SetAssocCache`] models contents only (tags + policy metadata);
//! timing (latencies, MSHRs) lives in `acic-sim`. The replacement
//! policy is stored inline as an enum ([`AnyPolicy`]) so the
//! per-access hooks dispatch through an inlinable `match` instead of a
//! vtable; each policy owns its per-line metadata. The fill and
//! contender paths assemble candidate lists in fixed stack buffers —
//! the tag-store hot loop performs no heap allocation.
//!
//! Lines are identified by [`TaggedBlock`]: the virtual block address
//! *plus* the address space it belongs to. Set indexing uses the
//! block-address bits (VIPT-style); the ASID participates in tag
//! match, so two tenants' overlapping virtual addresses coexist
//! without aliasing. The host space (ASID 0) is bit-identical to the
//! pre-ASID behavior. [`SetAssocCache::flush`] supports the no-ASID
//! baseline that must invalidate everything on a context switch.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::{AnyPolicy, ReplacementPolicy};
use crate::stats::CacheStats;
use acic_types::{Asid, BlockAddr, TaggedBlock};

/// Sentinel ident marking an invalid line. Unreachable by real
/// identities: block addresses are byte addresses shifted right by 6,
/// so bits 58..64 of a block (and therefore of its ident, whose top
/// 16 bits only XOR in a 16-bit ASID at bit 48) can never all be set.
/// Asserted on every fill in debug builds.
const INVALID_IDENT: u64 = u64::MAX;

/// Host-side prefetch hint (no-op off x86_64): warm loops use this to
/// overlap the simulated tag arrays' memory latency instead of paying
/// serial dependent misses.
#[inline(always)]
pub(crate) fn host_prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Upper bound on associativity supported by the stack scratch
/// buffers. The 16-way L3 is the widest geometry currently built on
/// this tag store (the L1i organizations top out at 9-way); widen
/// this constant before adding a higher-associativity sweep point —
/// construction panics past the bound.
pub const MAX_WAYS: usize = 16;

/// A set-associative cache of 64 B blocks with a pluggable
/// replacement policy.
///
/// # Examples
///
/// ```
/// use acic_cache::{AccessCtx, CacheGeometry, SetAssocCache};
/// use acic_cache::policy::lru::LruPolicy;
/// use acic_types::BlockAddr;
///
/// let geom = CacheGeometry::from_sets_ways(2, 2);
/// let mut c = SetAssocCache::new(geom, LruPolicy::new(geom));
/// // Fill both ways of set 0, then a third block evicts the LRU one.
/// for (i, b) in [0u64, 2, 4].iter().enumerate() {
///     let ctx = AccessCtx::demand(BlockAddr::new(*b), i as u64);
///     assert!(!c.access(&ctx));
///     c.fill(&ctx);
/// }
/// assert!(!c.contains(BlockAddr::new(0))); // evicted
/// assert!(c.contains(BlockAddr::new(2)));
/// assert!(c.contains(BlockAddr::new(4)));
/// ```
#[derive(Clone)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    /// Flattened line identities ([`TaggedBlock::ident`]), one `u64`
    /// per line with [`INVALID_IDENT`] marking empty ways — the hot
    /// find loop is a single-word scan, exactly as wide as the
    /// pre-ASID tag array.
    ids: Vec<u64>,
    /// Raw ASID per line; confirms a matching ident (soundness for
    /// pathological block addresses) and reconstructs the block on
    /// eviction.
    asids: Vec<u16>,
    /// Per-set memo of the most recently hit/filled way. Purely a
    /// probe accelerator: the memoized way's identity is re-verified
    /// on every use, so a stale memo (after invalidate/flush or an
    /// eviction that retargeted the way) costs one extra compare and
    /// nothing else. Run-batched loops revisiting a block shortly
    /// after its last touch skip the full way scan.
    mru: Vec<u8>,
    policy: AnyPolicy,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given policy. Accepts any
    /// concrete policy type, an [`AnyPolicy`], or a boxed trait object
    /// (the reference dispatch path).
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds [`MAX_WAYS`].
    pub fn new(geom: CacheGeometry, policy: impl Into<AnyPolicy>) -> Self {
        assert!(
            geom.ways() <= MAX_WAYS,
            "associativity {} exceeds MAX_WAYS ({MAX_WAYS})",
            geom.ways()
        );
        SetAssocCache {
            geom,
            ids: vec![INVALID_IDENT; geom.lines()],
            asids: vec![0; geom.lines()],
            mru: vec![0; geom.sets()],
            policy: policy.into(),
            stats: CacheStats::default(),
        }
    }

    /// The tagged identity stored in line `i`, if valid.
    #[inline]
    fn line(&self, i: usize) -> Option<TaggedBlock> {
        (self.ids[i] != INVALID_IDENT)
            .then(|| TaggedBlock::from_ident(self.ids[i], Asid::new(self.asids[i])))
    }

    /// Scans one set (lines `base..base+ways`) for identity `t`.
    /// Single-word ident compare per way; the ASID confirm only runs
    /// on an ident match (idents already fold the ASID in, so a
    /// cross-space false positive needs a block address above 2^48
    /// blocks — the scan resumes past it regardless).
    // Written as an explicit loop (not `Iterator::find`) so the
    // ident compare stays a straight single-word scan in the
    // generated code; this is the hottest loop in the workspace.
    #[allow(clippy::manual_find)]
    #[inline(always)]
    fn scan(&self, base: usize, t: TaggedBlock) -> Option<usize> {
        let ways = self.geom.ways();
        let id = t.ident();
        let asid = t.asid.raw();
        let ids = &self.ids[base..base + ways];
        let asids = &self.asids[base..base + ways];
        for w in 0..ways {
            if ids[w] == id && asids[w] == asid {
                return Some(w);
            }
        }
        None
    }

    #[inline]
    fn store_line(&mut self, i: usize, t: TaggedBlock) {
        debug_assert_ne!(t.ident(), INVALID_IDENT, "block collides with sentinel");
        self.ids[i] = t.ident();
        self.asids[i] = t.asid.raw();
    }

    /// Geometry of the cache.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Name of the replacement policy driving this cache.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Way holding `block`, if present. Tag match compares the full
    /// tagged identity — same virtual address, different ASID is a
    /// miss.
    #[inline]
    pub fn find(&self, block: impl Into<TaggedBlock>) -> Option<usize> {
        let t = block.into();
        let set = self.geom.set_of_tagged(t);
        self.scan(self.geom.line_index(set, 0), t)
    }

    /// Whether `block` is resident (no state change).
    pub fn contains(&self, block: impl Into<TaggedBlock>) -> bool {
        self.find(block).is_some()
    }

    /// MRU-way memo probe: re-verify the last hit/filled way before
    /// paying the full scan (repeated-set hits short-circuit; a stale
    /// memo costs one compare and falls through to the scan).
    #[inline(always)]
    fn scan_with_memo(&self, set: usize, base: usize, t: TaggedBlock) -> Option<usize> {
        let m = self.mru[set] as usize;
        if self.ids[base + m] == t.ident() && self.asids[base + m] == t.asid.raw() {
            Some(m)
        } else {
            self.scan(base, t)
        }
    }

    /// Performs an access; returns `true` on hit. On hit the policy's
    /// recency/prediction state is updated; on miss the policy
    /// observes the miss but no fill happens (call
    /// [`SetAssocCache::fill`] once the block arrives).
    // `inline(always)`: the pre-ASID build inlined `access` and
    // `fill` into every simulation loop; once the tagged-identity
    // refactor grew their bodies past LLVM's hint threshold the
    // out-of-line calls cost ~25-40% of single-tenant throughput
    // (measured with the since-retired throughput baseline). Forcing
    // the old inlining restores it.
    #[inline(always)]
    pub fn access(&mut self, ctx: &AccessCtx<'_>) -> bool {
        let t = ctx.tagged();
        let set = self.geom.set_of_tagged(t);
        let base = self.geom.line_index(set, 0);
        let hit = match self.scan_with_memo(set, base, t) {
            Some(way) => {
                self.mru[set] = way as u8;
                self.policy.on_hit(set, way, ctx);
                true
            }
            None => {
                self.policy.on_miss(set, ctx);
                false
            }
        };
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.record_prefetch(hit);
            } else {
                self.stats.record_demand(hit);
            }
        }
        hit
    }

    /// Inserts `ctx`'s tagged block, evicting a victim if the set is
    /// full. Returns the evicted identity, if any.
    ///
    /// Filling a block that is already resident is treated as a
    /// policy touch and returns `None`.
    #[inline(always)]
    pub fn fill(&mut self, ctx: &AccessCtx<'_>) -> Option<TaggedBlock> {
        let t = ctx.tagged();
        let set = self.geom.set_of_tagged(t);
        let base0 = self.geom.line_index(set, 0);
        if let Some(way) = self.scan(base0, t) {
            // Duplicate fill (e.g. prefetch raced a demand miss).
            self.mru[set] = way as u8;
            self.policy.on_hit(set, way, ctx);
            return None;
        }
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.prefetch_fills += 1;
            } else {
                self.stats.demand_fills += 1;
            }
        }
        let base = base0;
        // Prefer an invalid way.
        let ways = self.geom.ways();
        if let Some(way) = self.ids[base..base + ways]
            .iter()
            .position(|&v| v == INVALID_IDENT)
        {
            self.store_line(base + way, t);
            self.mru[set] = way as u8;
            self.policy.on_fill(set, way, ctx);
            return None;
        }
        let mut blocks = [TaggedBlock::untagged(BlockAddr::new(0)); MAX_WAYS];
        let candidates: &[TaggedBlock] = if self.policy.wants_victim_blocks() {
            for (w, slot) in blocks[..ways].iter_mut().enumerate() {
                *slot = self.line(base + w).expect("all ways valid");
            }
            &blocks[..ways]
        } else {
            // Metadata-only policies never read the candidate list;
            // skip reconstructing `ways` tagged identities per fill.
            &[]
        };
        let way = self.policy.victim_way(set, candidates, ctx);
        debug_assert!(way < self.geom.ways(), "policy returned invalid way");
        let evicted = self.line(base + way).expect("victim way valid");
        self.policy.on_evict(set, way, evicted, ctx);
        if ctx.stats_enabled {
            self.stats.evictions += 1;
        }
        self.store_line(base + way, t);
        self.mru[set] = way as u8;
        self.policy.on_fill(set, way, ctx);
        Some(evicted)
    }

    /// Hints the CPU to pull the set's tag words for `block` into
    /// host cache — warm loops issue this a step ahead of the probe
    /// so the (simulated-)L2/L3 array walk overlaps useful work.
    /// No-op off x86_64.
    #[inline]
    pub fn prefetch_set(&self, block: impl Into<TaggedBlock>) {
        let t = block.into();
        let set = self.geom.set_of_tagged(t);
        let base = self.geom.line_index(set, 0);
        host_prefetch(&self.ids[base]);
        self.policy.prefetch_hint(set);
    }

    /// Warm-path fused probe-or-fill: one set scan decides hit or
    /// miss; a hit touches the policy, a miss installs the block
    /// immediately (victim chosen as usual). Returns whether it hit.
    ///
    /// Statistics never move — this is the sampled engine's warming
    /// primitive, equivalent to a quiet `access` + `fill` pair but
    /// without the second scan the separate fill would pay. Not for
    /// use on timing paths: fills there happen when the block
    /// *arrives*, not when it is requested.
    #[inline]
    pub fn warm_touch(&mut self, block: impl Into<TaggedBlock>) -> bool {
        let t = block.into();
        let set = self.geom.set_of_tagged(t);
        let base = self.geom.line_index(set, 0);
        let ctx = AccessCtx::demand_tagged(t, 0).quiet();
        if let Some(way) = self.scan_with_memo(set, base, t) {
            self.mru[set] = way as u8;
            self.policy.on_hit(set, way, &ctx);
            return true;
        }
        self.policy.on_miss(set, &ctx);
        let ways = self.geom.ways();
        if let Some(way) = self.ids[base..base + ways]
            .iter()
            .position(|&v| v == INVALID_IDENT)
        {
            self.store_line(base + way, t);
            self.mru[set] = way as u8;
            self.policy.on_fill(set, way, &ctx);
            return false;
        }
        let mut blocks = [TaggedBlock::untagged(BlockAddr::new(0)); MAX_WAYS];
        let candidates: &[TaggedBlock] = if self.policy.wants_victim_blocks() {
            for (w, slot) in blocks[..ways].iter_mut().enumerate() {
                *slot = self.line(base + w).expect("all ways valid");
            }
            &blocks[..ways]
        } else {
            &[]
        };
        let way = self.policy.victim_way(set, candidates, &ctx);
        let evicted = self.line(base + way).expect("victim way valid");
        self.policy.on_evict(set, way, evicted, &ctx);
        self.store_line(base + way, t);
        self.mru[set] = way as u8;
        self.policy.on_fill(set, way, &ctx);
        false
    }

    /// The block the policy would evict if `ctx`'s block were filled
    /// now — the paper's *contender block*. Returns `None` while the
    /// set still has invalid ways (no contender; admission is free).
    pub fn contender(&self, ctx: &AccessCtx<'_>) -> Option<TaggedBlock> {
        let set = self.geom.set_of_tagged(ctx.tagged());
        let base = self.geom.line_index(set, 0);
        let ways = self.geom.ways();
        let way = if self.policy.wants_victim_blocks() {
            let mut blocks = [TaggedBlock::untagged(BlockAddr::new(0)); MAX_WAYS];
            for (w, slot) in blocks[..ways].iter_mut().enumerate() {
                *slot = self.line(base + w)?;
            }
            self.policy.peek_victim(set, &blocks[..ways], ctx)
        } else {
            // Metadata-only policy: just confirm every way is valid
            // (an invalid way means no contender) without
            // materializing the identities.
            if self.ids[base..base + ways].contains(&INVALID_IDENT) {
                return None;
            }
            self.policy.peek_victim(set, &[], ctx)
        };
        self.line(base + way)
    }

    /// Removes `block` if resident; returns whether it was present.
    pub fn invalidate(&mut self, block: impl Into<TaggedBlock>) -> bool {
        let t = block.into();
        if let Some(way) = self.find(t) {
            let set = self.geom.set_of_tagged(t);
            self.ids[self.geom.line_index(set, way)] = INVALID_IDENT;
            self.policy.on_invalidate(set, way);
            true
        } else {
            false
        }
    }

    /// Invalidates every line (the no-ASID context-switch baseline:
    /// a switch guts the whole cache). Returns the number of valid
    /// lines dropped. The policy observes each invalidation so its
    /// per-line metadata resets with the tags.
    pub fn flush(&mut self) -> usize {
        let mut dropped = 0;
        for set in 0..self.geom.sets() {
            for way in 0..self.geom.ways() {
                let i = self.geom.line_index(set, way);
                if self.ids[i] != INVALID_IDENT {
                    self.ids[i] = INVALID_IDENT;
                    self.policy.on_invalidate(set, way);
                    dropped += 1;
                }
            }
        }
        self.stats.flushed_lines += dropped as u64;
        dropped
    }

    /// All resident blocks, lazily (line order). Prefer this over
    /// [`SetAssocCache::resident_blocks`] in per-access loops — it
    /// materializes nothing.
    pub fn iter_resident(&self) -> impl Iterator<Item = TaggedBlock> + '_ {
        (0..self.geom.lines()).filter_map(|i| self.line(i))
    }

    /// Blocks resident in one set, lazily (way order).
    pub fn iter_set_blocks(&self, set: usize) -> impl Iterator<Item = TaggedBlock> + '_ {
        let base = self.geom.line_index(set, 0);
        (0..self.geom.ways()).filter_map(move |w| self.line(base + w))
    }

    /// All resident blocks (for tests and invariant checks); allocates
    /// — see [`SetAssocCache::iter_resident`] for warm paths.
    pub fn resident_blocks(&self) -> Vec<TaggedBlock> {
        self.iter_resident().collect()
    }

    /// Blocks resident in one set (for tests); allocates — see
    /// [`SetAssocCache::iter_set_blocks`] for warm paths.
    pub fn set_blocks(&self, set: usize) -> Vec<TaggedBlock> {
        self.iter_set_blocks(set).collect()
    }
}

impl core::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geometry", &self.geom)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::lru::LruPolicy;
    use acic_types::Asid;

    fn small() -> SetAssocCache {
        let geom = CacheGeometry::from_sets_ways(4, 2);
        SetAssocCache::new(geom, LruPolicy::new(geom))
    }

    fn ctx(block: u64, idx: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(block), idx)
    }

    fn tb(block: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(block))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(&ctx(1, 0)));
        c.fill(&ctx(1, 0));
        assert!(c.access(&ctx(1, 1)));
        assert_eq!(c.stats().demand_accesses, 2);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn no_duplicate_blocks_in_set() {
        let mut c = small();
        c.fill(&ctx(4, 0));
        c.fill(&ctx(4, 1)); // duplicate fill ignored
        assert_eq!(c.resident_blocks().len(), 1);
    }

    #[test]
    fn eviction_only_when_set_full() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        assert_eq!(c.fill(&ctx(0, 0)), None);
        assert_eq!(c.fill(&ctx(4, 1)), None);
        let evicted = c.fill(&ctx(8, 2));
        assert_eq!(evicted, Some(tb(0)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn contender_is_lru_block() {
        let mut c = small();
        c.fill(&ctx(0, 0));
        assert_eq!(c.contender(&ctx(8, 1)), None); // invalid way remains
        c.fill(&ctx(4, 1));
        // Touch block 0 making block 4 the LRU.
        c.access(&ctx(0, 2));
        assert_eq!(c.contender(&ctx(8, 3)), Some(tb(4)));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small();
        c.fill(&ctx(3, 0));
        assert!(c.invalidate(BlockAddr::new(3)));
        assert!(!c.contains(BlockAddr::new(3)));
        assert!(!c.invalidate(BlockAddr::new(3)));
    }

    #[test]
    fn quiet_access_learns_without_counting() {
        let mut c = small();
        assert!(!c.access(&ctx(1, 0).quiet()));
        c.fill(&ctx(1, 0).quiet());
        assert_eq!(*c.stats(), CacheStats::default(), "warmup is uncounted");
        // The quiet fill still installed the line and trained LRU: a
        // counted access now hits.
        assert!(c.access(&ctx(1, 1)));
        assert_eq!(c.stats().demand_accesses, 1);
        assert_eq!(c.stats().demand_misses, 0);
    }

    #[test]
    fn quiet_eviction_is_uncounted() {
        let mut c = small();
        c.fill(&ctx(0, 0));
        c.fill(&ctx(4, 1));
        assert!(c.fill(&ctx(8, 2).quiet()).is_some(), "eviction happens");
        assert_eq!(c.stats().evictions, 0, "but is not recorded");
    }

    #[test]
    fn prefetch_stats_are_separate() {
        let mut c = small();
        let p = AccessCtx::prefetch(BlockAddr::new(9), 0);
        assert!(!c.access(&p));
        c.fill(&p);
        assert_eq!(c.stats().prefetch_misses, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().demand_accesses, 0);
    }

    #[test]
    fn same_virtual_address_different_asid_does_not_hit() {
        let mut c = small();
        c.fill(&ctx(1, 0));
        // Tenant 1 fetches the same VA: different identity, must miss.
        let tenant = ctx(1, 1).with_asid(Asid::new(1));
        assert!(!c.access(&tenant));
        c.fill(&tenant);
        // Both identities now coexist in the same set.
        assert!(c.contains(BlockAddr::new(1)));
        assert!(c.contains(BlockAddr::new(1).with_asid(Asid::new(1))));
        assert_eq!(c.set_blocks(1).len(), 2);
    }

    #[test]
    fn flush_drops_everything_and_counts() {
        let mut c = small();
        c.fill(&ctx(0, 0));
        c.fill(&ctx(1, 1));
        c.fill(&ctx(2, 2));
        assert_eq!(c.flush(), 3);
        assert!(c.resident_blocks().is_empty());
        assert_eq!(c.stats().flushed_lines, 3);
        // Post-flush behavior is a cold cache.
        assert!(!c.access(&ctx(0, 3)));
        assert_eq!(c.flush(), 0);
    }

    #[test]
    fn evicted_identity_carries_asid() {
        let geom = CacheGeometry::from_sets_ways(1, 1);
        let mut c = SetAssocCache::new(geom, LruPolicy::new(geom));
        let tenant = ctx(5, 0).with_asid(Asid::new(3));
        c.fill(&tenant);
        let evicted = c.fill(&ctx(9, 1)).expect("way was full");
        assert_eq!(evicted, BlockAddr::new(5).with_asid(Asid::new(3)));
    }
}
