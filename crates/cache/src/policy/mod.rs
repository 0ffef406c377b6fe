//! Replacement policies.
//!
//! Every policy the paper compares against (Table IV) plus the
//! baseline: [`lru`], [`random`], [`srrip`], [`ship`], [`hawkeye`]
//! (with the prefetch-aware Harmony variant), [`ghrp`], [`slru`]
//! (DSB's segmented LRU), and the oracle [`opt`].
//!
//! Policies are object-safe: each owns its per-line metadata, sized at
//! construction from the [`CacheGeometry`], and reacts to the hooks in
//! [`ReplacementPolicy`].

pub mod ghrp;
pub mod hawkeye;
pub mod lru;
pub mod opt;
pub mod random;
pub mod ship;
pub mod slru;
pub mod srrip;

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use acic_types::TaggedBlock;

/// Hooks a replacement policy implements.
///
/// The cache calls `on_hit` / `on_miss` for every access, `victim_way`
/// when a fill needs to evict (all ways valid), `on_evict` just before
/// the victim leaves, and `on_fill` after the new block is placed.
/// `peek_victim` must be side-effect free; it exists so admission
/// mechanisms can ask "who would you evict?" without committing
/// (the paper's *contender block* query).
///
/// Blocks are [`TaggedBlock`] identities: policies that hash or key
/// on block identity must use [`TaggedBlock::ident`] (or
/// [`AccessCtx::ident`]) so tenants learn separately — the hash is
/// unchanged for the host space.
pub trait ReplacementPolicy: Send {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// A deep copy behind a fresh box: the replacement state of a
    /// forked simulator checkpoint.
    fn clone_box(&self) -> Box<dyn ReplacementPolicy>;

    /// A resident block was accessed.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>);

    /// A block was placed into `way` (previous occupant already
    /// evicted).
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>);

    /// An access missed in `set` (no fill yet).
    fn on_miss(&mut self, _set: usize, _ctx: &AccessCtx<'_>) {}

    /// `block` is about to be evicted from `way`.
    fn on_evict(&mut self, _set: usize, _way: usize, _block: TaggedBlock, _ctx: &AccessCtx<'_>) {}

    /// A line was invalidated outside the fill path.
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    /// Chooses the way to evict; `blocks[w]` is the block in way `w`
    /// (all valid). May update policy state (e.g. RRIP aging).
    fn victim_way(&mut self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize;

    /// Side-effect-free preview of [`ReplacementPolicy::victim_way`].
    fn peek_victim(&self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize;

    /// Host-side prefetch hint for the policy's per-set metadata
    /// (warm loops overlap the simulated arrays' memory latency).
    /// Default no-op.
    fn prefetch_hint(&self, _set: usize) {}

    /// Whether [`ReplacementPolicy::victim_way`]/`peek_victim`
    /// actually read the `blocks` slice. Policies that pick victims
    /// from their own metadata alone (LRU, random, RRIP counters)
    /// return `false`, letting the tag store skip materializing the
    /// per-way block list on every eviction — a measurable share of
    /// the simulated-miss hot path. Defaults to `true` (safe for any
    /// policy that inspects candidate blocks, e.g. OPT).
    fn wants_victim_blocks(&self) -> bool {
        true
    }
}

/// Runtime-selectable policy constructors.
///
/// # Examples
///
/// ```
/// use acic_cache::policy::ReplacementPolicy;
/// use acic_cache::{CacheGeometry, PolicyKind};
///
/// let geom = CacheGeometry::l1i_32k();
/// let policy = PolicyKind::Lru.build(geom);
/// assert_eq!(policy.name(), "lru");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least recently used (the paper's baseline).
    Lru,
    /// Uniform random victim (seeded).
    Random {
        /// PRNG seed.
        seed: u64,
    },
    /// Static re-reference interval prediction, 2-bit RRPV.
    Srrip,
    /// Signature-based hit prediction over SRRIP.
    Ship,
    /// Hawkeye (OPTgen-trained). `prefetch_aware` selects the Harmony
    /// variant used when a prefetcher is active.
    Hawkeye {
        /// Train prefetch and demand signatures separately (Harmony).
        prefetch_aware: bool,
    },
    /// Global-history reuse prediction for i-caches.
    Ghrp,
    /// Segmented LRU (DSB's base policy).
    Slru,
    /// Belady's OPT via the reuse oracle (requires `ctx.next_use`).
    Opt,
}

impl PolicyKind {
    /// Builds an enum-dispatched policy instance for the given
    /// geometry. This is the hot-path constructor: the cache stores
    /// the returned [`AnyPolicy`] inline and every hook call resolves
    /// through a `match` that the compiler can inline, instead of a
    /// vtable load.
    pub fn build(self, geom: CacheGeometry) -> AnyPolicy {
        match self {
            PolicyKind::Lru => AnyPolicy::Lru(lru::LruPolicy::new(geom)),
            PolicyKind::Random { seed } => AnyPolicy::Random(random::RandomPolicy::new(geom, seed)),
            PolicyKind::Srrip => AnyPolicy::Srrip(srrip::SrripPolicy::new(geom)),
            PolicyKind::Ship => AnyPolicy::Ship(ship::ShipPolicy::new(geom)),
            PolicyKind::Hawkeye { prefetch_aware } => {
                AnyPolicy::Hawkeye(hawkeye::HawkeyePolicy::new(geom, prefetch_aware))
            }
            PolicyKind::Ghrp => AnyPolicy::Ghrp(ghrp::GhrpPolicy::new(geom)),
            PolicyKind::Slru => AnyPolicy::Slru(slru::SlruPolicy::new(geom)),
            PolicyKind::Opt => AnyPolicy::Opt(opt::OptPolicy::new(geom)),
        }
    }

    /// Builds the same policy behind a trait object.
    ///
    /// Kept for equivalence testing (the devirtualized enum dispatch
    /// must behave bit-identically to boxed dispatch) and as the
    /// naive-baseline construction for throughput benchmarks.
    pub fn build_boxed(self, geom: CacheGeometry) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(lru::LruPolicy::new(geom)),
            PolicyKind::Random { seed } => Box::new(random::RandomPolicy::new(geom, seed)),
            PolicyKind::Srrip => Box::new(srrip::SrripPolicy::new(geom)),
            PolicyKind::Ship => Box::new(ship::ShipPolicy::new(geom)),
            PolicyKind::Hawkeye { prefetch_aware } => {
                Box::new(hawkeye::HawkeyePolicy::new(geom, prefetch_aware))
            }
            PolicyKind::Ghrp => Box::new(ghrp::GhrpPolicy::new(geom)),
            PolicyKind::Slru => Box::new(slru::SlruPolicy::new(geom)),
            PolicyKind::Opt => Box::new(opt::OptPolicy::new(geom)),
        }
    }

    /// Report label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random { .. } => "Random",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Ship => "SHiP",
            PolicyKind::Hawkeye {
                prefetch_aware: true,
            } => "Harmony",
            PolicyKind::Hawkeye {
                prefetch_aware: false,
            } => "Hawkeye",
            PolicyKind::Ghrp => "GHRP",
            PolicyKind::Slru => "SLRU",
            PolicyKind::Opt => "OPT",
        }
    }
}

/// Enum-dispatched replacement policy.
///
/// [`SetAssocCache`](crate::SetAssocCache) stores one of these inline,
/// so the per-access policy hooks (`on_hit`, `on_fill`, `victim_way`,
/// …) compile to a direct `match` over concrete types that the
/// optimizer can inline into the tag-store loop — no vtable dispatch,
/// no heap indirection. The [`AnyPolicy::Boxed`] variant preserves the
/// old trait-object path for equivalence tests and naive-baseline
/// benchmarks.
#[derive(Clone)]
pub enum AnyPolicy {
    /// Least recently used.
    Lru(lru::LruPolicy),
    /// Seeded uniform random.
    Random(random::RandomPolicy),
    /// Static RRIP.
    Srrip(srrip::SrripPolicy),
    /// SHiP.
    Ship(ship::ShipPolicy),
    /// Hawkeye / Harmony.
    Hawkeye(hawkeye::HawkeyePolicy),
    /// GHRP.
    Ghrp(ghrp::GhrpPolicy),
    /// Segmented LRU.
    Slru(slru::SlruPolicy),
    /// Belady OPT.
    Opt(opt::OptPolicy),
    /// Legacy trait-object dispatch (reference/testing path).
    Boxed(Box<dyn ReplacementPolicy>),
}

impl Clone for Box<dyn ReplacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $e,
            AnyPolicy::Random($p) => $e,
            AnyPolicy::Srrip($p) => $e,
            AnyPolicy::Ship($p) => $e,
            AnyPolicy::Hawkeye($p) => $e,
            AnyPolicy::Ghrp($p) => $e,
            AnyPolicy::Slru($p) => $e,
            AnyPolicy::Opt($p) => $e,
            AnyPolicy::Boxed($p) => $e,
        }
    };
}

impl ReplacementPolicy for AnyPolicy {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        dispatch!(self, p => p.on_hit(set, way, ctx))
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        dispatch!(self, p => p.on_fill(set, way, ctx))
    }

    #[inline]
    fn on_miss(&mut self, set: usize, ctx: &AccessCtx<'_>) {
        dispatch!(self, p => p.on_miss(set, ctx))
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, block: TaggedBlock, ctx: &AccessCtx<'_>) {
        dispatch!(self, p => p.on_evict(set, way, block, ctx))
    }

    #[inline]
    fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way))
    }

    #[inline]
    fn victim_way(&mut self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        dispatch!(self, p => p.victim_way(set, blocks, ctx))
    }

    #[inline]
    fn peek_victim(&self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        dispatch!(self, p => p.peek_victim(set, blocks, ctx))
    }

    #[inline]
    fn wants_victim_blocks(&self) -> bool {
        dispatch!(self, p => p.wants_victim_blocks())
    }

    #[inline]
    fn prefetch_hint(&self, set: usize) {
        dispatch!(self, p => p.prefetch_hint(set))
    }
}

impl core::fmt::Debug for AnyPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("AnyPolicy").field(&self.name()).finish()
    }
}

macro_rules! impl_from_policy {
    ($($variant:ident => $t:ty),* $(,)?) => {$(
        impl From<$t> for AnyPolicy {
            fn from(p: $t) -> AnyPolicy {
                AnyPolicy::$variant(p)
            }
        }
    )*};
}

impl_from_policy! {
    Lru => lru::LruPolicy,
    Random => random::RandomPolicy,
    Srrip => srrip::SrripPolicy,
    Ship => ship::ShipPolicy,
    Hawkeye => hawkeye::HawkeyePolicy,
    Ghrp => ghrp::GhrpPolicy,
    Slru => slru::SlruPolicy,
    Opt => opt::OptPolicy,
}

impl From<Box<dyn ReplacementPolicy>> for AnyPolicy {
    fn from(p: Box<dyn ReplacementPolicy>) -> AnyPolicy {
        AnyPolicy::Boxed(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_policy() {
        let geom = CacheGeometry::from_sets_ways(8, 4);
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Random { seed: 1 },
            PolicyKind::Srrip,
            PolicyKind::Ship,
            PolicyKind::Hawkeye {
                prefetch_aware: true,
            },
            PolicyKind::Ghrp,
            PolicyKind::Slru,
            PolicyKind::Opt,
        ] {
            let p = kind.build(geom);
            assert!(!p.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }
}
