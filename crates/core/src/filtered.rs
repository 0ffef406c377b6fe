//! i-Filter + generic admission policy — the comparison organizations
//! of Figure 3a and Table IV that share ACIC's filter but not its
//! predictor: always-insert ("i-Filter only"), access-count
//! comparison, and oracle OPT-bypass.

use crate::filter::IFilter;
use acic_cache::bypass::AdmissionPolicy;
use acic_cache::policy::PolicyKind;
use acic_cache::{
    AccessCtx, AccessOutcome, CacheGeometry, CacheStats, IcacheContents, SetAssocCache,
};
use acic_types::TaggedBlock;

/// An i-cache fronted by an i-Filter whose victims pass through an
/// arbitrary [`AdmissionPolicy`].
///
/// # Examples
///
/// ```
/// use acic_cache::bypass::AlwaysAdmit;
/// use acic_cache::{AccessCtx, CacheGeometry, IcacheContents};
/// use acic_core::FilteredIcache;
/// use acic_types::{BlockAddr, TaggedBlock};
///
/// let mut org = FilteredIcache::new(CacheGeometry::l1i_32k(), 16, Box::new(AlwaysAdmit));
/// org.fill(&AccessCtx::demand(BlockAddr::new(3), 0));
/// assert!(org.contains_block(TaggedBlock::untagged(BlockAddr::new(3))));
/// ```
#[derive(Clone)]
pub struct FilteredIcache {
    filter: IFilter,
    cache: SetAssocCache,
    admission: Box<dyn AdmissionPolicy>,
    stats: CacheStats,
    /// Victims admitted into the i-cache.
    pub admitted: u64,
    /// Victims thrown away.
    pub bypassed: u64,
}

impl FilteredIcache {
    /// Creates the organization with an LRU i-cache of the given
    /// geometry and a `filter_entries`-slot i-Filter.
    pub fn new(
        geom: CacheGeometry,
        filter_entries: usize,
        admission: Box<dyn AdmissionPolicy>,
    ) -> Self {
        FilteredIcache {
            filter: IFilter::new(filter_entries),
            cache: SetAssocCache::new(geom, PolicyKind::Lru.build(geom)),
            admission,
            stats: CacheStats::default(),
            admitted: 0,
            bypassed: 0,
        }
    }

    /// The i-Filter (for tests).
    pub fn filter(&self) -> &IFilter {
        &self.filter
    }

    /// The backing cache (for tests).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

impl IcacheContents for FilteredIcache {
    fn clone_box(&self) -> Box<dyn IcacheContents> {
        Box::new(self.clone())
    }

    fn access(&mut self, ctx: &AccessCtx<'_>) -> AccessOutcome {
        if !ctx.is_prefetch {
            self.admission.on_demand_access(ctx.tagged(), ctx);
        }
        let hit = self.filter.access(ctx.tagged()) || self.cache.access(ctx);
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.record_prefetch(hit);
            } else {
                self.stats.record_demand(hit);
            }
        }
        if hit {
            AccessOutcome::hit()
        } else {
            AccessOutcome::miss()
        }
    }

    fn fill(&mut self, ctx: &AccessCtx<'_>) {
        if self.contains_block(ctx.tagged()) {
            return;
        }
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.prefetch_fills += 1;
            } else {
                self.stats.demand_fills += 1;
            }
        }
        let Some(victim) = self.filter.insert(ctx.tagged()) else {
            return;
        };
        let vctx = AccessCtx {
            block: victim.block,
            asid: victim.asid,
            // The victim's own next use (not the triggering block's)
            // is what OPT-flavored admission must compare; policies
            // that need it consult the oracle by block.
            ..*ctx
        };
        let contender = self.cache.contender(&vctx);
        if contender.is_none() || self.admission.should_admit(victim, contender, &vctx) {
            if ctx.stats_enabled {
                self.admitted += 1;
            }
            let evicted = self.cache.fill(&vctx);
            self.admission.on_fill(victim, evicted, &vctx);
        } else if ctx.stats_enabled {
            self.bypassed += 1;
            self.stats.bypasses += 1;
        }
    }

    fn contains_block(&self, block: TaggedBlock) -> bool {
        self.filter.contains(block) || self.cache.contains(block)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!("ifilter+{}", self.admission.name())
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_cache::bypass::{AlwaysAdmit, NeverAdmit};
    use acic_types::BlockAddr;

    fn ctx(b: u64, i: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), i)
    }

    fn tiny(admission: Box<dyn AdmissionPolicy>) -> FilteredIcache {
        FilteredIcache::new(CacheGeometry::from_sets_ways(4, 2), 2, admission)
    }

    #[test]
    fn always_admit_pushes_victims_into_cache() {
        let mut org = tiny(Box::new(AlwaysAdmit));
        org.fill(&ctx(1, 0));
        org.fill(&ctx(2, 1));
        org.fill(&ctx(3, 2)); // filter victim 1 admitted
        assert!(org.cache().contains(BlockAddr::new(1)));
        assert_eq!(org.admitted, 1);
    }

    #[test]
    fn never_admit_drops_victims() {
        let mut org = tiny(Box::new(NeverAdmit));
        org.fill(&ctx(1, 0));
        org.fill(&ctx(2, 1));
        org.fill(&ctx(3, 2));
        // With invalid ways the contender is None, so the victim is
        // still admitted for free; fill the set first.
        for b in [9u64, 17, 25, 33] {
            org.fill(&ctx(b, 10 + b));
        }
        let before = org.cache().resident_blocks().len();
        org.fill(&ctx(41, 100));
        org.fill(&ctx(49, 101));
        assert!(org.bypassed > 0 || org.cache().resident_blocks().len() >= before);
    }

    #[test]
    fn filter_hits_do_not_touch_cache_stats() {
        let mut org = tiny(Box::new(AlwaysAdmit));
        org.fill(&ctx(1, 0));
        assert!(org.access(&ctx(1, 1)).hit);
        assert_eq!(org.stats().demand_accesses, 1);
        assert_eq!(org.cache().stats().demand_accesses, 0);
    }
}
