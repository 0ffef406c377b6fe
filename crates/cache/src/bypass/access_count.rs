//! Access-count comparison bypassing (Johnson et al., "Run-time cache
//! bypassing", IEEE TC 1999) — the paper's §III strawman: admit the
//! i-Filter victim only if it has been accessed at least as often as
//! its i-cache contender.
//!
//! Counts live in a finite table of saturating counters indexed by a
//! hash of the block address (the MAT — memory access table — of the
//! original work).

use crate::bypass::AdmissionPolicy;
use crate::ctx::AccessCtx;
use acic_types::hash::{fold, mix64};
use acic_types::{SatCounter, TaggedBlock};

/// Admission by access-count comparison.
///
/// # Examples
///
/// ```
/// use acic_cache::bypass::access_count::AccessCountAdmission;
/// use acic_cache::bypass::AdmissionPolicy;
/// use acic_cache::AccessCtx;
/// use acic_types::BlockAddr;
///
/// let mut p = AccessCountAdmission::new();
/// let hot = acic_types::TaggedBlock::untagged(BlockAddr::new(1));
/// let cold = acic_types::TaggedBlock::untagged(BlockAddr::new(2));
/// let ctx = AccessCtx::demand(BlockAddr::new(1), 0);
/// for _ in 0..10 {
///     p.on_demand_access(hot, &ctx);
/// }
/// p.on_demand_access(cold, &ctx);
/// assert!(p.should_admit(hot, Some(cold), &ctx));
/// assert!(!p.should_admit(cold, Some(hot), &ctx));
/// ```
#[derive(Clone, Debug)]
pub struct AccessCountAdmission {
    counters: Vec<SatCounter>,
    index_bits: u32,
}

impl Default for AccessCountAdmission {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessCountAdmission {
    /// Default table: 4096 entries of 6-bit counters.
    pub fn new() -> Self {
        Self::with_table(12, 6)
    }

    /// Custom table geometry.
    pub fn with_table(index_bits: u32, counter_bits: u32) -> Self {
        AccessCountAdmission {
            counters: vec![SatCounter::new(counter_bits, 0); 1 << index_bits],
            index_bits,
        }
    }

    fn index(&self, block: TaggedBlock) -> usize {
        fold(mix64(block.ident()), self.index_bits) as usize
    }

    /// Current count for a block (test hook).
    pub fn count_of(&self, block: TaggedBlock) -> u16 {
        self.counters[self.index(block)].value()
    }
}

impl AdmissionPolicy for AccessCountAdmission {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "access-count"
    }

    fn should_admit(
        &mut self,
        incoming: TaggedBlock,
        contender: Option<TaggedBlock>,
        _ctx: &AccessCtx<'_>,
    ) -> bool {
        match contender {
            None => true,
            Some(c) => self.count_of(incoming) >= self.count_of(c),
        }
    }

    fn on_demand_access(&mut self, block: TaggedBlock, _ctx: &AccessCtx<'_>) {
        let i = self.index(block);
        self.counters[i].increment();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn no_contender_always_admits() {
        let mut p = AccessCountAdmission::new();
        let ctx = AccessCtx::demand(BlockAddr::new(5), 0);
        assert!(p.should_admit(tb(5), None, &ctx));
    }

    #[test]
    fn counters_saturate() {
        let mut p = AccessCountAdmission::with_table(4, 2);
        let b = tb(3);
        let ctx = AccessCtx::demand(BlockAddr::new(3), 0);
        for _ in 0..100 {
            p.on_demand_access(b, &ctx);
        }
        assert_eq!(p.count_of(b), 3);
    }

    #[test]
    fn equal_counts_admit() {
        let mut p = AccessCountAdmission::new();
        let ctx = AccessCtx::demand(BlockAddr::new(1), 0);
        // Both zero: ties go to the incoming block.
        assert!(p.should_admit(tb(1), Some(tb(2)), &ctx));
    }
}
