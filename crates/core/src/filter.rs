//! The i-Filter: a small fully-associative buffer in front of the
//! i-cache (§II, Figure 2).
//!
//! Missed blocks are placed in the i-Filter *only*; while resident
//! they absorb the burst of spatial/short-term-temporal accesses. When
//! the filter overflows, its LRU block becomes the *i-Filter victim*
//! whose admission into the i-cache ACIC decides.

use acic_types::{Asid, LruStamps, TaggedBlock};

/// Sentinel identity marking an empty slot; unreachable by real
/// identities (see `acic_cache`'s tag store, which uses the same
/// encoding argument).
const EMPTY_IDENT: u64 = u64::MAX;

/// A fully-associative LRU buffer of instruction blocks.
///
/// Probed on every fetch, so slots are stored structure-of-arrays:
/// one flattened-ident `u64` lane scanned as a straight single-word
/// loop (the ASID lane confirms matches and reconstructs victims),
/// exactly like the main tag store.
///
/// # Examples
///
/// ```
/// use acic_core::IFilter;
/// use acic_types::BlockAddr;
///
/// let mut f = IFilter::new(2);
/// assert_eq!(f.insert(BlockAddr::new(1)), None);
/// assert_eq!(f.insert(BlockAddr::new(2)), None);
/// assert!(f.access(BlockAddr::new(1))); // 2 becomes LRU
/// assert_eq!(
///     f.insert(BlockAddr::new(3)),
///     Some(acic_types::TaggedBlock::untagged(BlockAddr::new(2))),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct IFilter {
    ids: Vec<u64>,
    asids: Vec<u16>,
    lru: LruStamps,
}

impl IFilter {
    /// Creates an i-Filter with `entries` slots (the paper uses 16).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero; use `Option<IFilter>` for the
    /// no-filter ablation.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "i-Filter needs at least one slot");
        IFilter {
            ids: vec![EMPTY_IDENT; entries],
            asids: vec![0; entries],
            lru: LruStamps::new(entries),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ids.len()
    }

    /// Number of blocks currently buffered.
    pub fn len(&self) -> usize {
        self.ids.iter().filter(|&&id| id != EMPTY_IDENT).count()
    }

    /// Whether the filter holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block stored in `slot`, if any.
    #[inline]
    fn slot_block(&self, slot: usize) -> Option<TaggedBlock> {
        (self.ids[slot] != EMPTY_IDENT)
            .then(|| TaggedBlock::from_ident(self.ids[slot], Asid::new(self.asids[slot])))
    }

    /// Slot holding `t`, if buffered. Single-word ident scan with an
    /// ASID confirm on match (same soundness argument as the tag
    /// store's scan).
    // Explicit slice loop (not `Iterator::find` over indices) so the
    // ident compare compiles to a straight bounds-check-free scan —
    // this runs once per fetch in the ACIC hot path.
    #[allow(clippy::manual_find)]
    #[inline]
    fn find(&self, t: TaggedBlock) -> Option<usize> {
        let id = t.ident();
        let asid = t.asid.raw();
        let ids = self.ids.as_slice();
        let asids = self.asids.as_slice();
        for s in 0..ids.len() {
            if ids[s] == id && asids[s] == asid {
                return Some(s);
            }
        }
        None
    }

    /// Whether `block` is buffered (no state change).
    #[inline]
    pub fn contains(&self, block: impl Into<TaggedBlock>) -> bool {
        self.find(block.into()).is_some()
    }

    /// Looks up `block`; on hit refreshes its recency and returns
    /// `true`.
    #[inline]
    pub fn access(&mut self, block: impl Into<TaggedBlock>) -> bool {
        if let Some(slot) = self.find(block.into()) {
            self.lru.touch(slot);
            true
        } else {
            false
        }
    }

    /// Inserts `block`; if the filter is full, evicts and returns the
    /// LRU block (the *i-Filter victim*).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `block` is already resident (the driver
    /// must only fill on a filter miss).
    pub fn insert(&mut self, block: impl Into<TaggedBlock>) -> Option<TaggedBlock> {
        let block = block.into();
        debug_assert!(!self.contains(block), "duplicate i-Filter insert");
        debug_assert_ne!(block.ident(), EMPTY_IDENT, "block collides with sentinel");
        let slot = match self.ids.iter().position(|&id| id == EMPTY_IDENT) {
            Some(free) => free,
            None => self.lru.lru_way(),
        };
        let victim = self.slot_block(slot);
        self.ids[slot] = block.ident();
        self.asids[slot] = block.asid.raw();
        self.lru.touch(slot);
        victim
    }

    /// Removes `block` if present (used when a block is promoted or
    /// invalidated externally).
    pub fn remove(&mut self, block: impl Into<TaggedBlock>) -> bool {
        if let Some(slot) = self.find(block.into()) {
            self.ids[slot] = EMPTY_IDENT;
            self.lru.clear(slot);
            true
        } else {
            false
        }
    }

    /// Blocks currently buffered, MRU first (for tests).
    pub fn resident_blocks(&self) -> Vec<TaggedBlock> {
        let mut with_stamp: Vec<(u64, TaggedBlock)> = (0..self.ids.len())
            .filter_map(|i| self.slot_block(i).map(|b| (self.lru.stamp(i), b)))
            .collect();
        with_stamp.sort_by_key(|&(s, _)| u64::MAX - s);
        with_stamp.into_iter().map(|(_, b)| b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    #[test]
    fn fills_before_evicting() {
        let mut f = IFilter::new(3);
        assert_eq!(f.insert(BlockAddr::new(1)), None);
        assert_eq!(f.insert(BlockAddr::new(2)), None);
        assert_eq!(f.insert(BlockAddr::new(3)), None);
        assert_eq!(f.len(), 3);
        assert_eq!(
            f.insert(BlockAddr::new(4)),
            Some(TaggedBlock::untagged(BlockAddr::new(1)))
        );
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn access_refreshes_recency() {
        let mut f = IFilter::new(2);
        f.insert(BlockAddr::new(1));
        f.insert(BlockAddr::new(2));
        assert!(f.access(BlockAddr::new(1)));
        assert_eq!(
            f.insert(BlockAddr::new(3)),
            Some(TaggedBlock::untagged(BlockAddr::new(2)))
        );
    }

    #[test]
    fn miss_does_not_change_state() {
        let mut f = IFilter::new(2);
        f.insert(BlockAddr::new(1));
        assert!(!f.access(BlockAddr::new(9)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn remove_frees_slot() {
        let mut f = IFilter::new(2);
        f.insert(BlockAddr::new(1));
        f.insert(BlockAddr::new(2));
        assert!(f.remove(BlockAddr::new(1)));
        assert_eq!(f.insert(BlockAddr::new(3)), None); // reused the free slot
    }

    #[test]
    fn resident_order_is_mru_first() {
        let mut f = IFilter::new(3);
        f.insert(BlockAddr::new(1));
        f.insert(BlockAddr::new(2));
        f.insert(BlockAddr::new(3));
        f.access(BlockAddr::new(1));
        let order: Vec<_> = f.resident_blocks().iter().map(|t| t.block).collect();
        assert_eq!(
            order,
            vec![BlockAddr::new(1), BlockAddr::new(3), BlockAddr::new(2)]
        );
    }

    #[test]
    fn paper_capacity() {
        let f = IFilter::new(16);
        assert_eq!(f.capacity(), 16);
    }
}
