//! Victim caches: the classic fully-associative victim cache (Jouppi
//! 1990 — the paper's VC3K/VC8K comparison points) and the virtual
//! victim cache ([`vvc`]).

pub mod vvc;

use acic_types::{LruStamps, TaggedBlock};

/// A fully-associative victim cache holding recently evicted blocks.
///
/// The paper's VC3K is 48 entries (48 x 64 B = 3 KB of data).
///
/// # Examples
///
/// ```
/// use acic_cache::victim::VictimCache;
/// use acic_types::BlockAddr;
///
/// let mut vc = VictimCache::new(2);
/// assert_eq!(vc.insert(BlockAddr::new(1)), None);
/// assert_eq!(vc.insert(BlockAddr::new(2)), None);
/// // Full: inserting a third evicts the LRU entry.
/// assert_eq!(vc.insert(BlockAddr::new(3)).map(|t| t.block), Some(BlockAddr::new(1)));
/// assert!(vc.probe_and_remove(BlockAddr::new(2)));
/// assert!(!vc.contains(BlockAddr::new(2))); // removed on hit
/// ```
#[derive(Clone, Debug)]
pub struct VictimCache {
    entries: Vec<Option<TaggedBlock>>,
    lru: LruStamps,
}

impl VictimCache {
    /// Creates a victim cache with `capacity` block slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "victim cache needs at least one entry");
        VictimCache {
            entries: vec![None; capacity],
            lru: LruStamps::new(capacity),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether the victim cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `block` is present (no state change).
    pub fn contains(&self, block: impl Into<TaggedBlock>) -> bool {
        self.entries.contains(&Some(block.into()))
    }

    /// If present, removes `block` (it is being promoted back into the
    /// main cache) and returns `true`.
    pub fn probe_and_remove(&mut self, block: impl Into<TaggedBlock>) -> bool {
        let block = block.into();
        if let Some(slot) = self.entries.iter().position(|&e| e == Some(block)) {
            self.entries[slot] = None;
            self.lru.clear(slot);
            true
        } else {
            false
        }
    }

    /// Inserts an evicted block; returns the block dropped to make
    /// room, if the victim cache was full.
    pub fn insert(&mut self, block: impl Into<TaggedBlock>) -> Option<TaggedBlock> {
        let block = block.into();
        debug_assert!(
            !self.contains(block),
            "block must not already be in the victim cache"
        );
        let slot = match self.entries.iter().position(|e| e.is_none()) {
            Some(free) => free,
            None => self.lru.lru_way(),
        };
        let dropped = self.entries[slot].take();
        self.entries[slot] = Some(block);
        self.lru.touch(slot);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    #[test]
    fn fills_free_slots_before_evicting() {
        let mut vc = VictimCache::new(3);
        assert_eq!(vc.insert(BlockAddr::new(1)), None);
        assert_eq!(vc.insert(BlockAddr::new(2)), None);
        assert_eq!(vc.insert(BlockAddr::new(3)), None);
        assert_eq!(vc.len(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut vc = VictimCache::new(2);
        vc.insert(BlockAddr::new(1));
        vc.insert(BlockAddr::new(2));
        // Re-inserting is forbidden; instead promote 1 out and back.
        assert!(vc.probe_and_remove(BlockAddr::new(1)));
        vc.insert(BlockAddr::new(1));
        // Now 2 is LRU.
        assert_eq!(
            vc.insert(BlockAddr::new(3)),
            Some(TaggedBlock::untagged(BlockAddr::new(2)))
        );
    }

    #[test]
    fn probe_miss_changes_nothing() {
        let mut vc = VictimCache::new(2);
        vc.insert(BlockAddr::new(1));
        assert!(!vc.probe_and_remove(BlockAddr::new(9)));
        assert_eq!(vc.len(), 1);
    }

    #[test]
    fn paper_vc3k_geometry() {
        // 3 KB of 64 B blocks = 48 entries.
        let vc = VictimCache::new(48);
        assert_eq!(vc.capacity() * 64, 3 * 1024);
    }
}
