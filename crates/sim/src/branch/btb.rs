//! Branch target buffer: 8192 entries, 4-way (Table II).

use acic_types::{Addr, LruStamps};

/// BTB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Lookups for taken branches.
    pub lookups: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups whose stored target was wrong (indirect target
    /// changes).
    pub wrong_target: u64,
}

impl BtbStats {
    /// Adds another instance's counters into this one.
    pub fn merge(&mut self, other: &BtbStats) {
        self.lookups += other.lookups;
        self.misses += other.misses;
        self.wrong_target += other.wrong_target;
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Entry {
    tag: u64,
    target: u64,
    valid: bool,
}

/// A set-associative branch target buffer.
///
/// # Examples
///
/// ```
/// use acic_sim::Btb;
/// use acic_types::Addr;
///
/// let mut btb = Btb::new(8192, 4);
/// let pc = Addr::new(0x1000);
/// assert_eq!(btb.lookup(pc), None);
/// btb.update(pc, Addr::new(0x2000));
/// assert_eq!(btb.lookup(pc), Some(Addr::new(0x2000)));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    sets: usize,
    ways: usize,
    entries: Vec<Entry>,
    lru: Vec<LruStamps>,
    stats: BtbStats,
    stats_enabled: bool,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `entries / ways` is a positive power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        let sets = entries / ways;
        assert!(sets.is_power_of_two() && sets > 0);
        Btb {
            sets,
            ways,
            entries: vec![Entry::default(); entries],
            lru: (0..sets).map(|_| LruStamps::new(ways)).collect(),
            stats: BtbStats::default(),
            stats_enabled: true,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Gates statistics recording (warmup phase of a sampled
    /// simulation): lookups still touch LRU state and updates still
    /// install targets, but the counters hold still.
    pub fn set_stats_enabled(&mut self, enabled: bool) {
        self.stats_enabled = enabled;
    }

    /// Invalidates every entry while keeping the accumulated
    /// statistics — a context switch with untagged BTB hardware.
    pub fn flush(&mut self) {
        self.entries.fill(Entry::default());
        self.lru = (0..self.sets).map(|_| LruStamps::new(self.ways)).collect();
    }

    fn set_of(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, pc: Addr) -> u64 {
        pc.raw() >> 2 >> self.sets.trailing_zeros()
    }

    /// Looks up the predicted target for the branch at `pc`
    /// (recording stats).
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        if self.stats_enabled {
            self.stats.lookups += 1;
        }
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        for w in 0..self.ways {
            let e = self.entries[set * self.ways + w];
            if e.valid && e.tag == tag {
                self.lru[set].touch(w);
                return Some(Addr::new(e.target));
            }
        }
        if self.stats_enabled {
            self.stats.misses += 1;
        }
        None
    }

    /// Records a wrong-target event (indirect branch retargeting).
    pub fn record_wrong_target(&mut self) {
        if self.stats_enabled {
            self.stats.wrong_target += 1;
        }
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn update(&mut self, pc: Addr, target: Addr) {
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        // Update in place if present.
        for w in 0..self.ways {
            let i = set * self.ways + w;
            if self.entries[i].valid && self.entries[i].tag == tag {
                self.entries[i].target = target.raw();
                self.lru[set].touch(w);
                return;
            }
        }
        // Fill an invalid way or evict the LRU one.
        let way = (0..self.ways)
            .find(|&w| !self.entries[set * self.ways + w].valid)
            .unwrap_or_else(|| self.lru[set].lru_way());
        self.entries[set * self.ways + way] = Entry {
            tag,
            target: target.raw(),
            valid: true,
        };
        self.lru[set].touch(way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_hit() {
        let mut b = Btb::new(64, 4);
        b.update(Addr::new(0x40), Addr::new(0x80));
        assert_eq!(b.lookup(Addr::new(0x40)), Some(Addr::new(0x80)));
        assert_eq!(b.stats().misses, 0);
    }

    #[test]
    fn retarget_updates_in_place() {
        let mut b = Btb::new(64, 4);
        b.update(Addr::new(0x40), Addr::new(0x80));
        b.update(Addr::new(0x40), Addr::new(0xc0));
        assert_eq!(b.lookup(Addr::new(0x40)), Some(Addr::new(0xc0)));
    }

    #[test]
    fn conflict_eviction_is_lru() {
        let mut b = Btb::new(4, 2); // 2 sets x 2 ways
                                    // These three PCs map to the same set (stride = sets * 4 = 8).
        let pcs = [0x0u64, 0x8, 0x10];
        b.update(Addr::new(pcs[0]), Addr::new(1 << 6));
        b.update(Addr::new(pcs[1]), Addr::new(2 << 6));
        b.lookup(Addr::new(pcs[0])); // refresh pcs[0]
        b.update(Addr::new(pcs[2]), Addr::new(3 << 6));
        assert_eq!(b.lookup(Addr::new(pcs[0])), Some(Addr::new(1 << 6)));
        assert_eq!(b.lookup(Addr::new(pcs[1])), None, "LRU entry evicted");
    }

    #[test]
    fn table_two_shape_is_constructible() {
        let b = Btb::new(8192, 4);
        assert_eq!(b.sets, 2048);
    }
}
