//! CSHR — Comparison Status Holding Registers (§III-B, Figures 5-7).
//!
//! Each entry tracks one unresolved comparison between an i-Filter
//! victim and its i-cache contender, stored as partial tags. Fetch
//! requests search the CSHR set derived from the i-cache set index;
//! matching the victim field means the victim was re-accessed first
//! (train `1`), matching the contender field trains `0`. Entries are
//! organized as 8 sets x 32 ways with per-set LRU; an unresolved entry
//! evicted for capacity trains "benefit of the doubt" in the victim's
//! favor (§III-C1).
//!
//! # Hot-path layout
//!
//! [`Cshr`] is probed once per i-cache access, making its set scan one
//! of the hottest loops in the workspace. The flat layout packs each
//! entry's two partial tags into one `u32` lane (victim in the low
//! half, contender in the high half) stored contiguously per set, with
//! validity as a per-set `u64` bitmask — the search builds victim- and
//! contender-match masks branch-free over the packed lane and only
//! branches once per *resolution*, not once per way. Results land in a
//! caller-provided fixed [`ResolutionBuf`]
//! ([`Cshr::search_into`]), so the steady-state probe performs no heap
//! allocation. [`LegacyCshr`] retains the original array-of-structs
//! implementation as the behavioral reference; the two are pinned
//! against each other by an equivalence proptest
//! (`tests/hot_structs_equivalence.rs`).
//!
//! [`UnboundedCshr`] is the instrumentation twin used to regenerate
//! Figure 6 (how many concurrent comparisons a resolution needed). Its
//! bookkeeping `HashMap`s exist only while Figure-6 instrumentation is
//! explicitly enabled — default runs never construct it.

use acic_types::{BlockAddr, LruStamps};
use std::collections::HashMap;

/// A resolved (or force-resolved) comparison to train the predictor
/// with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// Partial tag of the i-Filter victim of the comparison.
    pub victim_ptag: u16,
    /// Whether the victim was (or is assumed to have been) re-accessed
    /// before the contender.
    pub victim_won: bool,
}

impl Resolution {
    const EMPTY: Resolution = Resolution {
        victim_ptag: 0,
        victim_won: false,
    };
}

/// Counters exposed by the CSHR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CshrStats {
    /// Comparisons inserted.
    pub inserted: u64,
    /// Resolutions where the victim was fetched first.
    pub victim_first: u64,
    /// Resolutions where the contender was fetched first.
    pub contender_first: u64,
    /// Unresolved entries evicted for capacity (trained in the
    /// victim's favor).
    pub evicted_unresolved: u64,
}

impl CshrStats {
    /// Adds another instance's counters into this one (pure sums, so
    /// per-window merges are order-independent).
    pub fn merge(&mut self, other: &CshrStats) {
        self.inserted += other.inserted;
        self.victim_first += other.victim_first;
        self.contender_first += other.contender_first;
        self.evicted_unresolved += other.evicted_unresolved;
    }
}

/// Upper bound on CSHR associativity supported by the packed layout
/// (validity is a per-set `u64` bitmask). The paper's configuration is
/// 32-way; construction panics past the bound.
pub const MAX_CSHR_WAYS: usize = 64;

/// Fixed-capacity, stack-allocated buffer for CSHR search results.
///
/// One probe can resolve at most one comparison per way, so
/// [`MAX_CSHR_WAYS`] slots always suffice. Callers keep one buffer
/// alive across probes ([`Cshr::search_into`] clears it first), making
/// the search path allocation-free.
#[derive(Clone, Debug)]
pub struct ResolutionBuf {
    len: usize,
    items: [Resolution; MAX_CSHR_WAYS],
}

impl ResolutionBuf {
    /// Creates an empty buffer.
    pub const fn new() -> Self {
        ResolutionBuf {
            len: 0,
            items: [Resolution::EMPTY; MAX_CSHR_WAYS],
        }
    }

    /// Empties the buffer.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, r: Resolution) {
        self.items[self.len] = r;
        self.len += 1;
    }

    /// Resolutions recorded by the last search.
    #[inline]
    pub fn as_slice(&self) -> &[Resolution] {
        &self.items[..self.len]
    }

    /// Number of resolutions recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last search resolved nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for ResolutionBuf {
    fn default() -> Self {
        ResolutionBuf::new()
    }
}

impl core::ops::Deref for ResolutionBuf {
    type Target = [Resolution];

    fn deref(&self) -> &[Resolution] {
        self.as_slice()
    }
}

/// The set-associative CSHR (default 256 entries, 8 sets x 32 ways,
/// 12-bit partial tags) in the packed structure-of-arrays layout.
///
/// # Examples
///
/// ```
/// use acic_core::Cshr;
///
/// let mut cshr = Cshr::new(8, 32, 64);
/// let evicted = cshr.insert(0x123, 0x456, 5);
/// assert!(evicted.is_none());
/// // Fetching the victim's tag in the same i-cache set resolves it.
/// let resolutions = cshr.search(0x123, 5);
/// assert_eq!(resolutions.len(), 1);
/// assert!(resolutions[0].victim_won);
/// ```
#[derive(Clone, Debug)]
pub struct Cshr {
    sets: usize,
    ways: usize,
    /// Right-shift applied to an i-cache set index to select the CSHR
    /// set ("the m most significant bits of the i-cache set index").
    shift: u32,
    /// Packed partial-tag lanes, one `u32` per entry: victim tag in
    /// bits 0..16, contender tag in bits 16..32; `sets * ways` long,
    /// set-major so one set's lane is contiguous.
    lanes: Vec<u32>,
    /// Per-set validity bitmask (bit `w` = way `w` holds an open
    /// comparison).
    valid: Vec<u64>,
    /// Per-way LRU stamps (0 = never touched), flat set-major, with a
    /// per-set monotone clock — the flat equivalent of one
    /// `LruStamps` per set.
    stamps: Vec<u64>,
    clock: Vec<u64>,
    stats: CshrStats,
}

impl Cshr {
    /// Creates a CSHR with `sets` x `ways` entries serving an i-cache
    /// with `icache_sets` sets. When the CSHR has at least as many
    /// sets as the i-cache (only in scaled-down test configurations),
    /// i-cache sets map one-to-one and the excess CSHR sets stay
    /// unused.
    ///
    /// # Panics
    ///
    /// Panics unless both set counts are powers of two and `ways` is
    /// in `1..=`[`MAX_CSHR_WAYS`].
    pub fn new(sets: usize, ways: usize, icache_sets: usize) -> Self {
        assert!(sets.is_power_of_two() && icache_sets.is_power_of_two());
        assert!((1..=MAX_CSHR_WAYS).contains(&ways));
        let shift = icache_sets
            .trailing_zeros()
            .saturating_sub(sets.trailing_zeros());
        Cshr {
            sets,
            ways,
            shift,
            lanes: vec![0; sets * ways],
            valid: vec![0; sets],
            stamps: vec![0; sets * ways],
            clock: vec![0; sets],
            stats: CshrStats::default(),
        }
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.lanes.len()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Counters.
    pub fn stats(&self) -> CshrStats {
        self.stats
    }

    fn set_of(&self, icache_set: usize) -> usize {
        (icache_set >> self.shift) & (self.sets - 1)
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.clock[set] += 1;
        self.stamps[set * self.ways + way] = self.clock[set];
    }

    /// Least-recently-used way of `set` (lowest stamp, ties broken by
    /// lowest way index — untouched ways first, in order), matching
    /// [`LruStamps::lru_way`].
    fn lru_way(&self, set: usize) -> usize {
        let base = set * self.ways;
        let mut best = 0usize;
        let mut best_stamp = self.stamps[base];
        for w in 1..self.ways {
            let s = self.stamps[base + w];
            if s < best_stamp {
                best = w;
                best_stamp = s;
            }
        }
        best
    }

    /// Opens a comparison between `victim_ptag` and `contender_ptag`
    /// whose blocks map to `icache_set`. If an unresolved entry must
    /// be evicted for capacity, it is returned force-resolved in the
    /// victim's favor (benefit of the doubt).
    pub fn insert(
        &mut self,
        victim_ptag: u16,
        contender_ptag: u16,
        icache_set: usize,
    ) -> Option<Resolution> {
        self.stats.inserted += 1;
        let set = self.set_of(icache_set);
        let free = !self.valid[set] & ways_mask(self.ways);
        let (way, forced) = if free != 0 {
            (free.trailing_zeros() as usize, None)
        } else {
            let w = self.lru_way(set);
            let old_victim = (self.lanes[set * self.ways + w] & 0xFFFF) as u16;
            self.stats.evicted_unresolved += 1;
            (
                w,
                Some(Resolution {
                    victim_ptag: old_victim,
                    victim_won: true,
                }),
            )
        };
        self.lanes[set * self.ways + way] = (victim_ptag as u32) | ((contender_ptag as u32) << 16);
        self.valid[set] |= 1 << way;
        self.touch(set, way);
        forced
    }

    /// Searches the CSHR set for the fetched block's partial tag and
    /// resolves matches into `out` (cleared first): a victim-field
    /// match trains `1`, contender matches train `0`; resolved entries
    /// are invalidated and reusable. Resolutions land in ascending way
    /// order, matching [`LegacyCshr::search`].
    #[inline]
    pub fn search_into(&mut self, fetched_ptag: u16, icache_set: usize, out: &mut ResolutionBuf) {
        out.clear();
        let set = self.set_of(icache_set);
        let live = self.valid[set];
        if live == 0 {
            return;
        }
        let base = set * self.ways;
        let probe = fetched_ptag as u32;
        let lanes = &self.lanes[base..base + self.ways];
        // Fast pre-check: most probes resolve nothing (~93% on the
        // paper's configuration), so first run a pure or-reduction
        // over the packed lane — branch-free, vectorizable — and bail
        // before any mask bookkeeping. Stale tags in invalid entries
        // can force a spurious slow pass, never a wrong result (the
        // slow pass filters by the validity mask).
        let mut any = false;
        for &lane in lanes {
            any |= (lane & 0xFFFF) == probe;
            any |= (lane >> 16) == probe;
        }
        if !any {
            return;
        }
        // Branch-free match-mask build over the packed lane.
        let mut vmask = 0u64;
        let mut cmask = 0u64;
        for (w, &lane) in lanes.iter().enumerate() {
            vmask |= (((lane & 0xFFFF) == probe) as u64) << w;
            cmask |= (((lane >> 16) == probe) as u64) << w;
        }
        // A victim match wins over a contender match on the same entry
        // (mirrors the legacy `if / else if`).
        let vhits = vmask & live;
        let chits = cmask & live & !vmask;
        let mut hits = vhits | chits;
        if hits == 0 {
            return;
        }
        self.stats.victim_first += vhits.count_ones() as u64;
        self.stats.contender_first += chits.count_ones() as u64;
        self.valid[set] = live & !hits;
        while hits != 0 {
            let w = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            out.push(Resolution {
                victim_ptag: (self.lanes[base + w] & 0xFFFF) as u16,
                victim_won: vhits >> w & 1 == 1,
            });
            self.stamps[base + w] = 0;
        }
    }

    /// Allocating convenience wrapper over [`Cshr::search_into`] for
    /// tests and cold paths.
    pub fn search(&mut self, fetched_ptag: u16, icache_set: usize) -> Vec<Resolution> {
        let mut buf = ResolutionBuf::new();
        self.search_into(fetched_ptag, icache_set, &mut buf);
        buf.as_slice().to_vec()
    }
}

#[inline]
fn ways_mask(ways: usize) -> u64 {
    if ways == 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct LegacyEntry {
    valid: bool,
    victim: u16,
    contender: u16,
}

/// The original array-of-structs CSHR, retained as the behavioral
/// reference for the packed [`Cshr`]: one probe loop with a branch per
/// way and a freshly allocated `Vec` per search. Benchmarks measure
/// the layout win against it; the equivalence proptest pins the two
/// implementations to identical observable behavior.
#[derive(Debug)]
pub struct LegacyCshr {
    sets: usize,
    ways: usize,
    shift: u32,
    entries: Vec<LegacyEntry>,
    lru: Vec<LruStamps>,
    stats: CshrStats,
}

impl LegacyCshr {
    /// Creates the reference CSHR (same contract as [`Cshr::new`]).
    ///
    /// # Panics
    ///
    /// Panics unless both set counts are powers of two and `ways` is
    /// positive.
    pub fn new(sets: usize, ways: usize, icache_sets: usize) -> Self {
        assert!(sets.is_power_of_two() && icache_sets.is_power_of_two());
        assert!(ways > 0);
        let shift = icache_sets
            .trailing_zeros()
            .saturating_sub(sets.trailing_zeros());
        LegacyCshr {
            sets,
            ways,
            shift,
            entries: vec![LegacyEntry::default(); sets * ways],
            lru: (0..sets).map(|_| LruStamps::new(ways)).collect(),
            stats: CshrStats::default(),
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Counters.
    pub fn stats(&self) -> CshrStats {
        self.stats
    }

    fn set_of(&self, icache_set: usize) -> usize {
        (icache_set >> self.shift) & (self.sets - 1)
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Opens a comparison (same contract as [`Cshr::insert`]).
    pub fn insert(
        &mut self,
        victim_ptag: u16,
        contender_ptag: u16,
        icache_set: usize,
    ) -> Option<Resolution> {
        self.stats.inserted += 1;
        let set = self.set_of(icache_set);
        let way = (0..self.ways).find(|&w| !self.entries[self.idx(set, w)].valid);
        let (way, forced) = match way {
            Some(w) => (w, None),
            None => {
                let w = self.lru[set].lru_way();
                let old = self.entries[self.idx(set, w)];
                self.stats.evicted_unresolved += 1;
                (
                    w,
                    Some(Resolution {
                        victim_ptag: old.victim,
                        victim_won: true,
                    }),
                )
            }
        };
        let i = self.idx(set, way);
        self.entries[i] = LegacyEntry {
            valid: true,
            victim: victim_ptag,
            contender: contender_ptag,
        };
        self.lru[set].touch(way);
        forced
    }

    /// Searches and resolves matches (same contract as
    /// [`Cshr::search`]).
    pub fn search(&mut self, fetched_ptag: u16, icache_set: usize) -> Vec<Resolution> {
        let set = self.set_of(icache_set);
        let mut out = Vec::new();
        for w in 0..self.ways {
            let i = self.idx(set, w);
            let e = self.entries[i];
            if !e.valid {
                continue;
            }
            if e.victim == fetched_ptag {
                self.stats.victim_first += 1;
                out.push(Resolution {
                    victim_ptag: e.victim,
                    victim_won: true,
                });
                self.entries[i].valid = false;
                self.lru[set].clear(w);
            } else if e.contender == fetched_ptag {
                self.stats.contender_first += 1;
                out.push(Resolution {
                    victim_ptag: e.victim,
                    victim_won: false,
                });
                self.entries[i].valid = false;
                self.lru[set].clear(w);
            }
        }
        out
    }
}

/// Figure 6's bucket boundaries: comparisons needing `[0,50)`,
/// `[50,100)`, ..., `[350,400)` concurrent slots, and `>= 400`.
pub const LIFETIME_BUCKETS: usize = 9;

/// An unbounded CSHR twin that records, for every comparison, how
/// many other comparisons were inserted before it resolved — the data
/// behind Figure 6's capacity-sizing argument. Tracks full block
/// addresses (oracle instrumentation, not hardware).
///
/// The three bookkeeping `HashMap`s here are the only map-backed state
/// on the admission path, and they exist *only* when Figure-6
/// instrumentation is explicitly requested
/// ([`crate::AcicIcache::with_unbounded_instrumentation`]); a default
/// ACIC run never constructs this type, so the maps cost nothing.
#[derive(Clone, Debug, Default)]
pub struct UnboundedCshr {
    by_victim: HashMap<u64, u64>, // victim block -> insert sequence
    by_contender: HashMap<u64, Vec<u64>>,
    open: HashMap<u64, (u64, u64)>, // seq -> (victim, contender)
    insert_seq: u64,
    /// Histogram over [`LIFETIME_BUCKETS`] lifetime buckets.
    pub lifetime_counts: [u64; LIFETIME_BUCKETS],
}

impl UnboundedCshr {
    /// Creates an empty instrumentation structure.
    pub fn new() -> Self {
        UnboundedCshr::default()
    }

    fn record_lifetime(&mut self, opened_at: u64) {
        let lifetime = self.insert_seq - opened_at;
        let bucket = ((lifetime / 50) as usize).min(LIFETIME_BUCKETS - 1);
        self.lifetime_counts[bucket] += 1;
    }

    fn resolve_seq(&mut self, seq: u64) {
        if let Some((victim, contender)) = self.open.remove(&seq) {
            self.by_victim.remove(&victim);
            if let Some(v) = self.by_contender.get_mut(&contender) {
                v.retain(|&s| s != seq);
                if v.is_empty() {
                    self.by_contender.remove(&contender);
                }
            }
            self.record_lifetime(seq);
        }
    }

    /// Opens a comparison (full block addresses).
    pub fn insert(&mut self, victim: BlockAddr, contender: BlockAddr) {
        let v = victim.raw();
        let c = contender.raw();
        // A re-inserted victim implies its previous comparison resolved
        // (it must have been re-fetched to re-enter the filter).
        if let Some(&old) = self.by_victim.get(&v) {
            self.resolve_seq(old);
        }
        let seq = self.insert_seq;
        self.insert_seq += 1;
        self.open.insert(seq, (v, c));
        self.by_victim.insert(v, seq);
        self.by_contender.entry(c).or_default().push(seq);
    }

    /// Observes a fetched block, resolving any matching comparisons.
    pub fn on_fetch(&mut self, block: BlockAddr) {
        let b = block.raw();
        if let Some(&seq) = self.by_victim.get(&b) {
            self.resolve_seq(seq);
        }
        if let Some(seqs) = self.by_contender.remove(&b) {
            for seq in seqs {
                if let Some((victim, _)) = self.open.remove(&seq) {
                    self.by_victim.remove(&victim);
                    self.record_lifetime(seq);
                }
            }
        }
    }

    /// Comparisons still open (never resolved).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Total comparisons opened.
    pub fn inserted(&self) -> u64 {
        self.insert_seq
    }

    /// Fraction of resolved comparisons per lifetime bucket, with
    /// never-resolved comparisons folded into the final (`>= 400`)
    /// bucket as the paper's "InF" column.
    pub fn fractions_with_unresolved(&self) -> [f64; LIFETIME_BUCKETS] {
        let mut counts = self.lifetime_counts;
        counts[LIFETIME_BUCKETS - 1] += self.open.len() as u64;
        let total: u64 = counts.iter().sum();
        let mut out = [0.0; LIFETIME_BUCKETS];
        if total > 0 {
            for (o, c) in out.iter_mut().zip(counts.iter()) {
                *o = *c as f64 / total as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_match_wins() {
        let mut c = Cshr::new(8, 32, 64);
        c.insert(1, 2, 0);
        let r = c.search(1, 0);
        assert_eq!(
            r,
            vec![Resolution {
                victim_ptag: 1,
                victim_won: true
            }]
        );
        // Entry consumed.
        assert!(c.search(1, 0).is_empty());
        assert_eq!(c.stats().victim_first, 1);
    }

    #[test]
    fn contender_match_loses() {
        let mut c = Cshr::new(8, 32, 64);
        c.insert(1, 2, 0);
        let r = c.search(2, 0);
        assert_eq!(r[0].victim_ptag, 1);
        assert!(!r[0].victim_won);
    }

    #[test]
    fn multiple_contender_matches_resolve_together() {
        // The same contender can defend against several victims
        // (§III-C2): one fetch resolves all of them.
        let mut c = Cshr::new(8, 32, 64);
        c.insert(10, 99, 0);
        c.insert(11, 99, 0);
        c.insert(12, 99, 0);
        let r = c.search(99, 0);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|x| !x.victim_won));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn victim_match_beats_contender_match_on_same_entry() {
        // A self-comparison (same partial tag on both sides) must
        // resolve as a victim win, exactly like the legacy `else if`.
        let mut c = Cshr::new(8, 32, 64);
        c.insert(7, 7, 0);
        let r = c.search(7, 0);
        assert_eq!(r.len(), 1);
        assert!(r[0].victim_won);
        assert_eq!(c.stats().victim_first, 1);
        assert_eq!(c.stats().contender_first, 0);
    }

    #[test]
    fn set_mapping_uses_top_bits() {
        let c = Cshr::new(8, 32, 64);
        // 64 i-cache sets (6 bits), 8 CSHR sets: shift 3.
        assert_eq!(c.set_of(0b000_111), 0);
        assert_eq!(c.set_of(0b111_000), 7);
    }

    #[test]
    fn searches_only_within_mapped_set() {
        let mut c = Cshr::new(8, 32, 64);
        c.insert(5, 6, 0); // CSHR set 0
        assert!(c.search(5, 63).is_empty()); // CSHR set 7
        assert_eq!(c.search(5, 7).len(), 1); // still set 0
    }

    #[test]
    fn capacity_eviction_gives_benefit_of_doubt() {
        let mut c = Cshr::new(1, 2, 64);
        assert!(c.insert(1, 101, 0).is_none());
        assert!(c.insert(2, 102, 0).is_none());
        let forced = c.insert(3, 103, 0).expect("evicts LRU entry");
        assert_eq!(forced.victim_ptag, 1);
        assert!(forced.victim_won);
        assert_eq!(c.stats().evicted_unresolved, 1);
    }

    #[test]
    fn search_into_reuses_buffer() {
        let mut c = Cshr::new(8, 32, 64);
        let mut buf = ResolutionBuf::new();
        c.insert(1, 2, 0);
        c.search_into(1, 0, &mut buf);
        assert_eq!(buf.len(), 1);
        // A fresh search clears the stale contents first.
        c.search_into(1, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn sixty_four_way_set_works() {
        // The widest supported associativity exercises the full-width
        // validity mask (`ways_mask(64)`).
        let mut c = Cshr::new(1, MAX_CSHR_WAYS, 64);
        for i in 0..MAX_CSHR_WAYS as u16 {
            assert!(c.insert(i, 1000 + i, 0).is_none());
        }
        assert_eq!(c.occupancy(), MAX_CSHR_WAYS);
        let forced = c.insert(999, 1999, 0).expect("full set evicts");
        assert_eq!(forced.victim_ptag, 0);
    }

    #[test]
    fn unbounded_lifetimes_counted() {
        let mut u = UnboundedCshr::new();
        u.insert(BlockAddr::new(1), BlockAddr::new(100));
        for i in 0..60u64 {
            u.insert(BlockAddr::new(2 + i), BlockAddr::new(200 + i));
        }
        u.on_fetch(BlockAddr::new(1)); // resolved after 60 inserts
        assert_eq!(u.lifetime_counts[1], 1, "lifetime 60 lands in [50,100)");
    }

    #[test]
    fn unbounded_unresolved_fold_into_inf() {
        let mut u = UnboundedCshr::new();
        u.insert(BlockAddr::new(1), BlockAddr::new(2));
        let f = u.fractions_with_unresolved();
        assert_eq!(f[LIFETIME_BUCKETS - 1], 1.0);
    }

    #[test]
    fn unbounded_reinsert_resolves_prior() {
        let mut u = UnboundedCshr::new();
        u.insert(BlockAddr::new(1), BlockAddr::new(2));
        u.insert(BlockAddr::new(1), BlockAddr::new(3));
        assert_eq!(u.open_count(), 1);
        assert_eq!(u.lifetime_counts[0], 1);
    }
}
