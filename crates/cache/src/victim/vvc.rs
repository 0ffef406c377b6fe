//! VVC — the virtual victim cache (Khan et al., PACT 2010).
//!
//! Instead of a separate victim buffer, VVC stores blocks evicted from
//! one set in *predicted-dead* frames of a partner ("receiver") set,
//! found by hashing the block. A lookup that misses in the home set
//! additionally probes the receiver set; a hit there swaps the block
//! back (costing extra cycles). Dead frames are found with a
//! trace-based dead-block predictor (Table IV: 15-bit trace, two
//! 2^14-entry tables of 2-bit counters).
//!
//! The paper finds VVC actually *hurts* the i-cache (§IV-F): victims
//! frequently displace falsely-dead blocks. This implementation
//! reproduces the mechanism so that effect can emerge.
//!
//! Adaptation note: the original signs traces with the PCs of
//! accessing loads; for the fetch stream we fold the fetched block
//! address into the per-line trace instead.

use crate::contents::{AccessOutcome, IcacheContents};
use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use acic_types::hash::{fold, mix64};
use acic_types::{LruStamps, SatCounter, TaggedBlock};

/// Trace signature width (Table IV).
const TRACE_BITS: u32 = 15;
/// Predictor table entries (2^14 each, Table IV).
const TABLE_ENTRIES: usize = 1 << 14;
/// Extra latency of a hit satisfied from a receiver set.
const VIRTUAL_HIT_LATENCY: u32 = 2;

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    block: Option<TaggedBlock>,
    /// Block parked here by another set (a "virtual victim").
    is_victim: bool,
    /// Dead-block predictor trace accumulated over this residency.
    trace: u16,
    /// Prediction made at the last access.
    predicted_dead: bool,
}

/// The virtual victim cache organization.
#[derive(Clone)]
pub struct VvcIcache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    lru: Vec<LruStamps>,
    tables: Vec<SatCounter>, // two banks of TABLE_ENTRIES
    stats: CacheStats,
    /// Victim placements that displaced a live (not-yet-dead) block —
    /// exposed for the paper's §IV-F analysis.
    pub misplaced_victims: u64,
    /// Total victim placements attempted.
    pub placed_victims: u64,
}

impl VvcIcache {
    /// Creates an empty VVC organization.
    pub fn new(geom: CacheGeometry) -> Self {
        VvcIcache {
            geom,
            lines: vec![Line::default(); geom.lines()],
            lru: (0..geom.sets())
                .map(|_| LruStamps::new(geom.ways()))
                .collect(),
            tables: vec![SatCounter::new(2, 0); 2 * TABLE_ENTRIES],
            stats: CacheStats::default(),
            misplaced_victims: 0,
            placed_victims: 0,
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geom.ways() + way
    }

    fn receiver_set(&self, block: TaggedBlock) -> usize {
        // A different set than the home set, derived by hashing.
        let home = self.geom.set_of_tagged(block);
        let hashed = (mix64(block.ident()) as usize) & (self.geom.sets() - 1);
        if hashed == home {
            (hashed + self.geom.sets() / 2) & (self.geom.sets() - 1)
        } else {
            hashed
        }
    }

    fn table_indices(trace: u16) -> [usize; 2] {
        [
            fold(mix64(trace as u64), 14) as usize,
            fold(mix64(trace as u64 ^ 0xdead), 14) as usize,
        ]
    }

    fn predict_dead(&self, trace: u16) -> bool {
        let [a, b] = Self::table_indices(trace);
        self.tables[a].is_high() && self.tables[TABLE_ENTRIES + b].is_high()
    }

    fn train(&mut self, trace: u16, dead: bool) {
        let [a, b] = Self::table_indices(trace);
        self.tables[a].update(dead);
        self.tables[TABLE_ENTRIES + b].update(dead);
    }

    fn update_trace(trace: u16, block: TaggedBlock) -> u16 {
        (fold(mix64((trace as u64) << 20 ^ block.ident()), TRACE_BITS)) as u16
    }

    fn find(&self, set: usize, block: TaggedBlock) -> Option<usize> {
        (0..self.geom.ways()).find(|&w| self.lines[self.idx(set, w)].block == Some(block))
    }

    /// Handles a hit on (set, way): dead-block training and trace
    /// update.
    fn touch(&mut self, set: usize, way: usize, block: TaggedBlock) {
        let i = self.idx(set, way);
        let old_trace = self.lines[i].trace;
        // The last prediction point turned out live.
        self.train(old_trace, false);
        let new_trace = Self::update_trace(old_trace, block);
        let dead = self.predict_dead(new_trace);
        let line = &mut self.lines[i];
        line.trace = new_trace;
        line.predicted_dead = dead;
        line.is_victim = false;
        self.lru[set].touch(way);
    }

    /// Tries to park an evicted block in a predicted-dead frame of its
    /// receiver set.
    fn place_victim(&mut self, block: TaggedBlock) {
        let r = self.receiver_set(block);
        // Find a predicted-dead frame (prefer existing victim frames so
        // real residents survive longer).
        let mut candidate: Option<usize> = None;
        for w in 0..self.geom.ways() {
            let l = &self.lines[self.idx(r, w)];
            if l.block.is_none() {
                candidate = Some(w);
                break;
            }
            if l.predicted_dead {
                if l.is_victim {
                    candidate = Some(w);
                    break;
                }
                if candidate.is_none() {
                    candidate = Some(w);
                }
            }
        }
        let Some(w) = candidate else {
            return; // no dead frame: the victim is simply dropped
        };
        self.placed_victims += 1;
        let i = self.idx(r, w);
        if self.lines[i].block.is_some() && !self.lines[i].is_victim {
            self.misplaced_victims += 1;
        }
        self.lines[i] = Line {
            block: Some(block),
            is_victim: true,
            trace: fold(mix64(block.ident()), TRACE_BITS) as u16,
            predicted_dead: true, // victims stay eviction candidates
        };
        self.lru[r].touch(w);
    }
}

impl IcacheContents for VvcIcache {
    fn clone_box(&self) -> Box<dyn IcacheContents> {
        Box::new(self.clone())
    }

    fn access(&mut self, ctx: &AccessCtx<'_>) -> AccessOutcome {
        let t = ctx.tagged();
        let home = self.geom.set_of_tagged(t);
        let outcome = if let Some(way) = self.find(home, t) {
            self.touch(home, way, t);
            AccessOutcome::hit()
        } else {
            // Probe the receiver set for a parked victim.
            let r = self.receiver_set(t);
            match self.find(r, t) {
                Some(way) if self.lines[self.idx(r, way)].is_victim => {
                    // Virtual hit: move back home.
                    let i = self.idx(r, way);
                    self.lines[i] = Line::default();
                    self.lru[r].clear(way);
                    self.fill(ctx);
                    AccessOutcome::slow_hit(VIRTUAL_HIT_LATENCY)
                }
                _ => AccessOutcome::miss(),
            }
        };
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.record_prefetch(outcome.hit);
            } else {
                self.stats.record_demand(outcome.hit);
            }
        }
        outcome
    }

    fn fill(&mut self, ctx: &AccessCtx<'_>) {
        let t = ctx.tagged();
        let set = self.geom.set_of_tagged(t);
        if self.find(set, t).is_some() {
            return;
        }
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.prefetch_fills += 1;
            } else {
                self.stats.demand_fills += 1;
            }
        }
        // Victim priority: invalid, then parked victims, then LRU.
        let way = (0..self.geom.ways())
            .find(|&w| self.lines[self.idx(set, w)].block.is_none())
            .or_else(|| {
                (0..self.geom.ways())
                    .filter(|&w| self.lines[self.idx(set, w)].is_victim)
                    .min_by_key(|&w| self.lru[set].stamp(w))
            })
            .unwrap_or_else(|| self.lru[set].lru_way());
        let i = self.idx(set, way);
        if let Some(evicted) = self.lines[i].block {
            if ctx.stats_enabled {
                self.stats.evictions += 1;
            }
            let was_victim = self.lines[i].is_victim;
            let trace = self.lines[i].trace;
            if !was_victim {
                // The line died: train its last trace as dead, then try
                // to park it somewhere.
                self.train(trace, true);
                self.lines[i] = Line::default();
                self.place_victim(evicted);
            }
        }
        let i = self.idx(set, way);
        let trace = fold(mix64(ctx.ident()), TRACE_BITS) as u16;
        let dead = self.predict_dead(trace);
        self.lines[i] = Line {
            block: Some(t),
            is_victim: false,
            trace,
            predicted_dead: dead,
        };
        self.lru[set].touch(way);
    }

    fn contains_block(&self, block: TaggedBlock) -> bool {
        let home = self.geom.set_of_tagged(block);
        if self.find(home, block).is_some() {
            return true;
        }
        let r = self.receiver_set(block);
        matches!(self.find(r, block), Some(w) if self.lines[self.idx(r, w)].is_victim)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        "vvc".to_string()
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    fn ctx(b: u64, i: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), i)
    }

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    fn tiny() -> VvcIcache {
        VvcIcache::new(CacheGeometry::from_sets_ways(4, 2))
    }

    #[test]
    fn basic_fill_and_hit() {
        let mut v = tiny();
        assert!(!v.access(&ctx(1, 0)).hit);
        v.fill(&ctx(1, 0));
        assert!(v.access(&ctx(1, 1)).hit);
    }

    #[test]
    fn receiver_set_differs_from_home() {
        let v = tiny();
        for b in 0..64u64 {
            let block = tb(b);
            assert_ne!(v.receiver_set(block), v.geom.set_of_tagged(block));
        }
    }

    #[test]
    fn victim_recoverable_after_parking() {
        let mut v = tiny();
        // Make the predictor call everything dead so parking succeeds.
        for t in v.tables.iter_mut() {
            t.set(3);
        }
        // Fill set 0 (blocks 0, 4 map to set 0 of 4 sets), then evict 0.
        v.fill(&ctx(0, 0));
        v.fill(&ctx(4, 1));
        v.fill(&ctx(8, 2)); // evicts LRU (block 0), which gets parked
        if v.contains_block(tb(0)) {
            let out = v.access(&ctx(0, 3));
            assert!(out.hit);
            assert_eq!(out.extra_latency, VIRTUAL_HIT_LATENCY);
            // And it is back in its home set now.
            assert!(v.find(v.geom.set_of_tagged(tb(0)), tb(0)).is_some());
        }
    }

    #[test]
    fn misplacement_counter_tracks_live_displacement() {
        let mut v = tiny();
        for t in v.tables.iter_mut() {
            t.set(3); // everything predicted dead
        }
        // Park victims until one lands on a live resident.
        for b in 0..32u64 {
            v.fill(&ctx(b, b));
        }
        assert!(v.placed_victims > 0);
        assert!(v.misplaced_victims > 0, "no live blocks were displaced");
    }

    #[test]
    fn dead_training_happens_on_eviction() {
        let mut v = tiny();
        let before: u32 = v.tables.iter().map(|c| c.value() as u32).sum();
        for b in 0..64u64 {
            v.fill(&ctx(b, b));
        }
        let after: u32 = v.tables.iter().map(|c| c.value() as u32).sum();
        assert!(after > before, "evictions should train dead");
    }
}
