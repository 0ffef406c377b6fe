//! OBM — optimal bypass monitor (Li et al., PACT 2012).
//!
//! OBM observes (incoming, victim) pairs in a replacement history
//! table (RHT); whichever block of a pair is referenced first reveals
//! what the *optimal* bypass decision would have been, and a
//! signature-indexed bypass decision counter table (BDCT) accumulates
//! those outcomes. Parameters follow Table IV: 21-bit tags, 10-bit
//! signature, 128-entry RHT, 1024-entry BDCT with 4-bit counters.
//!
//! Adaptation note: signatures come from a hash of the incoming block
//! address (the fetch stream has no load PC).

use crate::bypass::AdmissionPolicy;
use crate::ctx::AccessCtx;
use acic_types::hash::{fold, mix64, SplitMix64};
use acic_types::{SatCounter, TaggedBlock};

/// RHT entries (Table IV).
const RHT_ENTRIES: usize = 128;
/// BDCT entries (Table IV).
const BDCT_ENTRIES: usize = 1024;
/// Tag width stored in the RHT (Table IV).
const TAG_BITS: u32 = 21;
/// Sampling rate denominator for opening a monitor entry.
const SAMPLE_DENOM: u64 = 8;

#[derive(Clone, Copy, Debug, Default)]
struct RhtEntry {
    incoming: u32,
    victim: u32,
    signature: u16,
    valid: bool,
}

/// OBM bypass policy.
#[derive(Clone, Debug)]
pub struct ObmAdmission {
    rht: [RhtEntry; RHT_ENTRIES],
    next_slot: usize,
    bdct: Vec<SatCounter>,
    rng: SplitMix64,
}

impl ObmAdmission {
    /// Creates the monitor with a deterministic sampling seed.
    pub fn new(seed: u64) -> Self {
        ObmAdmission {
            rht: [RhtEntry::default(); RHT_ENTRIES],
            next_slot: 0,
            // 4-bit counters, weakly below midpoint = admit by default.
            bdct: vec![SatCounter::new_weakly_low(4); BDCT_ENTRIES],
            rng: SplitMix64::new(seed),
        }
    }

    fn tag(block: TaggedBlock) -> u32 {
        fold(mix64(block.ident()), TAG_BITS) as u32
    }

    fn signature(block: TaggedBlock) -> u16 {
        fold(mix64(block.ident()) ^ 0xb10c, 10) as u16
    }

    /// Whether the BDCT currently says "bypass" for this block's
    /// signature (test hook).
    pub fn predicts_bypass(&self, block: TaggedBlock) -> bool {
        self.bdct[Self::signature(block) as usize].is_high()
    }
}

impl AdmissionPolicy for ObmAdmission {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "obm"
    }

    fn should_admit(
        &mut self,
        incoming: TaggedBlock,
        contender: Option<TaggedBlock>,
        _ctx: &AccessCtx<'_>,
    ) -> bool {
        let Some(victim) = contender else {
            return true;
        };
        let sig = Self::signature(incoming);
        // Sample a monitor entry (independent of the actual decision —
        // the monitor learns what OPT would do either way).
        if self.rng.chance(1, SAMPLE_DENOM) {
            self.rht[self.next_slot] = RhtEntry {
                incoming: Self::tag(incoming),
                victim: Self::tag(victim),
                signature: sig,
                valid: true,
            };
            self.next_slot = (self.next_slot + 1) % RHT_ENTRIES;
        }
        !self.bdct[sig as usize].is_high()
    }

    fn on_demand_access(&mut self, block: TaggedBlock, _ctx: &AccessCtx<'_>) {
        let tag = Self::tag(block);
        for e in &mut self.rht {
            if !e.valid {
                continue;
            }
            if e.incoming == tag {
                // Incoming block referenced first: keeping it was right.
                self.bdct[e.signature as usize].decrement();
                e.valid = false;
            } else if e.victim == tag {
                // Victim referenced first: bypassing was right.
                self.bdct[e.signature as usize].increment();
                e.valid = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    fn ctx() -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(0), 0)
    }

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn admits_by_default() {
        let mut p = ObmAdmission::new(1);
        assert!(p.should_admit(tb(1), Some(tb(2)), &ctx()));
    }

    #[test]
    fn victim_first_reuse_trains_toward_bypass() {
        let mut p = ObmAdmission::new(2);
        let incoming = tb(100);
        let victim = tb(7);
        for _ in 0..200 {
            p.should_admit(incoming, Some(victim), &ctx());
            p.on_demand_access(victim, &ctx());
        }
        assert!(p.predicts_bypass(incoming));
        assert!(!p.should_admit(incoming, Some(victim), &ctx()));
    }

    #[test]
    fn incoming_first_reuse_trains_toward_admit() {
        let mut p = ObmAdmission::new(3);
        let incoming = tb(100);
        // Pre-bias toward bypass, then watch it unlearn.
        p.bdct[ObmAdmission::signature(incoming) as usize].set(15);
        let victim = tb(7);
        for _ in 0..400 {
            p.should_admit(incoming, Some(victim), &ctx());
            p.on_demand_access(incoming, &ctx());
        }
        assert!(!p.predicts_bypass(incoming));
    }

    #[test]
    fn resolved_entries_are_freed() {
        let mut p = ObmAdmission::new(4);
        for i in 0..1000u64 {
            p.should_admit(tb(i), Some(tb(i + 5000)), &ctx());
            p.on_demand_access(tb(i), &ctx());
        }
        // All matched entries must be invalid now.
        let stale = p.rht.iter().filter(|e| e.valid).count();
        assert!(stale <= RHT_ENTRIES);
    }
}
