//! DSB's adaptive bypassing (Gao & Wilkerson, JWAC 2010): bypass
//! incoming blocks with a probability that is tuned by dueling each
//! bypass decision against the victim it saved.
//!
//! When a block is bypassed, the (bypassed, saved-victim) pair is
//! remembered; whichever is referenced first decides whether the
//! bypass helped (victim reused first) or hurt (bypassed block needed
//! first), and the bypass probability is nudged accordingly. DSB pairs
//! this with segmented-LRU replacement
//! ([`crate::policy::slru::SlruPolicy`]).

use crate::bypass::AdmissionPolicy;
use crate::ctx::AccessCtx;
use acic_types::hash::SplitMix64;
use acic_types::TaggedBlock;

/// Number of dueling-pair slots (Table IV notes 2 sampled sets; we
/// track a comparable handful of in-flight duels).
const DUEL_SLOTS: usize = 16;
/// Probability denominator.
const DENOM: u64 = 64;
/// Adjustment step per duel outcome.
const STEP: u64 = 4;

#[derive(Clone, Copy, Debug, Default)]
struct Duel {
    bypassed: Option<TaggedBlock>,
    victim: Option<TaggedBlock>,
}

/// DSB adaptive bypass policy.
///
/// Starts non-bypassing (probability 0) and learns.
#[derive(Clone, Debug)]
pub struct DsbAdmission {
    bypass_num: u64,
    duels: [Duel; DUEL_SLOTS],
    next_slot: usize,
    rng: SplitMix64,
}

impl DsbAdmission {
    /// Creates the policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        DsbAdmission {
            bypass_num: 0,
            duels: [Duel::default(); DUEL_SLOTS],
            next_slot: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Current bypass probability in `[0, 1]`.
    pub fn bypass_probability(&self) -> f64 {
        self.bypass_num as f64 / DENOM as f64
    }
}

impl AdmissionPolicy for DsbAdmission {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dsb"
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
        let bypass = self.bypass_num > 0 && self.rng.chance(self.bypass_num, DENOM);
        // Every decision opens a duel so both outcomes can train.
        self.duels[self.next_slot] = Duel {
            bypassed: Some(incoming),
            victim: Some(victim),
        };
        self.next_slot = (self.next_slot + 1) % DUEL_SLOTS;
        if bypass {
            return false;
        }
        // Not bypassing: probe occasionally to discover bypass value
        // even from probability zero (the original seeds exploration
        // through its sampled dueling sets).
        if self.bypass_num == 0 && self.rng.chance(1, 32) {
            return false;
        }
        true
    }

    fn on_demand_access(&mut self, block: TaggedBlock, _ctx: &AccessCtx<'_>) {
        for duel in &mut self.duels {
            if duel.bypassed == Some(block) {
                // The block we kept out was needed first: bypassing hurt.
                self.bypass_num = self.bypass_num.saturating_sub(STEP);
                *duel = Duel::default();
            } else if duel.victim == Some(block) {
                // The victim we saved was reused first: bypassing helped.
                self.bypass_num = (self.bypass_num + STEP).min(DENOM);
                *duel = Duel::default();
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
    fn starts_admitting() {
        let mut p = DsbAdmission::new(1);
        assert_eq!(p.bypass_probability(), 0.0);
        let admitted = (0..100)
            .filter(|i| p.should_admit(tb(*i), Some(tb(999)), &ctx()))
            .count();
        assert!(
            admitted > 85,
            "mostly admits at probability zero: {admitted}"
        );
    }

    #[test]
    fn victim_reuse_increases_bypassing() {
        let mut p = DsbAdmission::new(2);
        for i in 0..200u64 {
            let incoming = tb(1000 + i);
            let victim = tb(i % 4);
            p.should_admit(incoming, Some(victim), &ctx());
            // Victim is always reused first -> bypass is good.
            p.on_demand_access(victim, &ctx());
        }
        assert!(
            p.bypass_probability() > 0.5,
            "probability = {}",
            p.bypass_probability()
        );
    }

    #[test]
    fn incoming_reuse_decreases_bypassing() {
        let mut p = DsbAdmission::new(3);
        p.bypass_num = DENOM;
        for i in 0..200u64 {
            let incoming = tb(1000 + i);
            p.should_admit(incoming, Some(tb(5)), &ctx());
            p.on_demand_access(incoming, &ctx());
        }
        assert!(
            p.bypass_probability() < 0.2,
            "probability = {}",
            p.bypass_probability()
        );
    }

    #[test]
    fn no_contender_admits() {
        let mut p = DsbAdmission::new(4);
        assert!(p.should_admit(tb(1), None, &ctx()));
    }
}
