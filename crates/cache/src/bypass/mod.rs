//! Bypass / admission policies.
//!
//! Two families share one interface:
//!
//! * **Direct fill bypass** (DSB, OBM): on a miss, decide whether the
//!   incoming block enters the i-cache at all.
//! * **i-Filter victim admission** (access-count comparison,
//!   OPT-bypass, and ACIC itself in `acic-core`): decide whether an
//!   i-Filter victim displaces the set's contender block.
//!
//! Both answer the same question — *should `incoming` be admitted, at
//! the cost of `contender`?* — so they all implement
//! [`AdmissionPolicy`].

pub mod access_count;
pub mod dsb;
pub mod obm;
pub mod opt_bypass;

use crate::ctx::AccessCtx;
use acic_types::TaggedBlock;

/// Decides whether an incoming block should be admitted into the
/// cache, displacing `contender`.
pub trait AdmissionPolicy: Send {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// A deep copy behind a fresh box: the admission state of a
    /// forked simulator checkpoint.
    fn clone_box(&self) -> Box<dyn AdmissionPolicy>;

    /// Admission decision. `contender` is `None` when the target set
    /// still has invalid ways (admission is then free and the driver
    /// usually skips the query).
    fn should_admit(
        &mut self,
        incoming: TaggedBlock,
        contender: Option<TaggedBlock>,
        ctx: &AccessCtx<'_>,
    ) -> bool;

    /// Observes a demand access (training hook; default no-op).
    fn on_demand_access(&mut self, _block: TaggedBlock, _ctx: &AccessCtx<'_>) {}

    /// Observes the final outcome of a fill this policy allowed
    /// (training hook for policies that watch their own decisions).
    fn on_fill(
        &mut self,
        _incoming: TaggedBlock,
        _evicted: Option<TaggedBlock>,
        _ctx: &AccessCtx<'_>,
    ) {
    }
}

impl Clone for Box<dyn AdmissionPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Admits everything — the "always insert i-Filter victim" arm of
/// Figure 3a and the default for plain caches.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "always-admit"
    }

    fn should_admit(
        &mut self,
        _incoming: TaggedBlock,
        _contender: Option<TaggedBlock>,
        _ctx: &AccessCtx<'_>,
    ) -> bool {
        true
    }
}

/// Admits nothing — used by ablation tests ("throw i-Filter victims
/// away blindly", §III).
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverAdmit;

impl AdmissionPolicy for NeverAdmit {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "never-admit"
    }

    fn should_admit(
        &mut self,
        _incoming: TaggedBlock,
        _contender: Option<TaggedBlock>,
        _ctx: &AccessCtx<'_>,
    ) -> bool {
        false
    }
}

/// Admits with a fixed probability — the "random bypass with 60%
/// accuracy" comparison of Figure 12b.
#[derive(Clone, Debug)]
pub struct RandomAdmit {
    rng: acic_types::hash::SplitMix64,
    num: u64,
    denom: u64,
}

impl RandomAdmit {
    /// Admits with probability `num / denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn new(seed: u64, num: u64, denom: u64) -> Self {
        assert!(denom > 0, "denominator must be positive");
        RandomAdmit {
            rng: acic_types::hash::SplitMix64::new(seed),
            num,
            denom,
        }
    }
}

impl AdmissionPolicy for RandomAdmit {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "random-admit"
    }

    fn should_admit(
        &mut self,
        _incoming: TaggedBlock,
        _contender: Option<TaggedBlock>,
        _ctx: &AccessCtx<'_>,
    ) -> bool {
        self.rng.chance(self.num, self.denom)
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
    fn always_and_never() {
        let ctx = AccessCtx::demand(BlockAddr::new(1), 0);
        assert!(AlwaysAdmit.should_admit(tb(1), None, &ctx));
        assert!(!NeverAdmit.should_admit(tb(1), None, &ctx));
    }

    #[test]
    fn random_rate_is_plausible() {
        let ctx = AccessCtx::demand(BlockAddr::new(1), 0);
        let mut r = RandomAdmit::new(7, 3, 4);
        let admitted = (0..10_000)
            .filter(|_| r.should_admit(tb(1), None, &ctx))
            .count();
        assert!((7200..=7800).contains(&admitted), "admitted = {admitted}");
    }
}
