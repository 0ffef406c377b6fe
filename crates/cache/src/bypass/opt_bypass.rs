//! OPT-bypass — oracle admission for i-Filter victims (Table IV:
//! "place i-Filter victim in i-cache only if i-Filter victim is known
//! (with oracle knowledge) to have smaller reuse distance than the
//! i-cache contender selected by LRU").
//!
//! This is the upper bound for ACIC's predictor: the same structure,
//! but with perfect knowledge of the future. The paper observes (§IV-E)
//! that OPT-bypass lands close to full OPT replacement, which is what
//! justifies the i-Filter + admission-control decomposition.

use crate::bypass::AdmissionPolicy;
use crate::ctx::AccessCtx;
use acic_types::TaggedBlock;

/// Oracle admission: admit iff the incoming block's next use comes
/// before the contender's.
///
/// Requires an oracle cursor attached to the [`AccessCtx`]; without
/// one, every next-use query answers "never", and the policy admits
/// (ties favor the incoming block, matching the paper's benefit of
/// the doubt).
#[derive(Clone, Copy, Debug, Default)]
pub struct OptBypassAdmission;

impl AdmissionPolicy for OptBypassAdmission {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "opt-bypass"
    }

    fn should_admit(
        &mut self,
        incoming: TaggedBlock,
        contender: Option<TaggedBlock>,
        ctx: &AccessCtx<'_>,
    ) -> bool {
        let Some(contender) = contender else {
            return true;
        };
        ctx.next_use_of(incoming) <= ctx.next_use_of(contender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::ReuseOracle;
    use acic_types::BlockAddr;

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn admits_sooner_reused_block() {
        // Sequence: A B C A ... B is never reused.
        let seq: Vec<BlockAddr> = [10u64, 20, 30, 10]
            .iter()
            .map(|&b| BlockAddr::new(b))
            .collect();
        let oracle = ReuseOracle::from_sequence(&seq);
        let mut cur = oracle.cursor();
        cur.advance(BlockAddr::new(10));
        cur.advance(BlockAddr::new(20));
        cur.advance(BlockAddr::new(30));
        let ctx = AccessCtx::demand(BlockAddr::new(10), 3).with_oracle(&cur);
        let mut p = OptBypassAdmission;
        // Block 10 is used next (position 3); block 20 never again.
        assert!(p.should_admit(tb(10), Some(tb(20)), &ctx));
        assert!(!p.should_admit(tb(20), Some(tb(10)), &ctx));
    }

    #[test]
    fn no_oracle_admits_everything() {
        let ctx = AccessCtx::demand(BlockAddr::new(1), 0);
        let mut p = OptBypassAdmission;
        assert!(p.should_admit(tb(1), Some(tb(2)), &ctx));
    }
}
