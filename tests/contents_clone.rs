//! `IcacheContents::clone_box` fidelity: a copy taken mid-stream must
//! behave exactly like the original from then on, and must share no
//! state with it.
//!
//! The window-parallel engine forks its warm checkpoint at every
//! sampled window, so a copy that diverged from its original — or
//! leaked writes back into it — would change windowed reports. Every
//! organization of Figures 10/11 plus the LRU, LRU-flush and SRRIP
//! baselines is driven through a prefix, copied, and then:
//!
//! 1. the original and the copy see the same suffix and must return
//!    identical per-access outcomes, statistics, residency and ACIC
//!    counters;
//! 2. the copy is then driven through an unrelated stream, and the
//!    original must be unchanged — both in what it reports and, via a
//!    second copy taken before the disturbance, in how it behaves
//!    afterwards.

use acic_cache::{AccessCtx, AccessOutcome, CacheStats, IcacheContents};
use acic_core::{AcicIcache, AcicStats, CshrStats};
use acic_sim::IcacheOrg;
use acic_trace::{OracleCursor, ReuseOracle, NO_NEXT_USE};
use acic_types::{Asid, BlockAddr, TaggedBlock};

const PREFIX: usize = 20_000;
const SUFFIX: usize = 20_000;
const PROBE: usize = 5_000;
const NOISE: usize = 10_000;

/// A skewed, looping block stream over `span` blocks starting at
/// `base`, alternating between two address spaces every 300 accesses
/// (so flush-on-switch and ASID tags both matter).
fn stream(seed: u64, len: usize, base: u64, span: u64) -> Vec<TaggedBlock> {
    let mut x = seed;
    let mut pc = 0u64;
    (0..len)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly sequential with jumps into a hot region: enough
            // reuse for the policies to learn, enough misses to evict.
            pc = if (x >> 33).is_multiple_of(6) {
                (x >> 40) % span
            } else {
                (pc + 1) % span
            };
            let asid = Asid::new(((i / 300) % 2) as u16);
            BlockAddr::new(base + pc).with_asid(asid)
        })
        .collect()
}

/// Everything observable about one organization at a point in time.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: CacheStats,
    acic: Option<AcicStats>,
    cshr: Option<CshrStats>,
    resident: Vec<bool>,
}

fn observe(c: &dyn IcacheContents, universe: &[TaggedBlock]) -> Observed {
    let acic = c.as_any().downcast_ref::<AcicIcache>();
    Observed {
        stats: c.stats(),
        acic: acic.map(|a| *a.acic_stats()),
        cshr: acic.map(|a| a.cshr_stats()),
        resident: universe.iter().map(|&b| c.contains_block(b)).collect(),
    }
}

/// One demand access the way the simulators drive it: context-switch
/// notification, oracle advance, access, fill on miss, tick.
fn step(
    c: &mut dyn IcacheContents,
    mut cursor: Option<&mut OracleCursor<'_>>,
    asid: &mut Asid,
    tagged: TaggedBlock,
    index: u64,
) -> AccessOutcome {
    if tagged.asid != *asid {
        *asid = tagged.asid;
        c.on_context_switch(*asid);
    }
    let key = tagged.oracle_key();
    let mut next_use = NO_NEXT_USE;
    if let Some(cur) = cursor.as_deref_mut() {
        cur.advance(key);
        next_use = cur.next_use_of(key);
    }
    let mut ctx = AccessCtx::demand_tagged(tagged, index).with_next_use(next_use);
    if let Some(cur) = cursor.as_deref() {
        ctx = ctx.with_oracle(cur);
    }
    let out = c.access(&ctx);
    if !out.hit {
        c.fill(&ctx);
    }
    if c.wants_tick() {
        c.tick(index);
    }
    out
}

/// Drives `c` through `blocks`, numbering accesses from `first`.
fn drive(
    c: &mut dyn IcacheContents,
    mut cursor: Option<&mut OracleCursor<'_>>,
    asid: &mut Asid,
    blocks: &[TaggedBlock],
    first: u64,
) -> Vec<AccessOutcome> {
    blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| step(c, cursor.as_deref_mut(), asid, b, first + i as u64))
        .collect()
}

#[test]
fn cloned_contents_match_and_stay_independent() {
    let prefix = stream(1, PREFIX, 0, 1_500);
    let suffix = stream(2, SUFFIX, 0, 1_500);
    let probe = stream(3, PROBE, 0, 1_500);
    let noise = stream(4, NOISE, 100_000, 3_000);
    let mut universe: Vec<TaggedBlock> = prefix.iter().chain(&suffix).copied().collect();
    universe.sort();
    universe.dedup();
    let keys: Vec<BlockAddr> = prefix
        .iter()
        .chain(&suffix)
        .chain(&probe)
        .map(|b| b.oracle_key())
        .collect();
    let oracle = ReuseOracle::from_sequence(&keys);

    let orgs = IcacheOrg::figure10_set().into_iter().chain([
        IcacheOrg::Lru,
        IcacheOrg::LruFlush,
        IcacheOrg::Srrip,
    ]);
    for org in orgs {
        let label = org.label();
        let mut original = org.build(7);
        let mut cursor = org.needs_oracle().then(|| oracle.cursor());
        let mut asid = Asid::HOST;
        drive(original.as_mut(), cursor.as_mut(), &mut asid, &prefix, 0);

        // 1. Same suffix, same behavior.
        let mut copy = original.clone_box();
        let mut copy_cursor = cursor.clone();
        let mut copy_asid = asid;
        let first = PREFIX as u64;
        let a = drive(
            original.as_mut(),
            cursor.as_mut(),
            &mut asid,
            &suffix,
            first,
        );
        let b = drive(
            copy.as_mut(),
            copy_cursor.as_mut(),
            &mut copy_asid,
            &suffix,
            first,
        );
        assert_eq!(a, b, "{label}: per-access outcomes diverge after the copy");
        let before = observe(original.as_ref(), &universe);
        assert_eq!(
            before,
            observe(copy.as_ref(), &universe),
            "{label}: copy reports differently"
        );
        assert!(before.stats.demand_misses > 0, "{label}: the stream misses");

        // 2. Disturbing the copy leaves the original untouched.
        let mut witness = original.clone_box();
        let mut witness_cursor = cursor.clone();
        let mut witness_asid = asid;
        let mut noise_asid = copy_asid;
        drive(copy.as_mut(), None, &mut noise_asid, &noise, 1_000_000);
        assert_ne!(
            observe(copy.as_ref(), &universe),
            before,
            "{label}: the disturbance must change the copy"
        );
        assert_eq!(
            observe(original.as_ref(), &universe),
            before,
            "{label}: disturbing the copy changed the original"
        );
        let first = (PREFIX + SUFFIX) as u64;
        let a = drive(original.as_mut(), cursor.as_mut(), &mut asid, &probe, first);
        let b = drive(
            witness.as_mut(),
            witness_cursor.as_mut(),
            &mut witness_asid,
            &probe,
            first,
        );
        assert_eq!(
            a, b,
            "{label}: original behaves differently after the disturbance"
        );
        assert_eq!(
            observe(original.as_ref(), &universe),
            observe(witness.as_ref(), &universe),
            "{label}: original's hidden state changed"
        );
    }
}
