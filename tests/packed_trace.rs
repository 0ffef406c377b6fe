//! Property tests pinning the packed trace format: `VecTrace` ↔
//! `PackedTrace` round-trips bit for bit (including ASID switch
//! boundaries), index-jump `skip` is equivalent to walking, the
//! run-native walk equals the `BlockRuns` adapter, and the on-disk
//! container rejects corruption and truncation at arbitrary offsets.

use acic_repro::sim::functional::run_functional;
use acic_repro::sim::IcacheOrg;
use acic_repro::trace::{
    BlockRun, BlockRuns, BranchClass, GroupedRuns, Instr, PackedTrace, TraceSource, VecTrace,
    SKIP_STRIDE,
};
use acic_repro::types::{Addr, Asid};
use acic_repro::workloads::{AppProfile, MultiTenantWorkload};
use proptest::prelude::*;

/// Builds a plausible instruction stream from raw fuzz words: mostly
/// sequential PCs with branch redirects (to unaligned targets too),
/// loads/stores with mixed locality, and ASID switches at fuzz-chosen
/// points.
fn stream_from_words(words: &[u64], switch_mask: u64) -> Vec<Instr> {
    stream_with_edges(words, switch_mask, 0)
}

/// [`stream_from_words`] plus the record shapes it never produces, for
/// `max_burst > 0`: every ALU word is followed by up to `max_burst`
/// more sequential ALU instructions (`AluRun` records longer than the
/// 31 the header holds, runs crossing several 64 B blocks), some
/// instructions land at a PC no branch explains (explicit PC deltas),
/// and data addresses span all 64 bits (ten-byte data varints).
/// `max_burst == 0` is exactly `stream_from_words`.
fn stream_with_edges(words: &[u64], switch_mask: u64, max_burst: u64) -> Vec<Instr> {
    let mut pc = 0x40_0000u64;
    let mut asid = Asid::HOST;
    let mut out = Vec::with_capacity(words.len());
    for (k, &w) in words.iter().enumerate() {
        if switch_mask != 0 && k as u64 % switch_mask == switch_mask - 1 {
            asid = Asid::new((w % 5) as u16);
        }
        let data = if max_burst == 0 {
            (w >> 8) % (1 << 34)
        } else {
            if (w >> 50) % 8 == 0 {
                pc = (w >> 8) % (1 << 30);
            }
            if w % 10 >= 6 {
                for _ in 0..(w >> 40) % (max_burst + 1) {
                    out.push(Instr::alu(Addr::new(pc)).with_asid(asid));
                    pc += 4;
                }
            }
            w.rotate_left(17)
        };
        let instr = match w % 10 {
            0 | 1 => Instr::load(Addr::new(pc), Addr::new(data)),
            2 => Instr::store(Addr::new(pc), Addr::new(data)),
            3 => Instr::long_alu(Addr::new(pc)),
            4 | 5 => {
                let class = match (w >> 16) % 5 {
                    0 => BranchClass::Conditional,
                    1 => BranchClass::Direct,
                    2 => BranchClass::Call,
                    3 => BranchClass::Return,
                    _ => BranchClass::Indirect,
                };
                Instr::branch(
                    Addr::new(pc),
                    Addr::new((w >> 20) % (1 << 30)),
                    w & 4 != 0,
                    class,
                )
            }
            _ => Instr::alu(Addr::new(pc)),
        };
        pc = instr.next_pc().raw();
        out.push(instr.with_asid(asid));
    }
    out
}

/// The runs a source's [`TraceSource::for_each_run`] reports.
fn walked_runs<T: TraceSource>(t: &T) -> Vec<BlockRun> {
    let mut runs = Vec::new();
    t.for_each_run(|r| runs.push(r));
    runs
}

proptest! {
    #[test]
    fn packed_run_walk_matches_the_block_runs_adapter(
        words in proptest::collection::vec(any::<u64>(), 0..600),
        switch_mask in 0u64..40,
        max_burst in 0u64..90,
    ) {
        let instrs = stream_with_edges(&words, switch_mask, max_burst);
        let packed = PackedTrace::from_instrs("runs-prop", instrs.clone());
        let adapter: Vec<BlockRun> = BlockRuns::new(packed.iter()).collect();
        prop_assert_eq!(&walked_runs(&packed), &adapter);
        // The adapter over the original instructions agrees too, so
        // the run walk is pinned to the source, not just the cursor.
        let direct: Vec<BlockRun> = BlockRuns::new(instrs.iter().copied()).collect();
        prop_assert_eq!(&adapter, &direct);
        // A container round trip walks the same runs.
        let back = PackedTrace::from_bytes(&packed.to_bytes()).expect("own container parses");
        prop_assert_eq!(walked_runs(&back), adapter);
    }

    #[test]
    fn vec_and_packed_traces_are_interchangeable(
        words in proptest::collection::vec(any::<u64>(), 0..600),
        switch_mask in 0u64..40,
    ) {
        let instrs = stream_from_words(&words, switch_mask);
        let vec_trace = VecTrace::with_name(instrs.clone(), "prop");
        let packed = PackedTrace::from_source(&vec_trace);
        prop_assert_eq!(packed.len(), instrs.len() as u64);
        prop_assert_eq!(packed.len_hint(), vec_trace.len_hint());
        // Identical Instr streams, including every ASID boundary.
        let decoded: Vec<Instr> = packed.iter().collect();
        prop_assert_eq!(&decoded, &instrs);
        // And therefore identical run grouping (the unit every cache
        // model consumes) — ASID changes split runs in both.
        let a: Vec<_> = BlockRuns::new(vec_trace.iter()).collect();
        let b: Vec<_> = BlockRuns::new(packed.iter()).collect();
        prop_assert_eq!(a, b);
        // Closing the loop: re-materializing the packed stream into a
        // VecTrace reproduces the original.
        let back: VecTrace = packed.iter().collect();
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), instrs);
    }

    #[test]
    fn skip_then_iter_matches_the_walked_generator_path(
        words in proptest::collection::vec(any::<u64>(), 1..400),
        reps in 1usize..40,
        skip_to in any::<u64>(),
    ) {
        // Tile the fuzz stream so skips regularly cross index-stride
        // boundaries.
        let tile = stream_from_words(&words, 7);
        let instrs: Vec<Instr> = std::iter::repeat_with(|| tile.clone())
            .take(reps)
            .flatten()
            .collect();
        let packed = PackedTrace::from_instrs("skip-prop", instrs.clone());
        let n = skip_to % (instrs.len() as u64 + 10);
        // Index-jump path...
        let mut fast = packed.iter();
        let skipped = PackedTrace::skip(&mut fast, n);
        prop_assert_eq!(skipped, n.min(instrs.len() as u64));
        // ...must land exactly where the element-by-element walk does.
        let walked: Vec<Instr> = instrs.iter().copied().skip(n as usize).collect();
        prop_assert_eq!(fast.collect::<Vec<_>>(), walked);
    }

    #[test]
    fn grouped_runs_skip_hand_off_is_boundary_exact(
        words in proptest::collection::vec(any::<u64>(), 40..400),
        consume in 0u64..40,
        gap in 0u64..6000,
    ) {
        // The engine's fast-forward path: consume some runs, skip a
        // gap through GroupedRuns, resume grouping. The resumed run
        // boundaries must match a plain walk over the same stream.
        let instrs = stream_from_words(&words, 11);
        let tiled: Vec<Instr> = std::iter::repeat_with(|| instrs.clone())
            .take(30)
            .flatten()
            .collect();
        let packed = PackedTrace::from_instrs("ff-prop", tiled.clone());

        let mut runs = GroupedRuns::new(packed.iter());
        let mut consumed = 0u64;
        for _ in 0..consume {
            match runs.next() {
                Some(r) => consumed += r.instrs.len() as u64,
                None => break,
            }
        }
        let dropped = runs.skip_instrs_with(gap, PackedTrace::skip);
        prop_assert!(dropped <= gap);
        let resumed = runs.next();

        let mut slow = GroupedRuns::new(tiled.iter().copied());
        let mut slow_consumed = 0u64;
        while slow_consumed < consumed {
            slow_consumed += slow.next().expect("same stream").instrs.len() as u64;
        }
        let slow_dropped = slow.skip_instrs_with(gap, acic_repro::trace::skip_instrs);
        prop_assert_eq!(dropped, slow_dropped);
        prop_assert_eq!(resumed, slow.next());
    }

    #[test]
    fn container_survives_serialization_and_rejects_bit_flips(
        words in proptest::collection::vec(any::<u64>(), 1..300),
        flip in any::<u64>(),
    ) {
        let instrs = stream_from_words(&words, 13);
        let packed = PackedTrace::from_instrs("disk-prop", instrs);
        let bytes = packed.to_bytes();
        let back = PackedTrace::from_bytes(&bytes).expect("own container parses");
        prop_assert_eq!(&back, &packed);

        // Any single bit flip must be rejected, except inside the
        // stored checksum itself (still a mismatch) — i.e. everywhere.
        let bit = flip % (bytes.len() as u64 * 8);
        let mut corrupt = bytes.clone();
        corrupt[(bit / 8) as usize] ^= 1 << (bit % 8);
        prop_assert!(
            PackedTrace::from_bytes(&corrupt).is_err(),
            "bit flip at {} accepted", bit
        );

        // Any truncation must be rejected.
        let cut = (flip % bytes.len() as u64) as usize;
        prop_assert!(PackedTrace::from_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn skip_strides_are_exercised() {
    // Belt and braces for the property above: make sure the tiled
    // streams actually cross SKIP_STRIDE so the index-jump path runs.
    let tile = stream_from_words(&[1, 12, 23, 34, 45, 56, 67, 78, 89, 90], 3);
    let instrs: Vec<Instr> = std::iter::repeat_with(|| tile.clone())
        .take(2 * SKIP_STRIDE as usize / tile.len() + 2)
        .flatten()
        .collect();
    assert!(instrs.len() as u64 > 2 * SKIP_STRIDE);
    let packed = PackedTrace::from_instrs("stride", instrs.clone());
    let mut it = packed.iter();
    assert_eq!(PackedTrace::skip(&mut it, SKIP_STRIDE + 3), SKIP_STRIDE + 3);
    assert_eq!(it.next(), Some(instrs[SKIP_STRIDE as usize + 3]));
}

#[test]
fn packed_run_walk_covers_the_record_edge_cases() {
    // One hand-built stream hitting every case the run decoder does
    // arithmetic for: an `AluRun` longer than 31 (varint length)
    // starting mid-word after a taken branch to an unaligned target
    // and crossing several 64 B boundaries, an ASID switch inside one
    // block, and a not-taken branch that keeps its run open.
    let mut instrs = vec![Instr::branch(
        Addr::new(0x1000),
        Addr::new(0x2036),
        true,
        BranchClass::Direct,
    )];
    instrs.extend((0..40).map(|i| Instr::alu(Addr::new(0x2036 + 4 * i))));
    let pc = 0x2036 + 4 * 40;
    instrs.push(Instr::alu(Addr::new(pc)).with_asid(Asid::new(3)));
    instrs.push(
        Instr::branch(
            Addr::new(pc + 4),
            Addr::new(0),
            false,
            BranchClass::Conditional,
        )
        .with_asid(Asid::new(3)),
    );
    // Data deltas of ±2^62 take nine- and ten-byte varints, which the
    // walk skips without decoding; more records follow so the skips
    // happen mid-payload, not only in its last bytes.
    instrs.extend((0..24).map(|i| {
        let data = if i % 2 == 0 { 1 << 62 } else { 0x9000 };
        Instr::load(Addr::new(pc + 8 + 4 * i), Addr::new(data)).with_asid(Asid::new(3))
    }));
    let packed = PackedTrace::from_instrs("edges", instrs.clone());
    let want: Vec<BlockRun> = BlockRuns::new(instrs.iter().copied()).collect();
    assert!(
        want.len() >= 5,
        "the stream must span several runs: {want:?}"
    );
    assert_eq!(walked_runs(&packed), want);
    // The empty trace walks no runs, on either path.
    let empty = PackedTrace::from_instrs("empty", Vec::new());
    assert!(walked_runs(&empty).is_empty());
    assert!(walked_runs(&VecTrace::new(Vec::new())).is_empty());
}

#[test]
fn run_functional_is_identical_over_packed_and_vec_traces() {
    // The packed trace takes the run-native walk; the VecTrace of the
    // same instructions takes the default `BlockRuns` adapter. Every
    // report field must agree, for every Figure 10 organization.
    let mt = MultiTenantWorkload::new(3_000)
        .tenant(AppProfile::web_search(), 12_000)
        .tenant(AppProfile::tpc_c(), 12_000)
        .build();
    let vec_trace = VecTrace::from_source(&mt);
    let packed = PackedTrace::from_source(&vec_trace);
    assert!(
        vec_trace.iter().any(|i| !i.asid().is_host()),
        "multi-tenant"
    );
    let mut orgs = vec![IcacheOrg::Lru];
    orgs.extend(IcacheOrg::figure10_set());
    for org in &orgs {
        let a = run_functional(org, &vec_trace);
        let b = run_functional(org, &packed);
        assert!(a.context_switches > 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", org.label());
    }
}
