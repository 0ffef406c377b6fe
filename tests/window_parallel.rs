//! Window-parallel execution pins: the worker count must be
//! unobservable in the output.
//!
//! `Engine::run_windowed` derives a `WindowPlan` before any window
//! runs, executes every window on a private fresh checkpoint, and
//! reduces outcomes in canonical window order — so running the plan on
//! one worker *is* the serial execution of the windowed schedule, and
//! any other worker count must pool bit-identical `SampledStats` and
//! identical statistics blocks. These tests pin that across
//! organizations (including the oracle-backed ones), multi-tenant
//! interleaves, generator-backed, materialized, and
//! `.acictrace`-replayed traces, and worker counts {1, 2, 7}.

use acic_sim::{Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport, WindowPlan};
use acic_trace::{PackedTrace, TraceSource, VecTrace};
use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload};

fn sched() -> SampleSchedule {
    SampleSchedule::Periodic {
        period: 150_000,
        warmup_len: 40_000,
        detailed_len: 15_000,
    }
}

fn cfg(org: IcacheOrg) -> SimConfig {
    SimConfig::default().with_org(org).with_schedule(sched())
}

/// Full bit-identity: every counter the report carries, not just the
/// pooled estimators. `SampledStats` is `PartialEq` over raw `f64`s,
/// so equality there is bit-level, not approximate.
fn assert_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.sampled, b.sampled, "{what}: pooled SampledStats");
    assert_eq!(a.total_instructions, b.total_instructions, "{what}");
    assert_eq!(a.total_cycles, b.total_cycles, "{what}");
    assert_eq!(a.measured_instructions, b.measured_instructions, "{what}");
    assert_eq!(a.measured_cycles, b.measured_cycles, "{what}");
    assert_eq!(a.l1i, b.l1i, "{what}: l1i");
    assert_eq!(a.l1d, b.l1d, "{what}: l1d");
    assert_eq!(a.l2, b.l2, "{what}: l2");
    assert_eq!(a.l3, b.l3, "{what}: l3");
    assert_eq!(a.dram_accesses, b.dram_accesses, "{what}");
    assert_eq!(a.branch, b.branch, "{what}: branch");
    assert_eq!(a.prefetch, b.prefetch, "{what}: prefetch");
    assert_eq!(a.context_switches, b.context_switches, "{what}");
    assert_eq!(a.acic, b.acic, "{what}: acic");
    assert_eq!(a.cshr, b.cshr, "{what}: cshr");
    // Catch-all for any field not listed above: `SimReport` carries
    // `f64`s, so equality of the shortest-round-trip `Debug` rendering
    // is bit-level equality of every counter and estimator.
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: full report");
}

fn pin_worker_counts<W: TraceSource + Sync>(cfg: &SimConfig, wl: &W, what: &str) -> SimReport {
    let serial = Engine::run_windowed(cfg, wl, 1);
    assert!(
        serial.sampled.is_some(),
        "{what}: windowed run must be sampled"
    );
    for workers in [2usize, 7] {
        let parallel = Engine::run_windowed(cfg, wl, workers);
        assert_identical(&serial, &parallel, &format!("{what} @ {workers} workers"));
    }
    serial
}

#[test]
fn worker_count_is_unobservable_across_organizations() {
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 600_000);
    for org in [IcacheOrg::Lru, IcacheOrg::Srrip, IcacheOrg::acic_default()] {
        let label = format!("{org:?}");
        let r = pin_worker_counts(&cfg(org), &wl, &label);
        assert!(r.ipc() > 0.0, "{label}: ipc");
        let s = r.sampled.unwrap();
        assert!(s.windows >= 3, "{label}: windows = {}", s.windows);
        assert!(s.detailed_instructions > 0, "{label}");
    }
}

#[test]
fn oracle_cursor_handoff_is_deterministic() {
    // OPT consults the reuse oracle; windowed mode hands each worker a
    // cursor pre-seeked to its window's first block run. The handoff
    // must be position-exact for every worker count.
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 500_000);
    let r = pin_worker_counts(&cfg(IcacheOrg::Opt), &wl, "opt");
    assert!(r.l1i.demand_misses > 0, "opt simulated real traffic");
}

#[test]
fn bounded_reach_plans_stay_deterministic() {
    // Bounded-reach plans (`WindowPlan::with_warm_reach`) exercise the
    // paths a default full-prefix plan leaves trivial: a nonzero O(1)
    // skip to each warm start and mid-trace oracle cursor seeks.
    // Fidelity is explicitly out of scope for bounded reaches (module
    // docs); worker-count determinism is not.
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 500_000);
    let c = cfg(IcacheOrg::Opt);
    let plan = WindowPlan::with_warm_reach(500_000, sched(), c.warmup_fraction, Some(60_000))
        .expect("plannable");
    assert!(
        plan.windows.iter().skip(1).all(|w| w.warm_start > 0),
        "bounded reach must leave real prefixes to skip"
    );
    let serial = Engine::run_windowed_with(&c, &wl, 1, &plan);
    assert!(serial.sampled.is_some());
    for workers in [2usize, 7] {
        let parallel = Engine::run_windowed_with(&c, &wl, workers, &plan);
        assert_identical(
            &serial,
            &parallel,
            &format!("bounded reach @ {workers} workers"),
        );
    }
}

#[test]
fn multi_tenant_interleaves_pool_identically() {
    let wl = MultiTenantWorkload::new(5_000)
        .suite_tenants(3, 200_000)
        .build();
    let r = pin_worker_counts(&cfg(IcacheOrg::acic_default()), &wl, "multi-tenant");
    assert!(
        r.context_switches > 0,
        "windowed interiors must observe tenant switches"
    );
}

#[test]
fn replayed_traces_match_generator_backed_runs() {
    // The same stream through all three source kinds: generated on
    // the fly, materialized in memory, and round-tripped through an
    // on-disk `.acictrace` replay. Window planning keys off positions,
    // not source internals, so all of them — at any worker count —
    // must produce the identical report.
    let generated = SyntheticWorkload::with_instructions(AppProfile::media_streaming(), 600_000);
    let materialized = VecTrace::from_source(&generated);
    let packed = PackedTrace::from_source(&materialized);
    let dir = std::env::temp_dir().join(format!("acic-window-parallel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("media-streaming-600k.acictrace");
    packed.write_to(&path).expect("write trace");
    let replayed = PackedTrace::read_from(&path).expect("replay trace");
    std::fs::remove_dir_all(&dir).ok();

    let c = cfg(IcacheOrg::acic_default());
    let from_gen = pin_worker_counts(&c, &generated, "generator-backed");
    let from_vec = pin_worker_counts(&c, &materialized, "materialized");
    let from_disk = pin_worker_counts(&c, &replayed, "replayed");
    assert_identical(&from_gen, &from_vec, "generator vs materialized");
    assert_identical(&from_gen, &from_disk, "generator vs replayed");
}

#[test]
fn zero_workers_mean_one() {
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 400_000);
    let c = cfg(IcacheOrg::Lru);
    let zero = Engine::run_windowed(&c, &wl, 0);
    let one = Engine::run_windowed(&c, &wl, 1);
    assert_identical(&zero, &one, "workers 0 vs 1");
}

#[test]
fn short_traces_fall_back_to_the_serial_engine() {
    // Too short to sample: the planner refuses and run_windowed must
    // defer to Engine::run's degenerate-to-full behavior, identically
    // for every worker count.
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 30_000);
    let c = SimConfig::default().with_schedule(SampleSchedule::default_sampled());
    let serial = Engine::run(&c, &wl);
    for workers in [1usize, 4] {
        let windowed = Engine::run_windowed(&c, &wl, workers);
        assert!(windowed.sampled.is_none(), "degenerated to Full");
        assert_eq!(serial.total_cycles, windowed.total_cycles);
        assert_eq!(serial.l1i.demand_misses, windowed.l1i.demand_misses);
    }
}

#[test]
fn full_schedules_fall_back_to_the_serial_engine() {
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 100_000);
    let c = SimConfig::default();
    let serial = Engine::run(&c, &wl);
    let windowed = Engine::run_windowed(&c, &wl, 4);
    assert_eq!(serial.total_cycles, windowed.total_cycles);
    assert_eq!(serial.l1i, windowed.l1i);
    assert!(windowed.sampled.is_none());
}
