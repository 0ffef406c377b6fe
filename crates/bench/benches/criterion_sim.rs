//! Criterion benchmark of end-to-end simulation throughput
//! (instructions simulated per wall-clock second).
//!
//! The `sims_per_second` group is the PR-over-PR speed headline: it
//! pits the naive hot path (boxed-policy dispatch, one probe per
//! instruction) against the devirtualized run-batched path for the
//! LRU, SRRIP and ACIC organizations at 1 M instructions. Scale with
//! `ACIC_BENCH_INSTRUCTIONS`.

use acic_cache::policy::PolicyKind;
use acic_cache::{AccessCtx, CacheGeometry, SetAssocCache};
use acic_sim::{functional, IcacheOrg, SimConfig, Simulator};
use acic_trace::{BlockRuns, TraceSource, VecTrace};
use acic_workloads::{AppProfile, SyntheticWorkload};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Naive reference loop: boxed-policy tag store probed once per
/// instruction. This is the pre-optimization hot path kept alive so
/// speedups are measured, not asserted.
fn run_naive_boxed<W: TraceSource>(kind: PolicyKind, workload: &W) -> u64 {
    let geom = CacheGeometry::l1i_32k();
    let mut cache = SetAssocCache::new(geom, kind.build_boxed(geom));
    let mut i = 0u64;
    for instr in workload.iter() {
        i += 1;
        let ctx = AccessCtx::demand(instr.pc().block(), i);
        if !cache.access(&ctx) {
            cache.fill(&ctx);
        }
    }
    cache.stats().demand_misses
}

/// Optimized counterpart of [`run_naive_boxed`]: enum-dispatched
/// policy, one probe per block run. Same tag store, same workload —
/// the measured delta is exactly the devirtualize+batch change.
fn run_batched_devirt<W: TraceSource>(kind: PolicyKind, workload: &W) -> u64 {
    let geom = CacheGeometry::l1i_32k();
    let mut cache = SetAssocCache::new(geom, kind.build(geom));
    let mut i = 0u64;
    for run in BlockRuns::new(workload.iter()) {
        i += 1;
        let ctx = AccessCtx::demand(run.block, i);
        if !cache.access(&ctx) {
            cache.fill(&ctx);
        }
    }
    cache.stats().demand_misses
}

fn bench_throughput(c: &mut Criterion) {
    let n: u64 = std::env::var("ACIC_BENCH_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let mut group = c.benchmark_group("sims_per_second");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n));
    // Materialized trace: measure the simulator, not the generator.
    let wl = VecTrace::from_source(&SyntheticWorkload::with_instructions(
        AppProfile::web_search(),
        n,
    ));
    // Naive baseline: trait-object dispatch, one probe per
    // instruction — the pre-optimization hot loop.
    group.bench_function("naive_boxed_unbatched_lru", |b| {
        b.iter(|| black_box(run_naive_boxed(PolicyKind::Lru, &wl)));
    });
    group.bench_function("naive_unbatched_acic", |b| {
        let org = IcacheOrg::acic_default();
        b.iter(|| black_box(functional::run_unbatched(&org, &wl)));
    });
    // Optimized: enum dispatch, one probe per block run.
    for (name, kind) in [
        ("devirt_batched_lru", PolicyKind::Lru),
        ("devirt_batched_srrip", PolicyKind::Srrip),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_batched_devirt(kind, &wl)));
        });
    }
    group.bench_function("devirt_batched_acic", |b| {
        let org = IcacheOrg::acic_default();
        b.iter(|| black_box(functional::run_functional(&org, &wl)));
    });
    group.finish();
}

fn bench_sim(c: &mut Criterion) {
    const N: u64 = 50_000;
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N));
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), N);
    group.bench_function("lru_fdp", |b| {
        let cfg = SimConfig::default();
        b.iter(|| black_box(Simulator::run(&cfg, &wl)));
    });
    group.bench_function("acic_fdp", |b| {
        let cfg = SimConfig::default().with_org(IcacheOrg::acic_default());
        b.iter(|| black_box(Simulator::run(&cfg, &wl)));
    });
    group.bench_function("opt_oracle", |b| {
        let cfg = SimConfig::default().with_org(IcacheOrg::Opt);
        b.iter(|| black_box(Simulator::run(&cfg, &wl)));
    });
    group.finish();
}

criterion_group!(benches, bench_sim, bench_throughput);
criterion_main!(benches);
