//! The traced run: per-layer metrics and the tracing overhead.
//!
//! Each probe times one public entry point of one layer on the
//! workload's first frozen trace (all traces for the trace-store and
//! runner probes), inside a span named after the layer. Host-time
//! metrics are in ns per instruction or per access so they compare
//! across trace sizes; the counts are exact.

use crate::checks::{self, guarded, Repeats};
use crate::e2e::{self, fresh_dir, run_grid, sampled_config, settle};
use crate::metrics::{geomean, median, Better, Ledger, Metrics};
use crate::spans::Tracer;
use crate::{thread_budget, Inputs, Params};
use acic_bench::result_store::report_to_json;
use acic_bench::trace_store::{freeze_with, Provenance, TraceStoreMode};
use acic_sim::mem::MemoryHierarchy;
use acic_sim::{
    run_functional, Engine, FrontEnd, FunctionalReport, IcacheOrg, SampleSchedule, SimConfig,
    SimReport, TimingLoop,
};
use acic_trace::{BlockRuns, InstrKind, PackedTrace, ReuseOracle, TraceSource};
use std::hint::black_box;
use std::time::Instant;

const HIGHER: Better = Better::Higher;
const LOWER: Better = Better::Lower;

/// Fewest untraced/traced round pairs behind `tracing.overhead_frac`:
/// an even count, so each order runs equally often.
const OVERHEAD_PAIRS: usize = 4;

/// Repetitions behind each L1i host-time figure.
const L1I_REPS: usize = 5;

/// Runs `f` in a span and returns its host seconds with its output.
fn timed<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = tracer.span(name, f);
    (t.elapsed().as_secs_f64(), out)
}

/// Median host seconds of three runs of `f`.
fn median3(tracer: &Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    median(
        &(0..3)
            .map(|_| timed(tracer, name, &mut f).0)
            .collect::<Vec<_>>(),
    )
}

fn per_k(count: u64, instructions: u64) -> f64 {
    count as f64 * 1000.0 / instructions as f64
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Walks the trace's block runs, as every simulator's front end does.
fn walk_runs(trace: &PackedTrace) -> u64 {
    BlockRuns::new(trace.iter())
        .map(|r| black_box(r).len as u64)
        .sum()
}

/// Walks the trace instruction by instruction.
fn walk_instrs(trace: &PackedTrace) -> u64 {
    trace.iter().fold(0, |n, i| {
        black_box(i);
        n + 1
    })
}

/// Shared state of the probes.
struct Probe<'a> {
    p: &'a Params,
    inputs: &'a Inputs,
    tracer: &'a Tracer,
    ledger: &'a mut Ledger,
    m: &'a mut Metrics,
}

impl Probe<'_> {
    fn trace(&self) -> &PackedTrace {
        self.inputs.traces[0].as_ref()
    }

    /// Records one probe operation; a panic fails it.
    fn op(&mut self, name: &str, f: impl FnOnce(&mut Self) -> Vec<String>) {
        let problems = guarded(|| f(&mut *self)).unwrap_or_else(|e| vec![e]);
        self.ledger.op(name, problems);
    }

    fn engine(&self, cfg: &SimConfig, lp: TimingLoop, span: &str) -> (f64, SimReport) {
        let trace = self.inputs.traces[0].clone();
        timed(self.tracer, span, || {
            Engine::run_with_loop(cfg, trace.as_ref(), lp)
        })
    }

    /// Functional runs, each right after a block-run walk of the same
    /// trace: the median seconds of a run, the median of each run's
    /// excess over its walk (the L1i's share), and the report. Pairing
    /// keeps host drift out of the difference.
    fn functional(&self, org: &IcacheOrg) -> (f64, f64, FunctionalReport) {
        let trace = self.inputs.traces[0].clone();
        let (mut whole, mut beyond, mut report) = (Vec::new(), Vec::new(), None);
        for _ in 0..L1I_REPS {
            let (walk_s, _) = timed(self.tracer, "trace.block_runs", || {
                black_box(walk_runs(&trace))
            });
            let (secs, r) = timed(self.tracer, "sim.functional.run", || {
                run_functional(org, trace.as_ref())
            });
            whole.push(secs);
            beyond.push(secs - walk_s);
            report = Some(r);
        }
        let report = report.expect("L1I_REPS is positive");
        (median(&whole), median(&beyond), report)
    }
}

/// The traced run: one warm-up round, then pairs of end-to-end
/// rounds, one untraced and one traced, for a third of the measuring
/// time and at least [`OVERHEAD_PAIRS`] pairs, then every layer probe.
pub fn traced(
    p: &Params,
    inputs: &Inputs,
    tracer: &Tracer,
    ledger: &mut Ledger,
    m: &mut Metrics,
    lines: &mut Vec<String>,
) {
    let mut repeats = Repeats::default();
    let off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // The first round of a process runs slower (page faults, allocator
    // growth); it is left out so it lands on neither side.
    e2e::round(p, inputs, &off, ledger, &mut repeats);
    let start = Instant::now();
    loop {
        // Every other pair runs its traced round first, so an order
        // effect (warmth, allocator growth, drift) falls on both sides.
        let traced_first = plain.len() % 2 == 1;
        for traced_side in [traced_first, !traced_first] {
            let t = Instant::now();
            if traced_side {
                tracer.span("round", || {
                    e2e::round(p, inputs, tracer, ledger, &mut repeats)
                });
                traced.push(t.elapsed().as_secs_f64());
            } else {
                e2e::round(p, inputs, &off, ledger, &mut repeats);
                plain.push(t.elapsed().as_secs_f64());
            }
        }
        if plain.len() >= OVERHEAD_PAIRS && start.elapsed().as_secs_f64() >= p.seconds / 3.0 {
            break;
        }
    }
    let (plain_s, traced_s) = (median(&plain), median(&traced));

    let mut pr = Probe {
        p,
        inputs,
        tracer,
        ledger,
        m,
    };
    trace_layer(&mut pr);
    workloads_layer(&mut pr);
    let functional_lru_s = l1i_layer(&mut pr);
    engine_layer(&mut pr, functional_lru_s);
    frontend_and_mem_layers(&mut pr);
    window_layer(&mut pr);
    bench_layers(&mut pr);
    pr.m.host(
        "tracing.overhead_frac",
        "fraction",
        LOWER,
        traced_s / plain_s - 1.0,
    );

    lines.push(format!(
        "traced run: workload {} seed {} | {} instructions per trace | {} threads",
        p.workload.name(),
        p.seed,
        p.instructions,
        thread_budget()
    ));
    lines.push(format!(
        "tracing overhead: traced round {traced_s:.4} s - untraced round {plain_s:.4} s = {:.4} s ({} pairs)",
        traced_s - plain_s,
        plain.len()
    ));
    lines.push("per-layer metrics:".to_string());
    for metric in &m.0 {
        lines.push(format!(
            "  {:<40} {:>16.6} {:<11} ({} is better{})",
            metric.name,
            metric.value,
            metric.unit,
            metric.better.as_str(),
            if metric.exact { ", exact" } else { "" }
        ));
    }
    lines.push("spans (count, total s, self s):".to_string());
    for (name, (count, total, own)) in tracer.self_times() {
        lines.push(format!("  {name:<40} {count:>6} {total:>10.4} {own:>10.4}"));
    }
}

/// `trace`: block-run decode, fast-forward skip, oracle build, size.
fn trace_layer(pr: &mut Probe) {
    let n = pr.trace().len();
    pr.op("probe trace.decode", |pr| {
        let trace = pr.inputs.traces[0].clone();
        let decode_s = median3(pr.tracer, "trace.block_runs", || {
            black_box(walk_runs(&trace));
        });
        pr.m.host(
            "trace.decode_ns_per_instr",
            "ns/instr",
            LOWER,
            decode_s * 1e9 / n as f64,
        );
        Vec::new()
    });
    pr.op("probe trace.skip", |pr| {
        // The default sampled schedule's fast-forward span: what is
        // left of a period after its warm-up and detailed window.
        let SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        } = SampleSchedule::default_sampled()
        else {
            return vec!["the default schedule does not sample".to_string()];
        };
        let ff = period - warmup_len - detailed_len;
        let measured = (warmup_len + detailed_len) as usize;
        let trace = pr.inputs.traces[0].clone();
        let (mut secs, mut skipped) = (0.0, 0u64);
        pr.tracer.span("trace.skip", || {
            let mut it = trace.iter();
            loop {
                let t = Instant::now();
                let got = <PackedTrace as TraceSource>::skip(&mut it, ff);
                secs += t.elapsed().as_secs_f64();
                skipped += got;
                if got < ff || it.by_ref().take(measured).count() < measured {
                    break;
                }
            }
        });
        pr.m.host(
            "trace.skip_ns_per_instr",
            "ns/instr",
            LOWER,
            secs * 1e9 / skipped.max(1) as f64,
        );
        Vec::new()
    });
    pr.op("probe trace.oracle", |pr| {
        let seq: Vec<_> = BlockRuns::new(pr.trace().iter())
            .map(|r| r.oracle_key())
            .collect();
        let (secs, oracle) = timed(pr.tracer, "trace.oracle_build", || {
            ReuseOracle::from_sequence(&seq)
        });
        pr.m.host("trace.oracle_build_s", "s", LOWER, secs);
        if oracle.len() == seq.len() {
            Vec::new()
        } else {
            vec![format!(
                "oracle over {} of {} runs",
                oracle.len(),
                seq.len()
            )]
        }
    });
    let bytes = pr.trace().bytes_per_instr();
    pr.m.exact("trace.bytes_per_instr", "B/instr", LOWER, bytes);
}

/// `workloads`: program generation and packing of the first spec.
fn workloads_layer(pr: &mut Probe) {
    pr.op("probe workloads.materialize", |pr| {
        let (spec, n) = (&pr.inputs.specs[0], pr.p.instructions);
        let (secs, trace) = timed(pr.tracer, "workloads.materialize", || spec.materialize(n));
        pr.m.host(
            "workloads.generate_ns_per_instr",
            "ns/instr",
            LOWER,
            secs * 1e9 / n as f64,
        );
        if trace.to_bytes() == pr.trace().to_bytes() {
            Vec::new()
        } else {
            vec!["regenerated trace differs from the set-up trace".to_string()]
        }
    });
}

/// `cache`/`core` through `run_functional`: host ns per block access
/// beyond the decode walk, and the contents statistics. Returns the
/// whole LRU functional seconds.
fn l1i_layer(pr: &mut Probe) -> f64 {
    let mut lru_s = f64::NAN;
    let orgs = [
        ("lru", IcacheOrg::Lru),
        ("srrip", IcacheOrg::Srrip),
        ("acic", IcacheOrg::acic_default()),
        ("opt", IcacheOrg::Opt),
    ];
    let mut reports = Vec::new();
    for (name, org) in &orgs {
        pr.op(&format!("probe l1i.{name}"), |pr| {
            let (secs, l1i_s, r) = pr.functional(org);
            let ns = l1i_s * 1e9 / r.accesses.max(1) as f64;
            pr.m.host(&format!("l1i.{name}.ns_per_access"), "ns/access", LOWER, ns);
            if *name == "lru" {
                lru_s = secs;
            }
            let problems = checks::functional_report(&r, pr.trace().len());
            reports.push(r);
            problems
        });
    }
    pr.op("probe l1i.counts", |pr| {
        let [lru, _srrip, acic, opt] = &reports[..] else {
            return vec!["an L1i probe failed".to_string()];
        };
        let mut problems = Vec::new();
        for other in &reports[..2] {
            if opt.l1i_mpki() > other.l1i_mpki() {
                problems.push(format!("OPT MPKI above {}", other.org));
            }
        }
        pr.m.exact(
            "l1i.accesses_pki",
            "per_kinstr",
            LOWER,
            per_k(lru.accesses, lru.instructions),
        );
        pr.m.exact("l1i.lru.mpki", "per_kinstr", LOWER, lru.l1i_mpki());
        pr.m.exact("l1i.acic.mpki", "per_kinstr", LOWER, acic.l1i_mpki());
        pr.m.exact("l1i.opt.mpki", "per_kinstr", LOWER, opt.l1i_mpki());
        let admit = acic.acic.map_or(f64::NAN, |a| a.admit_fraction());
        pr.m.exact("core.acic.admit_frac", "fraction", LOWER, admit);
        problems
    });
    lru_s
}

/// `sim.engine`: the full-detail engine per org, dense against
/// event-horizon, and the CSHR, front-end and memory counts of the
/// reports.
fn engine_layer(pr: &mut Probe, functional_lru_s: f64) {
    let n = pr.trace().len() as f64;
    let base = SimConfig::default();
    let mut event = Vec::new();
    for (name, org) in [
        ("lru", IcacheOrg::Lru),
        ("srrip", IcacheOrg::Srrip),
        ("acic", IcacheOrg::acic_default()),
        ("opt", IcacheOrg::Opt),
    ] {
        pr.op(&format!("probe sim.engine.{name}"), |pr| {
            let cfg = base.with_org(org);
            let (secs, r) = pr.engine(&cfg, TimingLoop::EventHorizon, "sim.engine.run");
            pr.m.host(
                &format!("sim.engine.ns_per_instr.{name}"),
                "ns/instr",
                LOWER,
                secs * 1e9 / n,
            );
            let problems = checks::sim_report(&r, n as u64);
            event.push((name, cfg, secs, r));
            problems
        });
    }
    let lru_event = event.iter().find(|e| e.0 == "lru");
    pr.m.host(
        "sim.pipeline_ns_per_instr",
        "ns/instr",
        LOWER,
        lru_event.map_or(f64::NAN, |e| (e.2 - functional_lru_s) * 1e9 / n),
    );
    let mut ratios = Vec::new();
    for (name, cfg, event_s, event_r) in event.iter().filter(|e| e.0 == "lru" || e.0 == "acic") {
        pr.op(&format!("probe sim.engine.dense.{name}"), |pr| {
            let (secs, r) = pr.engine(cfg, TimingLoop::Dense, "sim.engine.run_dense");
            ratios.push(secs / event_s);
            if report_to_json(&r) == report_to_json(event_r) {
                Vec::new()
            } else {
                vec!["dense and event-horizon reports differ".to_string()]
            }
        });
    }
    pr.m.host(
        "sim.engine.dense_over_event",
        "ratio",
        HIGHER,
        geomean(&ratios),
    );

    let lru = lru_event.map(|e| &e.3);
    let acic = event.iter().find(|e| e.0 == "acic").map(|e| &e.3);
    let nan = f64::NAN;
    let measured = |r: &SimReport, count: u64| per_k(count, r.measured_instructions);
    pr.m.exact(
        "sim.engine.cpi",
        "cycles/instr",
        LOWER,
        lru.map_or(nan, |r| frac(r.measured_cycles, r.measured_instructions)),
    );
    let cshr = acic.and_then(|r| r.cshr.map(|c| (r, c)));
    pr.m.exact(
        "core.cshr.inserted_pki",
        "per_kinstr",
        LOWER,
        cshr.map_or(nan, |(r, c)| measured(r, c.inserted)),
    );
    pr.m.exact(
        "core.cshr.evicted_unresolved_frac",
        "fraction",
        LOWER,
        cshr.map_or(nan, |(_, c)| frac(c.evicted_unresolved, c.inserted)),
    );
    pr.m.exact(
        "sim.frontend.mispredicts_pki",
        "per_kinstr",
        LOWER,
        lru.map_or(nan, |r| measured(r, r.branch.mispredicts)),
    );
    pr.m.exact(
        "sim.frontend.btb_misses_pki",
        "per_kinstr",
        LOWER,
        lru.map_or(nan, |r| measured(r, r.branch.btb.misses)),
    );
    pr.m.exact(
        "sim.prefetch.issued_pki",
        "per_kinstr",
        LOWER,
        lru.map_or(nan, |r| measured(r, r.prefetch.issued)),
    );
    pr.m.exact(
        "sim.prefetch.filtered_frac",
        "fraction",
        LOWER,
        lru.map_or(nan, |r| {
            frac(r.prefetch.filtered, r.prefetch.issued + r.prefetch.filtered)
        }),
    );
    pr.m.exact(
        "sim.mem.l2_mpki",
        "per_kinstr",
        LOWER,
        lru.map_or(nan, |r| measured(r, r.l2.demand_misses)),
    );
    pr.m.exact(
        "sim.mem.l3_mpki",
        "per_kinstr",
        LOWER,
        lru.map_or(nan, |r| measured(r, r.l3.demand_misses)),
    );
    pr.m.exact(
        "sim.mem.dram_pki",
        "per_kinstr",
        LOWER,
        lru.map_or(nan, |r| per_k(r.dram_accesses, r.total_instructions)),
    );
}

/// `sim.frontend` and `sim.mem` host time: branch warming and data
/// accesses over the trace, less the instruction walk.
fn frontend_and_mem_layers(pr: &mut Probe) {
    let cfg = SimConfig::default();
    let trace = pr.inputs.traces[0].clone();
    let n = trace.len() as f64;
    let walk_s = median3(pr.tracer, "trace.instrs", || {
        black_box(walk_instrs(&trace));
    });
    pr.op("probe sim.frontend", |pr| {
        let mut fe = FrontEnd::new(&cfg);
        let (secs, _) = timed(pr.tracer, "sim.frontend.warm_branches", || {
            for instr in trace.iter() {
                fe.warm_branches(&instr);
            }
        });
        black_box(fe.stats());
        pr.m.host(
            "sim.frontend.bpu_ns_per_instr",
            "ns/instr",
            LOWER,
            (secs - walk_s) * 1e9 / n,
        );
        Vec::new()
    });
    pr.op("probe sim.mem", |pr| {
        let mut mem = MemoryHierarchy::new(&cfg);
        let mut accesses = 0u64;
        let (secs, _) = timed(pr.tracer, "sim.mem.access_data", || {
            for (now, instr) in trace.iter().enumerate() {
                let (addr, store) = match instr.kind {
                    InstrKind::Load { addr } => (addr, false),
                    InstrKind::Store { addr } => (addr, true),
                    _ => continue,
                };
                black_box(mem.access_data(addr, instr.asid(), now as u64, store));
                accesses += 1;
            }
        });
        let ns = (secs - walk_s) * 1e9 / accesses.max(1) as f64;
        pr.m.host("sim.mem.ns_per_access", "ns/access", LOWER, ns);
        let l1d = mem.l1d_stats();
        if l1d.demand_misses <= l1d.demand_accesses {
            Vec::new()
        } else {
            vec!["L1d misses exceed accesses".to_string()]
        }
    });
}

/// `sim.engine.window`: the sampled ACIC cell serially and through the
/// window-parallel engine with one and two workers.
fn window_layer(pr: &mut Probe) {
    let cfg = sampled_config().with_org(IcacheOrg::acic_default());
    let trace = pr.inputs.traces[0].clone();
    let n = trace.len();
    let mut serial = None;
    pr.op("probe sim.window.serial", |pr| {
        let (secs, r) = pr.engine(&cfg, TimingLoop::EventHorizon, "sim.engine.run_sampled");
        pr.m.host("sim.window.serial_s", "s", LOWER, secs);
        let problems = checks::sim_report(&r, n);
        serial = Some(r);
        problems
    });
    let mut windowed = Vec::new();
    for (w, workers) in [(1, 1), (2, thread_budget())] {
        let name = format!("sim.window.windowed_s.w{w}");
        pr.op(&format!("probe {name}"), |pr| {
            let (secs, r) = timed(pr.tracer, "sim.engine.run_windowed", || {
                Engine::run_windowed_with_loop(
                    &cfg,
                    trace.as_ref(),
                    workers,
                    TimingLoop::EventHorizon,
                )
            });
            pr.m.host(&name, "s", LOWER, secs);
            let problems = checks::sim_report(&r, n);
            windowed.push((secs, report_to_json(&r)));
            problems
        });
    }
    pr.op("probe sim.window.identity", |_| match &windowed[..] {
        [(_, a), (_, b)] if a == b => Vec::new(),
        [_, _] => vec!["windowed reports differ between worker counts".to_string()],
        _ => vec!["a windowed probe failed".to_string()],
    });
    let eff = match &windowed[..] {
        [(w1, _), (w2, _)] => w1 / (w2 * thread_budget() as f64),
        _ => f64::NAN,
    };
    pr.m.host("sim.window.parallel_eff", "fraction", HIGHER, eff);
    // A trace shorter than one window runs in full detail.
    let s = serial.as_ref().map(|r| (r.sampled, r.total_instructions));
    let (count, ff, warm, detailed) = match s {
        Some((Some(s), total)) => (
            s.windows as f64,
            frac(s.fastforward_instructions, total),
            frac(s.warmup_instructions, total),
            frac(s.detailed_instructions, total),
        ),
        Some((None, _)) => (0.0, 0.0, 0.0, 1.0),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    };
    pr.m.exact("sim.window.count", "count", HIGHER, count);
    pr.m.exact("sim.sampled.ff_frac", "fraction", HIGHER, ff);
    pr.m.exact("sim.sampled.warm_frac", "fraction", LOWER, warm);
    pr.m.exact("sim.sampled.detailed_frac", "fraction", LOWER, detailed);
}

/// `bench.trace_store`, `bench.runner` and `bench.result_store`.
fn bench_layers(pr: &mut Probe) {
    let dir = pr.p.trace_dir();
    let n = pr.p.instructions;
    let specs = &pr.inputs.specs;
    let total: u64 = pr.inputs.traces.iter().map(|t| t.len()).sum();

    // Record into (and replay from) the store the Runner reads.
    let mut record_s = 0.0;
    for spec in specs {
        pr.op(&format!("probe record {}", spec.label()), |pr| {
            let mode = TraceStoreMode::Record(dir.clone());
            let (secs, res) = timed(pr.tracer, "bench.trace_store.record", || {
                freeze_with(&mode, spec, n)
            });
            record_s += secs;
            res.err().map(|e| e.to_string()).into_iter().collect()
        });
    }
    pr.m.host("bench.trace_store.record_s", "s", LOWER, record_s);
    let mut replay_s = 0.0;
    for (spec, trace) in specs.iter().zip(&pr.inputs.traces) {
        pr.op(&format!("probe replay {}", spec.label()), |pr| {
            let mode = TraceStoreMode::Replay(dir.clone());
            let (secs, res) = timed(pr.tracer, "bench.trace_store.replay", || {
                freeze_with(&mode, spec, n)
            });
            replay_s += secs;
            match res {
                Ok(f) if f.provenance != Provenance::Replayed => {
                    vec![format!("provenance {:?}", f.provenance)]
                }
                Ok(f) if f.trace.to_bytes() != trace.to_bytes() => {
                    vec!["replayed trace differs from the frozen one".to_string()]
                }
                Ok(_) => Vec::new(),
                Err(e) => vec![e.to_string()],
            }
        });
    }
    pr.m.host(
        "bench.trace_store.replay_ns_per_instr",
        "ns/instr",
        LOWER,
        replay_s * 1e9 / total as f64,
    );

    // A sampled LRU/ACIC grid through the Runner with a fresh journal,
    // the same cells called directly, then a resume pass.
    let configs: Vec<SimConfig> = [IcacheOrg::Lru, IcacheOrg::acic_default()]
        .into_iter()
        .map(|o| sampled_config().with_org(o))
        .collect();
    let cells = (configs.len() * specs.len()) as u64;
    let journal = fresh_dir(pr.p, "probe-journal");
    let (grid_s, fresh) = timed(pr.tracer, "bench.runner.try_run_grid", || {
        run_grid(n, &journal, &configs, specs)
    });
    let mut direct_s = 0.0;
    let (mut computed, mut replayed, mut failed) = (0u64, 0u64, 0u64);
    let mut fresh_json = Vec::new();
    match fresh {
        Ok(Ok(run)) => {
            computed += run.computed;
            replayed += run.replayed;
            for (c, row) in run.grid.iter().enumerate() {
                for (a, grid_r) in row.iter().enumerate() {
                    let label = format!("probe runner {c}x{a}");
                    let trace = pr.inputs.traces[a].clone();
                    let (secs, direct) = timed(pr.tracer, "sim.engine.run_sampled", || {
                        guarded(|| {
                            Engine::run_with_loop(
                                &configs[c],
                                trace.as_ref(),
                                TimingLoop::EventHorizon,
                            )
                        })
                    });
                    direct_s += secs;
                    let same = direct
                        .and_then(|d| {
                            if report_to_json(&d) == report_to_json(grid_r) {
                                Ok(d)
                            } else {
                                Err("grid report differs from the direct call".to_string())
                            }
                        })
                        .map(|_| grid_r.clone());
                    let res = if run.replayed > 0 {
                        Err(format!("fresh journal replayed {} cells", run.replayed))
                    } else {
                        same
                    };
                    if let Some(r) =
                        settle(pr.ledger, &mut Repeats::default(), &label, res, trace.len())
                    {
                        fresh_json.push(report_to_json(&r));
                    }
                }
            }
        }
        Ok(Err(e)) => {
            failed += e.failures.len() as u64;
            pr.ledger.op("probe runner", vec![e.to_string()]);
        }
        Err(e) => pr.ledger.op("probe runner", vec![e]),
    }
    let ideal = direct_s / thread_budget() as f64;
    pr.m.host(
        "bench.runner.overhead_frac",
        "fraction",
        LOWER,
        grid_s / ideal - 1.0,
    );

    let (resume_s, resumed) = timed(pr.tracer, "bench.result_store.resume", || {
        run_grid(n, &journal, &configs, specs)
    });
    pr.m.host("bench.result_store.resume_s", "s", LOWER, resume_s);
    let problems = match resumed {
        Ok(Ok(run)) => {
            computed += run.computed;
            replayed += run.replayed;
            let json: Vec<String> = run.grid.iter().flatten().map(report_to_json).collect();
            let mut problems = Vec::new();
            if run.computed > 0 {
                problems.push(format!("resume computed {} cells", run.computed));
            }
            if json != fresh_json {
                problems.push("resumed reports differ from computed ones".to_string());
            }
            problems
        }
        Ok(Err(e)) => {
            failed += e.failures.len() as u64;
            vec![e.to_string()]
        }
        Err(e) => vec![e],
    };
    pr.ledger.op("probe resume", problems);
    let journal_bytes: u64 = std::fs::read_dir(&journal)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    pr.m.host(
        "bench.result_store.bytes_per_cell",
        "B",
        LOWER,
        journal_bytes as f64 / cells as f64,
    );
    pr.m.exact(
        "bench.runner.cells_computed",
        "count",
        LOWER,
        computed as f64,
    );
    pr.m.exact(
        "bench.runner.cells_replayed",
        "count",
        HIGHER,
        replayed as f64,
    );
    pr.m.exact("bench.runner.cells_failed", "count", LOWER, failed as f64);
}
