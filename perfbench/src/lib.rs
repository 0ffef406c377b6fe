//! End-to-end and per-layer benchmark of the ACIC simulator.
//!
//! Three workloads ([`Workload`]) drive the public API of
//! `acic-workloads`, `acic-trace`, `acic-sim` (with `acic-cache` and
//! `acic-core` behind it) and `acic-bench` from outside. A run with
//! tracing off ([`run`] with `trace: false`) reports the end-to-end
//! metrics; a traced run reports the per-layer metrics and the
//! tracing overhead. `README.md` beside this
//! package maps every layer metric to the end-to-end metric it moves.

mod checks;
mod e2e;
mod layers;
pub mod metrics;
pub mod spans;

use acic_bench::trace_store::{self, TraceStoreMode};
use acic_trace::PackedTrace;
use acic_workloads::{AppProfile, WorkloadSpec};
use metrics::{Ledger, Metric, Metrics};
use spans::Tracer;
use std::path::PathBuf;
use std::sync::Arc;

/// The `--seed` used when none is given. Seed 0 keeps the paper
/// profiles' own program seeds; any other seed is mixed into every
/// [`AppProfile::seed`].
pub const DEFAULT_SEED: u64 = 0;

/// Fewest set-ups in a measured run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Threads for grid cells and detailed windows: two, or fewer on a
/// smaller machine.
fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// web-search and tpc-c through the full-detail event-horizon
    /// engine for LRU, SRRIP, ACIC and OPT.
    TimingFull,
    /// The same two traces through `run_functional` for LRU and every
    /// Figure 10 organization.
    FunctionalSweep,
    /// Two multi-tenant specs recorded into a trace store, replayed by
    /// a sampled `Runner` campaign with a fresh journal, resumed, then
    /// LRU and ACIC through the window-parallel engine.
    MtSampledCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TimingFull,
        Workload::FunctionalSweep,
        Workload::MtSampledCampaign,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TimingFull => "timing-full",
            Workload::FunctionalSweep => "functional-sweep",
            Workload::MtSampledCampaign => "mt-sampled-campaign",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instructions per trace in a measured run, sized so one round
    /// takes a few seconds and several rounds fit in a run.
    pub fn instructions(self) -> u64 {
        match self {
            Workload::TimingFull => 3_000_000,
            Workload::FunctionalSweep => 4_000_000,
            Workload::MtSampledCampaign => 5_000_000,
        }
    }

    /// The workload specs, with `seed` mixed into every profile.
    pub fn specs(self, seed: u64) -> Vec<WorkloadSpec> {
        let tenants = |n: usize| -> Vec<AppProfile> {
            AppProfile::datacenter_suite()
                .into_iter()
                .take(n)
                .map(|p| seeded(p, seed))
                .collect()
        };
        match self {
            Workload::TimingFull | Workload::FunctionalSweep => vec![
                WorkloadSpec::Single(seeded(AppProfile::web_search(), seed)),
                WorkloadSpec::Single(seeded(AppProfile::tpc_c(), seed)),
            ],
            Workload::MtSampledCampaign => vec![
                WorkloadSpec::MultiTenant {
                    profiles: tenants(4),
                    quantum: 20_000,
                },
                WorkloadSpec::MultiTenant {
                    profiles: tenants(2),
                    quantum: 5_000,
                },
            ],
        }
    }
}

/// Mixes the benchmark seed into a profile's program seed.
fn seeded(mut profile: AppProfile, seed: u64) -> AppProfile {
    if seed != DEFAULT_SEED {
        profile.seed = acic_types::hash::mix2(profile.seed, seed);
    }
    profile
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Params {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds a measured run lasts, set-ups and the warm-up round
    /// included ([`SETUP_REPS`] set-ups and rounds run regardless).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Instructions per trace.
    pub instructions: u64,
    /// Private scratch directory for trace stores and journals. The
    /// store keys ignore the seed, so it must not outlive the run.
    pub scratch: PathBuf,
}

impl Params {
    /// A measured run of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, scratch: PathBuf) -> Self {
        Params {
            workload,
            seed,
            seconds,
            trace,
            instructions: workload.instructions(),
            scratch,
        }
    }

    /// The trace-store directory the workload records into and the
    /// `Runner` replays from.
    pub fn trace_dir(&self) -> PathBuf {
        self.scratch.join("traces")
    }
}

/// The frozen inputs of one workload.
pub struct Inputs {
    /// Specs, in workload order.
    pub specs: Vec<WorkloadSpec>,
    /// One frozen trace per spec.
    pub traces: Vec<Arc<PackedTrace>>,
}

/// What a run produced.
pub struct Outcome {
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Spans of a traced run (empty otherwise).
    pub tracer: Tracer,
}

/// Freezes every trace the workload uses: program generation and
/// packing for the single-tenant workloads, recording into the
/// scratch trace store for the multi-tenant one.
///
/// # Errors
///
/// Fails when a spec cannot be frozen or recorded.
fn setup(p: &Params, tracer: &Tracer) -> Result<Inputs, String> {
    let specs = p.workload.specs(p.seed);
    let mut traces = Vec::with_capacity(specs.len());
    for spec in &specs {
        let trace = match p.workload {
            Workload::MtSampledCampaign => {
                let mode = TraceStoreMode::Record(p.trace_dir());
                tracer
                    .span("bench.trace_store.record", || {
                        checks::guarded(|| trace_store::freeze_with(&mode, spec, p.instructions))
                    })?
                    .map_err(|e| e.to_string())?
                    .trace
            }
            _ => Arc::new(tracer.span("workloads.materialize", || {
                checks::guarded(|| spec.materialize(p.instructions))
            })?),
        };
        traces.push(trace);
    }
    Ok(Inputs { specs, traces })
}

/// Points the process-wide trace store, which `Runner` freezes
/// through, at this run's scratch store.
///
/// # Errors
///
/// Fails when the store was already configured elsewhere.
fn replay_from_scratch(p: &Params) -> Result<(), String> {
    let want = TraceStoreMode::Replay(p.trace_dir());
    match trace_store::configure(want.clone()) {
        Ok(()) => Ok(()),
        Err(active) if active == want => Ok(()),
        Err(active) => Err(format!("trace store already configured as {active:?}")),
    }
}

/// The high-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Makes `Runner` grids use [`thread_budget`] cell threads. `Runner`
/// has no field for its grid width; it reads `ACIC_BENCH_THREADS`,
/// which the binary refuses to inherit and sets here instead.
fn pin_grid_threads() {
    std::env::set_var("ACIC_BENCH_THREADS", thread_budget().to_string());
}

/// Runs the benchmark.
///
/// # Errors
///
/// Fails when set-up fails; failures of single operations are counted
/// in the returned ledger instead.
pub fn run(p: &Params) -> Result<Outcome, String> {
    std::fs::create_dir_all(&p.scratch).map_err(|e| format!("{}: {e}", p.scratch.display()))?;
    pin_grid_threads();
    let tracer = Tracer::new(p.trace);
    let mut ledger = Ledger::default();
    let mut lines = Vec::new();
    if p.workload == Workload::MtSampledCampaign || p.trace {
        replay_from_scratch(p)?;
    }

    let mut m = Metrics::default();
    if p.trace {
        let inputs = tracer.span("setup", || setup(p, &tracer))?;
        layers::traced(p, &inputs, &tracer, &mut ledger, &mut m, &mut lines);
    } else {
        let measured = e2e::measure(p, &tracer, &mut ledger, p.seconds)?;
        e2e::emit(p, &measured, &ledger, &mut m, &mut lines);
    }
    Ok(Outcome {
        ledger,
        metrics: m.0,
        lines,
        tracer,
    })
}
