//! The end-to-end rounds of each workload and the metrics they give.
//!
//! One round runs every cell of the workload once. A run warms up with
//! one round, repeats set-ups and rounds for the rest of its measuring
//! time and reports host-time metrics as medians over the set-ups and
//! the measured rounds;
//! the model metrics are exact, so every round, the warm-up included,
//! must reproduce them (checked cell by cell through [`Repeats`]).

use crate::checks::{self, guarded, Repeats};
use crate::metrics::{geomean, mean, median, Better, Ledger, Metrics};
use crate::spans::Tracer;
use crate::{peak_rss_mb, thread_budget, Inputs, Params, Workload, SETUP_REPS};
use acic_bench::result_store::{report_to_json, ResultStore};
use acic_bench::runner::{GridError, GridRun};
use acic_bench::Runner;
use acic_sim::{
    run_functional, Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport, TimingLoop,
};
use acic_workloads::WorkloadSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The paper-comparable model outputs of one round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Model {
    /// Geomean over specs of IPC(ACIC)/IPC(LRU).
    pub acic_speedup: f64,
    /// Mean over specs of (IPC_OPT − IPC_ACIC)/(IPC_OPT − IPC_LRU):
    /// the share of the LRU→OPT gap ACIC leaves open.
    pub opt_gap_remaining: f64,
    /// Geomean over specs of MPKI(ACIC)/MPKI(LRU).
    pub acic_mpki_ratio: f64,
}

/// One round's measurements.
#[derive(Clone, Debug)]
pub struct Round {
    /// Host seconds of the leg `sim_mips` measures.
    pub wall_s: f64,
    /// Instructions simulated in that leg.
    pub instructions: u64,
    /// Host seconds and instructions of the window-parallel leg.
    pub windowed: Option<(f64, u64)>,
    /// Model outputs; `None` when a cell they need failed.
    pub model: Option<Model>,
    /// Lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Round {
    /// Simulated M instructions per host second.
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.wall_s / 1e6
    }
}

/// The timing configuration every campaign cell derives from.
pub fn sampled_config() -> SimConfig {
    SimConfig::default().with_schedule(SampleSchedule::default_sampled())
}

/// The campaign orgs. OPT supplies the far end of the gap; its cells
/// are the longest, so they come first and the grid's two threads
/// start on them together instead of finishing on one.
/// Indices of OPT, LRU and ACIC in [`campaign_orgs`].
const CAMPAIGN_OPT: usize = 0;
const CAMPAIGN_LRU: usize = 1;
const CAMPAIGN_ACIC: usize = 4;

fn campaign_orgs() -> [IcacheOrg; 5] {
    [
        IcacheOrg::Opt,
        IcacheOrg::Lru,
        IcacheOrg::LruFlush,
        IcacheOrg::Srrip,
        IcacheOrg::acic_default(),
    ]
}

/// A `Runner` that journals into `store`, runs the serial engine per
/// cell on [`thread_budget`] grid threads, and has no watchdog and no
/// supervisor: every field is set here rather than read from the
/// environment.
pub fn runner(instructions: u64, store: Arc<ResultStore>) -> Runner {
    Runner {
        instructions,
        baseline: sampled_config(),
        store: Some(store),
        cell_timeout: None,
        window_threads: 0,
        supervise: None,
    }
}

/// A new directory name under the scratch directory.
pub fn fresh_dir(p: &Params, what: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    p.scratch
        .join(format!("{what}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Runs a grid through `Runner` with a journal under `dir`.
pub fn run_grid(
    instructions: u64,
    dir: &std::path::Path,
    configs: &[SimConfig],
    specs: &[WorkloadSpec],
) -> Result<Result<GridRun, GridError>, String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    guarded(|| runner(instructions, Arc::new(store)).try_run_grid(configs, specs))
}

/// Records a timing or sampled cell: output checks, the repeat check,
/// and the report when both pass.
pub fn settle(
    ledger: &mut Ledger,
    repeats: &mut Repeats,
    label: &str,
    result: Result<SimReport, String>,
    len: u64,
) -> Option<SimReport> {
    match result {
        Ok(r) => {
            let mut problems = checks::sim_report(&r, len);
            problems.extend(repeats.check(label, report_to_json(&r)));
            let ok = problems.is_empty();
            ledger.op(label, problems);
            ok.then_some(r)
        }
        Err(e) => {
            ledger.op(label, vec![e]);
            None
        }
    }
}

/// Combines per-spec (speedup, gap remaining, MPKI ratio) triples;
/// `None` when any spec lacks one.
fn model(per_spec: &[Option<(f64, f64, f64)>]) -> Option<Model> {
    let v: Vec<(f64, f64, f64)> = per_spec.iter().copied().collect::<Option<_>>()?;
    Some(Model {
        acic_speedup: geomean(&v.iter().map(|t| t.0).collect::<Vec<_>>()),
        opt_gap_remaining: mean(&v.iter().map(|t| t.1).collect::<Vec<_>>()),
        acic_mpki_ratio: geomean(&v.iter().map(|t| t.2).collect::<Vec<_>>()),
    })
}

/// Share of the LRU→OPT distance that ACIC leaves, for a quantity
/// where OPT is best (IPC or MPKI).
fn gap_remaining(lru: f64, acic: f64, opt: f64) -> f64 {
    (opt - acic) / (opt - lru)
}

fn cell_label(spec: &WorkloadSpec, org: &IcacheOrg) -> String {
    format!("{}/{}", spec.label(), org.label())
}

fn timing_round(
    inputs: &Inputs,
    tracer: &Tracer,
    ledger: &mut Ledger,
    repeats: &mut Repeats,
) -> Round {
    let orgs = [
        IcacheOrg::Lru,
        IcacheOrg::Srrip,
        IcacheOrg::acic_default(),
        IcacheOrg::Opt,
    ];
    let base = SimConfig::default();
    let mut rows = Vec::new();
    let mut instructions = 0;
    let t = Instant::now();
    for (spec, trace) in inputs.specs.iter().zip(&inputs.traces) {
        let mut row = Vec::new();
        for org in &orgs {
            let cfg = base.with_org(org.clone());
            let res = tracer.span("sim.engine.run", || {
                guarded(|| Engine::run_with_loop(&cfg, trace.as_ref(), TimingLoop::EventHorizon))
            });
            row.push(settle(
                ledger,
                repeats,
                &cell_label(spec, org),
                res,
                trace.len(),
            ));
            instructions += trace.len();
        }
        rows.push(row);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let per_spec: Vec<_> = rows
        .iter()
        .map(|r| {
            let (l, a, o) = (r[0].as_ref()?, r[2].as_ref()?, r[3].as_ref()?);
            Some((
                a.speedup_over(l),
                gap_remaining(l.ipc(), a.ipc(), o.ipc()),
                a.l1i_mpki() / l.l1i_mpki(),
            ))
        })
        .collect();
    Round {
        wall_s,
        instructions,
        windowed: None,
        model: model(&per_spec),
        notes: Vec::new(),
    }
}

fn functional_round(
    inputs: &Inputs,
    tracer: &Tracer,
    ledger: &mut Ledger,
    repeats: &mut Repeats,
) -> Round {
    let mut orgs = vec![IcacheOrg::Lru];
    orgs.extend(IcacheOrg::figure10_set());
    let mut per_spec = Vec::new();
    let mut instructions = 0;
    let t = Instant::now();
    for (spec, trace) in inputs.specs.iter().zip(&inputs.traces) {
        let (mut lru, mut srrip, mut acic, mut opt) = (None, None, None, None);
        for org in &orgs {
            let label = cell_label(spec, org);
            let res = tracer.span("sim.functional.run", || {
                guarded(|| run_functional(org, trace.as_ref()))
            });
            instructions += trace.len();
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    ledger.op(&label, vec![e]);
                    continue;
                }
            };
            let mut problems = checks::functional_report(&r, trace.len());
            problems.extend(repeats.check(&label, format!("{r:?}")));
            let mpki = r.l1i_mpki();
            if *org == IcacheOrg::Opt {
                for (name, other) in [("LRU", lru.map(|l: (f64, f64)| l.0)), ("SRRIP", srrip)] {
                    match other {
                        Some(o) if mpki <= o => {}
                        Some(o) => problems.push(format!("OPT MPKI {mpki} > {name} MPKI {o}")),
                        None => problems.push(format!("no {name} result to bound OPT")),
                    }
                }
            }
            let ok = problems.is_empty();
            ledger.op(&label, problems);
            let hit_rate = 1.0 - r.l1i.demand_misses as f64 / r.l1i.demand_accesses as f64;
            if ok {
                match org {
                    IcacheOrg::Lru => lru = Some((mpki, hit_rate)),
                    IcacheOrg::Srrip => srrip = Some(mpki),
                    IcacheOrg::Acic(_) => acic = Some((mpki, hit_rate)),
                    IcacheOrg::Opt => opt = Some(mpki),
                    _ => {}
                }
            }
        }
        per_spec.push((lru, acic, opt));
    }
    let wall_s = t.elapsed().as_secs_f64();
    // No cycles here: the speedup is the ratio of L1i demand hit
    // rates and the gap is measured in L1i demand misses
    // (README.md, "Stand-ins").
    let per_spec: Vec<_> = per_spec
        .iter()
        .map(|&(l, a, o)| {
            let ((l, l_hit), (a, a_hit), o) = (l?, a?, o?);
            Some((a_hit / l_hit, gap_remaining(l, a, o), a / l))
        })
        .collect();
    Round {
        wall_s,
        instructions,
        windowed: None,
        model: model(&per_spec),
        notes: Vec::new(),
    }
}

fn campaign_round(
    p: &Params,
    inputs: &Inputs,
    tracer: &Tracer,
    ledger: &mut Ledger,
    repeats: &mut Repeats,
) -> Round {
    let orgs = campaign_orgs();
    let base = sampled_config();
    let configs: Vec<SimConfig> = orgs.iter().map(|o| base.with_org(o.clone())).collect();
    let specs = &inputs.specs;
    let cells = configs.len() * specs.len();
    let instructions = configs.len() as u64 * inputs.traces.iter().map(|t| t.len()).sum::<u64>();
    let dir = fresh_dir(p, "journal");

    // Campaign leg: a fresh journal, every cell computed.
    let t = Instant::now();
    let fresh = tracer.span("bench.runner.try_run_grid", || {
        run_grid(p.instructions, &dir, &configs, specs)
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut grid: Vec<Vec<Option<SimReport>>> = vec![vec![None; specs.len()]; configs.len()];
    match fresh {
        Ok(Ok(run)) => {
            for (c, row) in run.grid.into_iter().enumerate() {
                for (a, r) in row.into_iter().enumerate() {
                    let label = cell_label(&specs[a], &orgs[c]);
                    let res = if run.replayed > 0 {
                        Err(format!("fresh journal replayed {} cells", run.replayed))
                    } else {
                        Ok(r)
                    };
                    grid[c][a] = settle(ledger, repeats, &label, res, inputs.traces[a].len());
                }
            }
        }
        Ok(Err(e)) => {
            for f in &e.failures {
                ledger.op(
                    &format!("{} x {}", f.config, f.spec),
                    vec![f.error.to_string()],
                );
            }
            for _ in 0..e.completed {
                ledger.op(
                    "campaign cell",
                    vec!["report lost with the failed grid".to_string()],
                );
            }
        }
        Err(e) => {
            for _ in 0..cells {
                ledger.op("campaign cell", vec![e.clone()]);
            }
        }
    }

    // Resume leg: the same journal must replay every cell unchanged.
    let resumed = tracer.span("bench.result_store.resume", || {
        run_grid(p.instructions, &dir, &configs, specs)
    });
    match resumed {
        Ok(Ok(run)) => {
            for (c, row) in run.grid.iter().enumerate() {
                for (a, r) in row.iter().enumerate() {
                    let mut problems = Vec::new();
                    if run.computed > 0 {
                        problems.push(format!("resume computed {} cells", run.computed));
                    }
                    match &grid[c][a] {
                        Some(first) if report_to_json(first) == report_to_json(r) => {}
                        Some(_) => problems.push("resumed report differs".to_string()),
                        None => problems.push("no computed report to compare".to_string()),
                    }
                    ledger.op(
                        &format!("resume {}", cell_label(&specs[a], &orgs[c])),
                        problems,
                    );
                }
            }
        }
        Ok(Err(e)) => ledger.op("resume", vec![e.to_string()]),
        Err(e) => ledger.op("resume", vec![e]),
    }

    // Window-parallel leg on the 4-tenant spec.
    let workers = thread_budget();
    let trace = &inputs.traces[0];
    let t = Instant::now();
    for org in [IcacheOrg::Lru, IcacheOrg::acic_default()] {
        let cfg = base.with_org(org.clone());
        let res = tracer.span("sim.engine.run_windowed", || {
            guarded(|| {
                Engine::run_windowed_with_loop(
                    &cfg,
                    trace.as_ref(),
                    workers,
                    TimingLoop::EventHorizon,
                )
            })
        });
        let label = format!("{} windowed", cell_label(&specs[0], &org));
        settle(ledger, repeats, &label, res, trace.len());
    }
    let windowed = (t.elapsed().as_secs_f64(), 2 * trace.len());

    // The gap uses the sampled MPKI estimate: on these traces the
    // sampled IPCs of ACIC and LRU differ by less than their window
    // confidence intervals, which leaves an IPC gap ratio to sampling
    // noise (README.md, "Stand-ins").
    let mut notes = Vec::new();
    for (a, spec) in specs.iter().enumerate() {
        if let (Some(l), Some(acic)) = (&grid[CAMPAIGN_LRU][a], &grid[CAMPAIGN_ACIC][a]) {
            let ci = |r: &SimReport| r.sampled.map_or(f64::NAN, |s| s.ipc_ci95);
            notes.push(format!(
                "  {}: sampled IPC LRU {:.4} ± {:.4}, ACIC {:.4} ± {:.4} (95% CI over windows)",
                spec.label(),
                l.ipc(),
                ci(l),
                acic.ipc(),
                ci(acic)
            ));
        }
    }
    let per_spec: Vec<_> = (0..specs.len())
        .map(|a| {
            let (o, l, acic) = (
                grid[CAMPAIGN_OPT][a].as_ref()?,
                grid[CAMPAIGN_LRU][a].as_ref()?,
                grid[CAMPAIGN_ACIC][a].as_ref()?,
            );
            Some((
                acic.speedup_over(l),
                gap_remaining(l.l1i_mpki(), acic.l1i_mpki(), o.l1i_mpki()),
                acic.l1i_mpki() / l.l1i_mpki(),
            ))
        })
        .collect();
    Round {
        wall_s,
        instructions,
        windowed: Some(windowed),
        model: model(&per_spec),
        notes,
    }
}

/// Runs one round of the workload.
pub fn round(
    p: &Params,
    inputs: &Inputs,
    tracer: &Tracer,
    ledger: &mut Ledger,
    repeats: &mut Repeats,
) -> Round {
    match p.workload {
        Workload::TimingFull => timing_round(inputs, tracer, ledger, repeats),
        Workload::FunctionalSweep => functional_round(inputs, tracer, ledger, repeats),
        Workload::MtSampledCampaign => campaign_round(p, inputs, tracer, ledger, repeats),
    }
}

/// The measured rounds of a run, its set-up times and the process's
/// peak resident set after the warm-up round.
pub struct Measured {
    /// Every measured round, in order; the warm-up round is not one.
    pub rounds: Vec<Round>,
    /// Host seconds of every set-up, the warm-up round's included.
    pub setup_s: Vec<f64>,
    /// `VmHWM` after set-up and the warm-up round, in MB. Later rounds
    /// repeat the same work; reading the peak after them would add
    /// allocator growth that depends on how many rounds the host
    /// speed allowed.
    pub peak_rss_mb: f64,
}

/// Freezes the workload's traces and records how long that took.
fn timed_setup(p: &Params, tracer: &Tracer, setup_s: &mut Vec<f64>) -> Result<Inputs, String> {
    let t = Instant::now();
    let inputs = crate::setup(p, tracer)?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(inputs)
}

/// Sets up and runs a warm-up round, then repeats a fresh set-up and a
/// measured round while the next pair is expected to end within
/// `seconds` of the start, and until [`SETUP_REPS`] set-ups have run.
///
/// The warm-up round's outputs are checked like every other round's,
/// but its host time is left out: a process's first round pays for
/// page faults, allocator growth and thread start-up. Set-ups are
/// spread over the run instead of run back to back, so that their
/// median samples the same host conditions as the rounds' median.
/// Every set-up freezes the same traces, so the repeat check covers
/// set-up too. Each set-up's traces are dropped before the next, so
/// the resident set holds one set.
///
/// # Errors
///
/// Fails when a set-up fails.
pub fn measure(
    p: &Params,
    tracer: &Tracer,
    ledger: &mut Ledger,
    seconds: f64,
) -> Result<Measured, String> {
    let mut repeats = Repeats::default();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let inputs = timed_setup(p, tracer, &mut setup_s)?;
    round(p, &inputs, tracer, ledger, &mut repeats);
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    drop(inputs);
    let mut rounds = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = timed_setup(p, tracer, &mut setup_s)?;
        rounds.push(round(p, &inputs, tracer, ledger, &mut repeats));
        drop(inputs);
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds && setup_s.len() >= SETUP_REPS {
            break;
        }
    }
    Ok(Measured {
        rounds,
        setup_s,
        peak_rss_mb,
    })
}

/// Emits the end-to-end metrics, in `BENCHMARK.json` order.
pub fn emit(
    p: &Params,
    measured: &Measured,
    ledger: &Ledger,
    m: &mut Metrics,
    lines: &mut Vec<String>,
) {
    let rounds = &measured.rounds;
    let sim_mips = median(&rounds.iter().map(Round::mips).collect::<Vec<_>>());
    // Workloads without a window-parallel leg run every cell serially,
    // so their windowed throughput is their serial one.
    let windowed_mips = median(
        &rounds
            .iter()
            .map(|r| r.windowed.map_or(r.mips(), |(s, n)| n as f64 / s / 1e6))
            .collect::<Vec<_>>(),
    );
    let model = rounds.last().and_then(|r| r.model);
    let model_value = |f: fn(&Model) -> f64| model.as_ref().map_or(f64::NAN, f);
    m.host("setup_s", "s", Better::Lower, median(&measured.setup_s));
    m.host("sim_mips", "Minstr/s", Better::Higher, sim_mips);
    m.host("windowed_mips", "Minstr/s", Better::Higher, windowed_mips);
    m.host("peak_rss_mb", "MB", Better::Lower, measured.peak_rss_mb);
    m.exact("pass_rate", "fraction", Better::Higher, ledger.pass_rate());
    m.exact(
        "acic_speedup",
        "ratio",
        Better::Higher,
        model_value(|m| m.acic_speedup),
    );
    m.exact(
        "opt_gap_remaining",
        "ratio",
        Better::Lower,
        model_value(|m| m.opt_gap_remaining),
    );
    m.exact(
        "acic_mpki_ratio",
        "ratio",
        Better::Lower,
        model_value(|m| m.acic_mpki_ratio),
    );

    lines.push(format!(
        "workload {} seed {} | {} set-ups, {} measured rounds after a warm-up, {} instructions per trace | {} threads",
        p.workload.name(),
        p.seed,
        measured.setup_s.len(),
        rounds.len(),
        p.instructions,
        thread_budget()
    ));
    let per_round: Vec<String> = rounds.iter().map(|r| format!("{:.4}", r.mips())).collect();
    lines.push(format!("  sim_mips per round: {}", per_round.join(" ")));
    lines.extend(
        rounds
            .last()
            .into_iter()
            .flat_map(|r| r.notes.iter().cloned()),
    );
    for metric in &m.0 {
        lines.push(format!(
            "  {:<22} {:>16.6} {:<9} ({} is better{})",
            metric.name,
            metric.value,
            metric.unit,
            metric.better.as_str(),
            if metric.exact { ", exact" } else { "" }
        ));
    }
    lines.push(format!(
        "  complements: error_rate {:.6}, opt_gap_closed {:.6}, acic_mpki_reduction_pct {:.4}",
        1.0 - ledger.pass_rate(),
        1.0 - model_value(|m| m.opt_gap_remaining),
        100.0 * (1.0 - model_value(|m| m.acic_mpki_ratio)),
    ));
}
