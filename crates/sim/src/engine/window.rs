//! Window-parallel sampled execution: one serial warm pass, with every
//! detailed window forked off it and run on its own core.
//!
//! The serial [`Engine::run`] schedule threads one persistent
//! `WindowCheckpoint` through every phase, so windows inherit warm
//! caches from the whole prefix. Detailed interiors are the expensive
//! part of a cell and each one depends only on the state the walk
//! hands it, so this module splits the schedule in two. A
//! [`WindowPlan`] derives every detailed window's position from the
//! [`SampleSchedule`] up front (the same midpoint/clamp arithmetic as
//! the serial cursor walk). Then one checkpoint — the **spine** —
//! walks the serial schedule's phase structure once: the same initial
//! warmup, the same convergence-gated fast-forward-or-warm gaps, the
//! same per-window warmups, with every interior warmed functionally
//! rather than measured. At each planned interior the spine **forks**:
//! it deep-copies its checkpoint (oracle cursor included), opens a
//! trace pass positioned at the spine's `consumed` count via
//! [`TraceSource::skip`], and hands the pair off. The fork runs that
//! window's detailed interior and is discarded; the spine warms
//! through the interior and walks on. The reducer pools samples in
//! canonical window order, so pooled `SampledStats` are
//! **bit-identical across worker counts**; fidelity against the
//! full-detail reference is a separate contract, enforced at the same
//! 2% IPC gate as the serial sampler (see `tests/sampled_sim.rs`).
//!
//! # Cost model
//!
//! A cell costs one serial warm pass plus W detailed forks. The pass
//! is the serial sampler's own walk with its interiors warmed instead
//! of simulated, so it costs about one [`Engine::run`] of the cell.
//! A fork costs a state copy (tag arrays, predictor tables and the
//! oracle cursor's last-access map — architectural sizes, never
//! trace-sized), a trace seek (O(1) on `PackedTrace` and `VecTrace`;
//! generate-and-discard on generated sources) and its detailed
//! interior. With `workers > 1` the forks run on `workers − 1` helper
//! threads while the spine walks on; a fork is copied only once a
//! helper is free, so at most `workers` checkpoints are alive at once.
//! With `workers ≤ 1` each fork runs inline before the spine moves on.
//!
//! # Why forking equals the per-window replay
//!
//! The windowed schedule is defined per window: a private checkpoint
//! replays the serial phase structure from instruction 0 up to that
//! window's interior, demoting every prior interior to functional
//! warmup, then measures its own interior. (`run_window_mirror` in
//! this module's tests is that definition, kept as a reference twin.)
//! Window k's replay performs exactly the spine's phase sequence up to
//! interior k — the convergence gate reads only state the walk itself
//! produced — so the checkpoint it reaches *is* the spine's checkpoint
//! at interior k, and the fork is a deep copy of it. The fork's trace
//! pass starts at the same instruction the spine would read next (the
//! spine's buffered lookahead always starts a fresh block run, and so
//! does the first instruction of a new pass), and its oracle cursor
//! sits at the same position with the same last-access map. Its
//! detailed segment therefore sees identical inputs and returns an
//! identical outcome — including the prefix-inclusive `warmed` and
//! `fastforwarded` counts the reducer sums into `SampledStats`. A
//! window the walk never reaches (the trace ends first) gets the
//! spine's final state, exactly where its replay would have stopped.
//!
//! Mirroring the serial phase structure rather than warming a bounded
//! reach or the whole prefix unconditionally is a fidelity choice,
//! both alternatives measured against the full-detail reference: L3
//! content accrues over the entire prefix, so a truncated reach
//! starves interiors (37% pooled-IPC error at a 2M reach on the 20M
//! web-search cell), while unconditional full-prefix warming leaves
//! the caches cleaner than the serial sampler's detailed interiors and
//! skipped gaps do (+2.6% IPC on the same cell).

use super::{Engine, Phase, TimingLoop, WindowCheckpoint, WindowSample};
use crate::config::{SampleSchedule, SimConfig};
use crate::report::{BranchStats, PrefetchStats, SimReport};
use acic_cache::CacheStats;
use acic_core::{AcicIcache, AcicStats, CshrStats};
use acic_trace::{GroupedRuns, ReuseOracle, TraceSource};
use std::sync::{mpsc, Mutex};

/// One planned detailed window: where the measured interior starts
/// and how long it is. Positions are instruction indices from the
/// start of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedWindow {
    /// Canonical window number (reduction order).
    pub index: usize,
    /// First instruction of the detailed interior.
    pub detailed_start: u64,
    /// Interior length (truncated at end-of-trace).
    pub detailed_len: u64,
}

/// The full window schedule for one trace: every window's bounds,
/// derived once, identically for any worker count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowPlan {
    /// Population size the pooled estimators extrapolate to.
    pub total_instructions: u64,
    /// Windows in canonical (trace) order.
    pub windows: Vec<PlannedWindow>,
}

impl WindowPlan {
    /// Derives the window schedule for a `total`-instruction trace.
    ///
    /// The detailed-interior positions mirror the serial cursor walk:
    /// an initial warm-up region of `total * warmup_fraction` is never
    /// measured, the first period is halved so windows land at period
    /// midpoints, and the per-period fast-forward is clamped so a
    /// final warmup+detailed window still fits before end-of-trace
    /// (`ff = min(ff_len, remaining - warmup - detailed)`). A final
    /// interior that would cross end-of-trace is truncated to it.
    ///
    /// Returns `None` for [`SampleSchedule::Full`] and for traces too
    /// short to fit the initial warmup plus one warmup+detailed window
    /// — exactly the cases the serial engine degenerates to full
    /// detail, so callers fall back to [`Engine::run`].
    pub fn for_trace(
        total: u64,
        schedule: SampleSchedule,
        warmup_fraction: f64,
    ) -> Option<WindowPlan> {
        let SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        } = schedule
        else {
            return None;
        };
        let initial_warmup = (total as f64 * warmup_fraction) as u64;
        if total <= initial_warmup + warmup_len + detailed_len {
            return None;
        }
        let ff_len = period - warmup_len - detailed_len;
        let mut windows = Vec::new();
        let mut pos = initial_warmup;
        let mut first = true;
        while pos < total {
            let remaining = total - pos;
            let (ff_want, warm_want) = if first {
                first = false;
                (ff_len / 2, warmup_len / 2)
            } else {
                (ff_len, warmup_len)
            };
            let ff = ff_want.min(remaining.saturating_sub(warm_want + detailed_len));
            let detailed_start = pos + ff + warm_want;
            if detailed_start >= total {
                break;
            }
            windows.push(PlannedWindow {
                index: windows.len(),
                detailed_start,
                detailed_len: detailed_len.min(total - detailed_start),
            });
            pos = detailed_start + detailed_len.min(total - detailed_start);
        }
        if windows.is_empty() {
            return None;
        }
        Some(WindowPlan {
            total_instructions: total,
            windows,
        })
    }
}

/// Everything one window hands back to the reducer: the measured
/// sample plus every additive statistic the report carries. Plain
/// counters only — `Send` across the result channel, merged in
/// canonical window order.
#[derive(Clone)]
struct WindowOutcome {
    sample: Option<WindowSample>,
    l1i: CacheStats,
    l1d: CacheStats,
    l2: CacheStats,
    l3: CacheStats,
    dram_accesses: u64,
    branch: BranchStats,
    prefetch: PrefetchStats,
    context_switches: u64,
    warmed: u64,
    fastforwarded: u64,
    /// Host seconds this window spent in its detailed interior
    /// (diagnostics only; the spine's warm time is reported once).
    t_detail: f64,
    acic: Option<AcicStats>,
    cshr: Option<CshrStats>,
}

/// Distills one window's finished checkpoint into a [`WindowOutcome`].
fn finish_window(state: WindowCheckpoint<'_>, sample: Option<WindowSample>) -> WindowOutcome {
    let acic = state
        .contents
        .as_any()
        .downcast_ref::<AcicIcache>()
        .map(|a| *a.acic_stats());
    let cshr = state
        .contents
        .as_any()
        .downcast_ref::<AcicIcache>()
        .map(|a| a.cshr_stats());
    WindowOutcome {
        sample,
        l1i: state.contents.stats(),
        l1d: state.mem.l1d_stats(),
        l2: state.mem.l2_stats(),
        l3: state.mem.l3_stats(),
        dram_accesses: state.mem.dram_accesses,
        branch: state.frontend.stats(),
        prefetch: state.prefetch_stats,
        context_switches: state.context_switches,
        warmed: state.warmed,
        fastforwarded: state.fastforwarded,
        t_detail: state.t_detail,
        acic,
        cshr,
    }
}

impl<'o> WindowCheckpoint<'o> {
    /// A deep copy of the spine for one window. The phase timers
    /// restart at zero so the spine's warm time is not counted once
    /// per window.
    fn fork(&self) -> WindowCheckpoint<'o> {
        let mut fork = self.clone();
        fork.t_ff = 0.0;
        fork.t_warm = 0.0;
        fork.t_detail = 0.0;
        fork
    }
}

/// Walks the spine: the serial schedule's phase structure from
/// instruction 0 — initial warmup, then per period the same
/// convergence-gated fast-forward-or-warm and warmup segments as
/// [`Engine::run`] — with every interior warmed instead of measured.
/// `on_interior` sees the spine at the start of each planned interior
/// reached, in window order; the walk stops once the last planned
/// window has been handed out. Returns the spine and the number of
/// windows handed out (fewer than planned only when the trace ends
/// first).
///
/// The convergence gate sees warm traffic where the serial engine saw
/// detailed traffic for interiors (22k instructions against a
/// ~700k-instruction period), a deliberate approximation: gate
/// decisions shift serial-vs-windowed fidelity, never worker-count
/// determinism, because the walk is the same for every worker count.
fn walk_spine<'o, W: TraceSource>(
    cfg: &SimConfig,
    workload: &W,
    plan: &WindowPlan,
    oracle: Option<&'o ReuseOracle>,
    timing_loop: TimingLoop,
    mut on_interior: impl FnMut(&PlannedWindow, &WindowCheckpoint<'o>),
) -> (WindowCheckpoint<'o>, usize) {
    let SampleSchedule::Periodic {
        period,
        warmup_len,
        detailed_len,
    } = cfg.schedule
    else {
        unreachable!("window plans exist only for periodic schedules");
    };
    let total = plan.total_instructions;
    let mut state = WindowCheckpoint::fresh(cfg, workload.seed(), total, timing_loop);
    state.cursor = oracle.map(|o| o.cursor());
    let mut runs = GroupedRuns::new(workload.iter());
    let initial_warmup = (total as f64 * cfg.warmup_fraction) as u64;
    state.segment(Phase::Warmup, &mut runs, initial_warmup, cfg, W::skip);
    let ff_len = period - warmup_len - detailed_len;
    let mut first_period = true;
    let mut converged = false;
    let mut last_l3_fills = state.mem.warm_l3_fills;
    let mut last_warmed = state.warmed;
    let mut forked = 0usize;
    while !state.trace_over && state.consumed < total {
        let remaining = total - state.consumed;
        let (ff_want, warmup) = if first_period {
            first_period = false;
            (ff_len / 2, warmup_len / 2)
        } else {
            (ff_len, warmup_len)
        };
        let ff = ff_want.min(remaining.saturating_sub(warmup + detailed_len));
        if converged && ff > 0 {
            state.segment(Phase::FastForward, &mut runs, ff, cfg, W::skip);
            if state.trace_over {
                break;
            }
            state.segment(Phase::Warmup, &mut runs, warmup, cfg, W::skip);
        } else {
            state.segment(Phase::Warmup, &mut runs, ff + warmup, cfg, W::skip);
        }
        if state.trace_over {
            break;
        }
        let w = &plan.windows[forked];
        // Warmup segments consume whole block runs, so the walk lands
        // at or a few instructions past the plan's idealized
        // arithmetic — never before it, and never a period away (that
        // would mean the fork measures the wrong window).
        debug_assert!(
            state.consumed >= w.detailed_start && state.consumed - w.detailed_start < period,
            "spine drifted from the plan: consumed {} vs planned start {}",
            state.consumed,
            w.detailed_start
        );
        on_interior(w, &state);
        forked += 1;
        if forked == plan.windows.len() {
            break;
        }
        // The interior itself: warmed, not measured — deep state keeps
        // evolving as in the serial walk.
        state.segment(
            Phase::Warmup,
            &mut runs,
            detailed_len.min(total - state.consumed),
            cfg,
            W::skip,
        );
        let fills = state.mem.warm_l3_fills - last_l3_fills;
        let warmed = state.warmed - last_warmed;
        last_l3_fills = state.mem.warm_l3_fills;
        last_warmed = state.warmed;
        converged = warmed > 0 && fills * 1_000_000 < warmed * super::L3_CONVERGED_FILLS_PER_MI;
    }
    (state, forked)
}

/// Runs one forked window's detailed interior on a fresh trace pass
/// positioned where the spine stood when it forked.
fn run_fork<W: TraceSource>(
    cfg: &SimConfig,
    workload: &W,
    w: &PlannedWindow,
    mut fork: WindowCheckpoint<'_>,
) -> WindowOutcome {
    let mut iter = workload.iter();
    let skipped = W::skip(&mut iter, fork.consumed);
    debug_assert_eq!(skipped, fork.consumed, "fork positioned past end of trace");
    let mut runs = GroupedRuns::new(iter);
    let sample = fork.segment(Phase::Detailed, &mut runs, w.detailed_len, cfg, W::skip);
    finish_window(fork, sample)
}

/// Pools per-window outcomes — in canonical window order — into one
/// [`SimReport`], using the same [`super::pool_windows`] estimators as
/// the serial schedule. The reduction is a fold over an index-ordered
/// slice of pure counters, so it is deterministic regardless of which
/// thread produced which outcome when. `spine_times` is the walk's
/// `(fast-forward, warm)` host time, for the phase-times diagnostic.
fn reduce(
    cfg: &SimConfig,
    app: &str,
    plan: &WindowPlan,
    outcomes: &[WindowOutcome],
    spine_times: (f64, f64),
) -> SimReport {
    let windows: Vec<WindowSample> = outcomes.iter().filter_map(|o| o.sample).collect();
    let mut l1i = CacheStats::default();
    let mut l1d = CacheStats::default();
    let mut l2 = CacheStats::default();
    let mut l3 = CacheStats::default();
    let mut branch = BranchStats::default();
    let mut prefetch = PrefetchStats::default();
    let mut dram_accesses = 0u64;
    let mut context_switches = 0u64;
    let mut warmed = 0u64;
    let mut fastforwarded = 0u64;
    let mut acic: Option<AcicStats> = None;
    let mut cshr: Option<CshrStats> = None;
    for o in outcomes {
        l1i.merge(&o.l1i);
        l1d.merge(&o.l1d);
        l2.merge(&o.l2);
        l3.merge(&o.l3);
        branch.merge(&o.branch);
        prefetch.merge(&o.prefetch);
        dram_accesses += o.dram_accesses;
        context_switches += o.context_switches;
        warmed += o.warmed;
        fastforwarded += o.fastforwarded;
        if let Some(a) = &o.acic {
            acic.get_or_insert_with(AcicStats::default).merge(a);
        }
        if let Some(c) = &o.cshr {
            cshr.get_or_insert_with(CshrStats::default).merge(c);
        }
    }
    let (est_total_cycles, detailed_instructions, detailed_cycles, stats, window_ipc, window_mpki) =
        super::pool_windows(&windows, plan.total_instructions, warmed, fastforwarded);
    if std::env::var_os("ACIC_ENGINE_DEBUG").is_some() {
        for (i, w) in windows.iter().enumerate() {
            eprintln!(
                "window {i}: instrs={} cycles={} ipc={:.3} mpki={:.3}",
                w.instructions,
                w.cycles,
                w.instructions as f64 / w.cycles as f64,
                w.full_demand_misses as f64 * 1000.0 / w.full_instructions.max(1) as f64
            );
        }
    }
    if std::env::var_os("ACIC_PHASE_TIMES").is_some() {
        let (t_ff, t_warm) = spine_times;
        let t_detail: f64 = outcomes.iter().map(|o| o.t_detail).sum();
        eprintln!(
            "window-parallel phase times: spine ff={t_ff:.3}s warm={t_warm:.3}s, \
             forks detailed={t_detail:.3}s cpu-summed (ff {fastforwarded} instrs, \
             warmed {warmed}, windows {})",
            windows.len()
        );
    }
    SimReport {
        app: app.to_string(),
        org: cfg.icache_org.label().to_string(),
        total_instructions: plan.total_instructions,
        total_cycles: est_total_cycles.round() as u64,
        measured_instructions: detailed_instructions,
        measured_cycles: detailed_cycles,
        l1i,
        l1d,
        l2,
        l3,
        dram_accesses,
        branch,
        prefetch,
        context_switches,
        acic,
        cshr,
        // Lifetime instrumentation needs one unbounded CSHR observing
        // the whole trace; per-window forks cannot pool it. The field
        // is None in windowed mode for every worker count.
        cshr_lifetimes: None,
        sampled: Some(stats),
        window_ipc,
        window_mpki,
    }
}

impl Engine {
    /// Runs `workload` under `cfg` with the window-parallel schedule:
    /// one serial warm pass forks every detailed window, and the forks
    /// run on `workers − 1` helper threads beside it (0 and 1 both
    /// mean every fork runs inline on the calling thread — the *same*
    /// per-window computation, which is what makes worker count
    /// unobservable in the output).
    ///
    /// Full schedules and traces too short to sample fall back to
    /// [`Engine::run`] (they have no windows to parallelize and the
    /// serial engine is already exact there).
    ///
    /// # Determinism
    ///
    /// The returned report is bit-identical for every `workers` value:
    /// the plan is derived before any window runs, the warm pass is
    /// one serial walk, each window's detailed segment depends only on
    /// the checkpoint forked for it, and the reducer folds outcomes in
    /// canonical window order.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is inconsistent
    /// ([`SampleSchedule::validate`]) or a worker thread panics.
    pub fn run_windowed<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
    ) -> SimReport {
        Self::run_windowed_with_loop(cfg, workload, workers, TimingLoop::from_env())
    }

    /// [`Engine::run_windowed`] with an explicit [`TimingLoop`]
    /// selection — the windowed leg of the dense-vs-event equivalence
    /// suites.
    pub fn run_windowed_with_loop<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
        timing_loop: TimingLoop,
    ) -> SimReport {
        cfg.schedule.validate();
        let (oracle, total) = super::oracle_pre_pass(cfg, workload);
        let Some(plan) = WindowPlan::for_trace(total, cfg.schedule, cfg.warmup_fraction) else {
            return Engine::run_with_loop(cfg, workload, timing_loop);
        };
        let n = plan.windows.len();
        let mut slots: Vec<Option<WindowOutcome>> = (0..n).map(|_| None).collect();
        let (spine, forked) = if workers <= 1 {
            walk_spine(
                cfg,
                workload,
                &plan,
                oracle.as_ref(),
                timing_loop,
                |w, spine| slots[w.index] = Some(run_fork(cfg, workload, w, spine.fork())),
            )
        } else {
            let helpers = (workers - 1).min(n);
            let (job_tx, job_rx) = mpsc::channel::<(usize, WindowCheckpoint<'_>)>();
            let job_rx = Mutex::new(job_rx);
            // One token per helper: the spine copies a fork only after
            // taking a token, and a helper returns its token once its
            // fork is finished and dropped — so at most `helpers` forks
            // plus the spine are alive at once.
            let (free_tx, free_rx) = mpsc::channel::<()>();
            let (done_tx, done_rx) = mpsc::channel::<(usize, WindowOutcome)>();
            let plan = &plan;
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    let job_rx = &job_rx;
                    let free_tx = free_tx.clone();
                    let done_tx = done_tx.clone();
                    free_tx.send(()).expect("token receiver is alive");
                    scope.spawn(move || loop {
                        let job = job_rx.lock().expect("job queue lock").recv();
                        let Ok((k, fork)) = job else {
                            break;
                        };
                        let out = run_fork(cfg, workload, &plan.windows[k], fork);
                        if done_tx.send((k, out)).is_err() || free_tx.send(()).is_err() {
                            break;
                        }
                    });
                }
                drop((free_tx, done_tx));
                let walked = walk_spine(
                    cfg,
                    workload,
                    plan,
                    oracle.as_ref(),
                    timing_loop,
                    |w, spine| {
                        free_rx.recv().expect("a window helper thread panicked");
                        job_tx
                            .send((w.index, spine.fork()))
                            .expect("job queue is open");
                    },
                );
                drop(job_tx);
                for (k, out) in done_rx {
                    slots[k] = Some(out);
                }
                walked
            })
        };
        let spine_times = (spine.t_ff, spine.t_warm);
        // Windows the walk never reached see the spine's final state,
        // exactly where their own replay would have stopped.
        let unreached = (forked < n).then(|| finish_window(spine, None));
        let outcomes: Vec<WindowOutcome> = slots
            .into_iter()
            .map(|s| {
                s.or_else(|| unreached.clone())
                    .expect("every window delivered exactly once")
            })
            .collect();
        reduce(cfg, workload.name(), &plan, &outcomes, spine_times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic(period: u64, warmup_len: u64, detailed_len: u64) -> SampleSchedule {
        SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        }
    }

    #[test]
    fn full_schedule_has_no_plan() {
        assert_eq!(
            WindowPlan::for_trace(10_000_000, SampleSchedule::Full, 0.10),
            None
        );
    }

    #[test]
    fn degenerate_trace_has_no_plan() {
        // 20k instructions cannot fit 2k initial warmup + 185k warmup
        // + 22k detailed: the serial engine degenerates to Full, so
        // the planner must refuse too.
        assert_eq!(
            WindowPlan::for_trace(20_000, periodic(700_000, 185_000, 22_000), 0.10),
            None
        );
    }

    #[test]
    fn default_schedule_windows_land_at_period_midpoints() {
        // 20M instructions, default 700k/185k/22k schedule, 10% initial
        // warmup: first interior at 2M + 493k/2 + 185k/2 = 2,339,000,
        // then one window per 700k period until the tail cannot fit a
        // warmup+detailed pair.
        let plan = WindowPlan::for_trace(20_000_000, periodic(700_000, 185_000, 22_000), 0.10)
            .expect("plannable");
        assert_eq!(plan.total_instructions, 20_000_000);
        assert_eq!(plan.windows.len(), 26);
        assert_eq!(plan.windows[0].detailed_start, 2_339_000);
        assert_eq!(plan.windows[1].detailed_start, 3_039_000);
        assert_eq!(plan.windows[25].detailed_start, 19_839_000);
        for w in &plan.windows {
            assert_eq!(w.detailed_len, 22_000);
            assert!(w.detailed_start + w.detailed_len <= 20_000_000);
        }
    }

    #[test]
    fn plan_is_monotonic_and_in_bounds() {
        for &(total, period, warm, det, frac) in &[
            (20_000_000u64, 700_000u64, 185_000u64, 22_000u64, 0.10f64),
            (1_000_000, 100_000, 20_000, 10_000, 0.10),
            (5_000_000, 250_000, 60_000, 15_000, 0.0),
        ] {
            let plan =
                WindowPlan::for_trace(total, periodic(period, warm, det), frac).expect("plannable");
            let mut prev_end = 0u64;
            for w in &plan.windows {
                assert!(w.detailed_start >= prev_end, "interiors are disjoint");
                assert!(w.detailed_len > 0);
                assert!(w.detailed_start + w.detailed_len <= total);
                prev_end = w.detailed_start + w.detailed_len;
            }
            assert_eq!(
                plan.windows.last().unwrap().index,
                plan.windows.len() - 1,
                "indices are canonical"
            );
        }
    }

    #[test]
    fn first_interior_sits_half_a_period_in() {
        // No initial warmup region: the first interior starts after
        // half a fast-forward and half a warmup (40k/2 + 20k/2).
        let plan =
            WindowPlan::for_trace(1_000_000, periodic(100_000, 20_000, 10_000), 0.0).unwrap();
        assert_eq!(plan.windows[0].detailed_start, 45_000);
        assert_eq!(plan.windows[1].detailed_start, 145_000);
    }

    #[test]
    fn final_window_truncates_at_end_of_trace() {
        // With 80k instructions and a 100k/20k/10k schedule the second
        // window's fast-forward clamps to zero and its interior hits
        // end-of-trace at 5k of its 10k budget.
        let plan = WindowPlan::for_trace(80_000, periodic(100_000, 20_000, 10_000), 0.0)
            .expect("plannable");
        let last = plan.windows.last().unwrap();
        assert_eq!(last.detailed_start, 75_000);
        assert_eq!(last.detailed_len, 5_000);
        assert_eq!(last.detailed_start + last.detailed_len, 80_000);
    }

    #[test]
    fn fast_forward_clamp_matches_serial_tail_rule() {
        // remaining - warmup - detailed < ff_len near the tail: the
        // planner shortens the skip so a final window still fits —
        // the same `ff = min(ff_len, remaining - warmup - detailed)`
        // clamp as the serial cursor walk.
        let plan = WindowPlan::for_trace(1_050_000, periodic(100_000, 20_000, 10_000), 0.0)
            .expect("plannable");
        let last = plan.windows.last().unwrap();
        assert!(last.detailed_start + last.detailed_len <= 1_050_000);
        // Every interior fits wholly inside the trace; the clamp never
        // plans an empty window.
        assert!(plan.windows.iter().all(|w| w.detailed_len > 0));
    }
}

/// The spine pinned against the per-window replay it replaces.
#[cfg(test)]
mod spine_tests {
    use super::*;
    use crate::icache::IcacheOrg;
    use acic_trace::{InterleavedTrace, PackedTrace};
    use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload};

    /// The reference definition of one window: a private fresh
    /// checkpoint replays the serial schedule's phase structure from
    /// instruction 0 — initial warmup, then per period the same
    /// convergence-gated fast-forward-or-warm and warmup segments as
    /// [`Engine::run`] — with every interior before this window's
    /// demoted from detailed to functional warmup, and this window's
    /// run at detailed fidelity. Costs the whole prefix per window;
    /// the spine must reproduce it bit for bit.
    fn run_window_mirror<W: TraceSource>(
        cfg: &SimConfig,
        workload: &W,
        w: &PlannedWindow,
        total: u64,
        oracle: Option<&ReuseOracle>,
        timing_loop: TimingLoop,
    ) -> WindowOutcome {
        let SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        } = cfg.schedule
        else {
            unreachable!("mirror windows exist only for periodic schedules");
        };
        let mut state = WindowCheckpoint::fresh(cfg, workload.seed(), total, timing_loop);
        state.cursor = oracle.map(|o| o.cursor());
        let mut runs = GroupedRuns::new(workload.iter());
        let initial_warmup = (total as f64 * cfg.warmup_fraction) as u64;
        state.segment(Phase::Warmup, &mut runs, initial_warmup, cfg, W::skip);
        let ff_len = period - warmup_len - detailed_len;
        let mut first_period = true;
        let mut converged = false;
        let mut last_l3_fills = state.mem.warm_l3_fills;
        let mut last_warmed = state.warmed;
        let mut sample = None;
        let mut window_index = 0usize;
        while !state.trace_over && state.consumed < total {
            let remaining = total - state.consumed;
            let (ff_want, warmup) = if first_period {
                first_period = false;
                (ff_len / 2, warmup_len / 2)
            } else {
                (ff_len, warmup_len)
            };
            let ff = ff_want.min(remaining.saturating_sub(warmup + detailed_len));
            if converged && ff > 0 {
                state.segment(Phase::FastForward, &mut runs, ff, cfg, W::skip);
                if state.trace_over {
                    break;
                }
                state.segment(Phase::Warmup, &mut runs, warmup, cfg, W::skip);
            } else {
                state.segment(Phase::Warmup, &mut runs, ff + warmup, cfg, W::skip);
            }
            if state.trace_over {
                break;
            }
            if window_index == w.index {
                sample = state.segment(Phase::Detailed, &mut runs, w.detailed_len, cfg, W::skip);
                break;
            }
            state.segment(
                Phase::Warmup,
                &mut runs,
                detailed_len.min(total - state.consumed),
                cfg,
                W::skip,
            );
            window_index += 1;
            let fills = state.mem.warm_l3_fills - last_l3_fills;
            let warmed = state.warmed - last_warmed;
            last_l3_fills = state.mem.warm_l3_fills;
            last_warmed = state.warmed;
            converged =
                warmed > 0 && fills * 1_000_000 < warmed * super::super::L3_CONVERGED_FILLS_PER_MI;
        }
        finish_window(state, sample)
    }

    /// The windowed schedule computed window by window with
    /// [`run_window_mirror`]: the reference report.
    fn run_windowed_reference<W: TraceSource>(cfg: &SimConfig, workload: &W) -> SimReport {
        let (oracle, total) = super::super::oracle_pre_pass(cfg, workload);
        let plan = WindowPlan::for_trace(total, cfg.schedule, cfg.warmup_fraction)
            .expect("reference runs need a plannable trace");
        let outcomes: Vec<WindowOutcome> = plan
            .windows
            .iter()
            .map(|w| {
                run_window_mirror(
                    cfg,
                    workload,
                    w,
                    total,
                    oracle.as_ref(),
                    TimingLoop::EventHorizon,
                )
            })
            .collect();
        reduce(cfg, workload.name(), &plan, &outcomes, (0.0, 0.0))
    }

    fn sched() -> SampleSchedule {
        SampleSchedule::Periodic {
            period: 150_000,
            warmup_len: 40_000,
            detailed_len: 15_000,
        }
    }

    /// Spine == reference at workers {1, 2, 7}, by full `Debug`
    /// rendering (bit-level for every `f64` estimator).
    fn pin<W: TraceSource + Sync>(cfg: &SimConfig, wl: &W, what: &str) -> SimReport {
        let reference = run_windowed_reference(cfg, wl);
        assert!(reference.sampled.is_some(), "{what}: sampled");
        for workers in [1usize, 2, 7] {
            let spine = Engine::run_windowed_with_loop(cfg, wl, workers, TimingLoop::EventHorizon);
            assert_eq!(
                format!("{reference:?}"),
                format!("{spine:?}"),
                "{what}: spine != per-window replay at {workers} workers"
            );
        }
        reference
    }

    #[test]
    fn spine_matches_replay_across_organizations() {
        let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 600_000);
        for org in [
            IcacheOrg::Lru,
            IcacheOrg::LruFlush,
            IcacheOrg::Srrip,
            IcacheOrg::acic_default(),
            IcacheOrg::Opt,
        ] {
            let cfg = SimConfig::default()
                .with_org(org.clone())
                .with_schedule(sched());
            let r = pin(&cfg, &wl, org.label());
            assert!(r.sampled.unwrap().windows >= 3, "{}", org.label());
        }
    }

    #[test]
    fn spine_matches_replay_on_a_packed_multi_tenant_interleave() {
        // Three tenants, frozen: the O(1) `PackedTrace` skip positions
        // each fork, and the interiors see tenant switches.
        let wl: InterleavedTrace<_> = MultiTenantWorkload::new(5_000)
            .suite_tenants(3, 200_000)
            .build();
        let packed = PackedTrace::from_source(&wl);
        for org in [
            IcacheOrg::LruFlush,
            IcacheOrg::acic_default(),
            IcacheOrg::Opt,
        ] {
            let cfg = SimConfig::default()
                .with_org(org.clone())
                .with_schedule(sched());
            let r = pin(&cfg, &packed, org.label());
            assert!(r.context_switches > 0, "{}: switches", org.label());
        }
    }

    #[test]
    fn spine_matches_replay_when_the_last_interior_truncates() {
        // 180k instructions, no initial warmup, a 100k/20k/10k
        // schedule: interiors at 45k and 145k, and the tail clamp puts
        // the third at 175k with only 5k of its 10k budget left.
        let schedule = SampleSchedule::Periodic {
            period: 100_000,
            warmup_len: 20_000,
            detailed_len: 10_000,
        };
        let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 180_000);
        let plan = WindowPlan::for_trace(180_000, schedule, 0.0).unwrap();
        let last = plan.windows.last().unwrap();
        assert!(last.detailed_len < 10_000, "the last interior truncates");
        for org in [IcacheOrg::Lru, IcacheOrg::Opt] {
            let mut cfg = SimConfig::default()
                .with_org(org.clone())
                .with_schedule(schedule);
            cfg.warmup_fraction = 0.0;
            pin(&cfg, &wl, org.label());
        }
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::icache::IcacheOrg;

    #[test]
    #[ignore = "diagnostic"]
    fn windowed_vs_serial_debug() {
        use acic_workloads::{AppProfile, SyntheticWorkload};
        let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 5_000_000);
        for org in [IcacheOrg::Lru, IcacheOrg::acic_default()] {
            let cfg = SimConfig::default()
                .with_org(org.clone())
                .with_schedule(SampleSchedule::default_sampled());
            eprintln!("=== serial {org:?} ===");
            let s = Engine::run(&cfg, &wl);
            eprintln!("=== windowed {org:?} ===");
            let w = Engine::run_windowed(&cfg, &wl, 1);
            eprintln!(
                "{org:?}: serial ipc {:.4} windowed ipc {:.4}",
                s.ipc(),
                w.ipc()
            );
            eprintln!(
                "serial l2 {:?} l3 {:?} dram {}",
                s.l2.demand_misses, s.l3.demand_misses, s.dram_accesses
            );
            eprintln!(
                "windowed l2 {:?} l3 {:?} dram {}",
                w.l2.demand_misses, w.l3.demand_misses, w.dram_accesses
            );
        }
    }
}
