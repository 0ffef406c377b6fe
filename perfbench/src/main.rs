//! `acic-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints a human-readable table, then the result line as the last
//! line of standard output. Run from the repository root; scratch
//! files go under `.bench_out/` and are removed on exit, spans of a
//! traced run are written to `.bench_out/spans-*.jsonl`.

use acic_perfbench::{metrics, run, Params, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: acic-perfbench --workload <{}> [--seed <u64, default {DEFAULT_SEED}>] \
         [--seconds <s, default 10>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    ))
}

/// `ACIC_DENSE_LOOP` swaps the engine loop and the `ACIC_*_CELL` and
/// fault knobs inject failures, so none may leak into a measurement.
fn refuse_inherited_env() -> Result<(), String> {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ACIC_"))
        .collect();
    if inherited.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with inherited {}; unset them first",
            inherited.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("acic-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_inherited_env() {
        eprintln!("acic-perfbench: {e}");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    let params = Params::new(workload, seed, seconds, trace, scratch.clone());
    let result = run(&params);
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!(
            "acic-perfbench: could not remove {}: {e}",
            scratch.display()
        );
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("acic-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if trace {
        let path = out_dir.join(format!(
            "spans-{}-seed{seed}-{}.jsonl",
            workload.name(),
            std::process::id()
        ));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("acic-perfbench: could not write {}: {e}", path.display()),
        }
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    for failure in &outcome.ledger.failures {
        println!("FAILED {failure}");
    }
    println!(
        "{}",
        metrics::result_line(&outcome.ledger, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
