//! Output checks. Each returns the problems found; an empty list
//! means the output passed. A problem fails the operation that
//! produced the output (see [`crate::metrics::Ledger`]).

use acic_sim::{FunctionalReport, SimReport};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .map_or_else(|| "panicked".to_string(), |m| format!("panicked: {m}"))
    })
}

/// A timing or sampled report over a trace of `len` instructions:
/// every instruction simulated, misses within accesses, the measured
/// window within the total.
pub fn sim_report(r: &SimReport, len: u64) -> Vec<String> {
    let mut p = Vec::new();
    if r.total_instructions != len {
        p.push(format!(
            "simulated {} instructions of a {len}-instruction trace",
            r.total_instructions
        ));
    }
    if r.measured_instructions > r.total_instructions || r.measured_cycles > r.total_cycles {
        p.push(format!(
            "measured {}/{} instrs, {}/{} cycles exceeds the total",
            r.measured_instructions, r.total_instructions, r.measured_cycles, r.total_cycles
        ));
    }
    for (level, s) in [
        ("l1i", &r.l1i),
        ("l1d", &r.l1d),
        ("l2", &r.l2),
        ("l3", &r.l3),
    ] {
        if s.demand_misses > s.demand_accesses {
            p.push(format!(
                "{level}: {} demand misses > {} demand accesses",
                s.demand_misses, s.demand_accesses
            ));
        }
    }
    if r.measured_instructions == 0 || r.measured_cycles == 0 {
        p.push("empty measured window".to_string());
    }
    p
}

/// A functional report over a trace of `len` instructions.
pub fn functional_report(r: &FunctionalReport, len: u64) -> Vec<String> {
    let mut p = Vec::new();
    if r.instructions != len {
        p.push(format!(
            "consumed {} instructions of a {len}-instruction trace",
            r.instructions
        ));
    }
    if r.accesses > r.instructions {
        p.push(format!(
            "{} block accesses > {} instructions",
            r.accesses, r.instructions
        ));
    }
    if r.l1i.demand_misses > r.l1i.demand_accesses {
        p.push(format!(
            "{} demand misses > {} demand accesses",
            r.l1i.demand_misses, r.l1i.demand_accesses
        ));
    }
    p
}

/// Remembers the first exact fingerprint of every labelled output and
/// reports any repeat that differs from it.
#[derive(Default)]
pub struct Repeats(BTreeMap<String, String>);

impl Repeats {
    /// `Some(problem)` when `label` was seen before with another
    /// fingerprint.
    pub fn check(&mut self, label: &str, fingerprint: String) -> Option<String> {
        match self.0.get(label) {
            None => {
                self.0.insert(label.to_string(), fingerprint);
                None
            }
            Some(first) if *first == fingerprint => None,
            Some(_) => Some("exact output differs from its first run".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_reports_the_panic_message() {
        assert_eq!(guarded(|| 3), Ok(3));
        let err = guarded(|| -> u32 { panic!("boom {}", 1) }).unwrap_err();
        assert_eq!(err, "panicked: boom 1");
    }

    #[test]
    fn repeats_flag_a_changed_fingerprint() {
        let mut r = Repeats::default();
        assert!(r.check("a", "x".into()).is_none());
        assert!(r.check("a", "x".into()).is_none());
        assert!(r.check("a", "y".into()).is_some());
    }

    #[test]
    fn inconsistent_reports_are_flagged() {
        let mut r = SimReport::default();
        assert!(!sim_report(&r, 10).is_empty());
        r.total_instructions = 10;
        r.measured_instructions = 9;
        r.total_cycles = 20;
        r.measured_cycles = 18;
        assert!(sim_report(&r, 10).is_empty());
        r.l1i.demand_misses = 1;
        assert!(!sim_report(&r, 10).is_empty());
    }
}
