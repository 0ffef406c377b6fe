//! The backend: decode queue, ROB, execution latencies and in-order
//! retirement.
//!
//! Deliberately simple (DESIGN.md §6): instructions dispatch in order
//! into the ROB, complete after a latency (loads consult the memory
//! hierarchy), and retire in order. This converts front-end stalls
//! and cache misses into cycles without modeling a full scheduler.

use crate::config::SimConfig;
use crate::mem::MemoryHierarchy;
use acic_trace::{Instr, InstrKind};
use acic_types::Cycle;
use std::collections::VecDeque;

/// An instruction waiting in the decode queue.
#[derive(Clone, Copy, Debug)]
pub struct DecodedInstr {
    /// The instruction.
    pub instr: Instr,
    /// Global index assigned by the front end.
    pub index: u64,
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    done: Cycle,
}

/// Decode queue + ROB + retirement.
#[derive(Clone)]
pub struct Backend {
    /// Decode queue (Table II: 60 entries).
    pub dq: VecDeque<DecodedInstr>,
    dq_capacity: usize,
    rob: VecDeque<RobEntry>,
    rob_capacity: usize,
    dispatch_width: u32,
    retire_width: u32,
    long_alu_latency: u64,
    /// Retired instruction count.
    pub retired: u64,
    /// Resolved branches (global index, completion cycle) this cycle —
    /// drained by the simulator to unstall the front end.
    pub resolved_branches: Vec<(u64, Cycle)>,
}

impl Backend {
    /// Builds the backend from the simulation config.
    pub fn new(cfg: &SimConfig) -> Self {
        Backend {
            dq: VecDeque::with_capacity(cfg.decode_queue_entries),
            dq_capacity: cfg.decode_queue_entries,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_capacity: cfg.rob_entries,
            dispatch_width: cfg.decode_width,
            retire_width: cfg.retire_width,
            long_alu_latency: 4,
            retired: 0,
            resolved_branches: Vec::new(),
        }
    }

    /// Free slots in the decode queue.
    pub fn dq_space(&self) -> usize {
        self.dq_capacity - self.dq.len()
    }

    /// Whether every structure is empty (pipeline drained).
    pub fn drained(&self) -> bool {
        self.dq.is_empty() && self.rob.is_empty()
    }

    /// Completion cycle of the oldest ROB entry, or `None` when the
    /// ROB is empty. Retirement is in order, so no retire can happen
    /// before this cycle (an already-due head means the next cycle
    /// retires more — the width limit, not latency, is the stall).
    pub fn next_retire_at(&self) -> Option<Cycle> {
        self.rob.front().map(|e| e.done)
    }

    /// Whether the ROB has no free slot (dispatch is blocked until a
    /// retire frees one).
    pub fn rob_full(&self) -> bool {
        self.rob.len() >= self.rob_capacity
    }

    /// Retires completed instructions in order.
    pub fn retire(&mut self, now: Cycle) {
        let mut n = 0;
        while n < self.retire_width {
            match self.rob.front() {
                Some(e) if e.done <= now => {
                    self.rob.pop_front();
                    self.retired += 1;
                    n += 1;
                }
                _ => break,
            }
        }
    }

    /// Dispatches from the decode queue into the ROB, computing
    /// completion times. Branch completions are reported through
    /// [`Backend::resolved_branches`].
    pub fn dispatch(&mut self, now: Cycle, mem: &mut MemoryHierarchy) {
        let mut n = 0;
        while n < self.dispatch_width && self.rob.len() < self.rob_capacity {
            let Some(d) = self.dq.pop_front() else { break };
            let done = match d.instr.kind {
                InstrKind::Alu => now + 1,
                InstrKind::LongAlu => now + self.long_alu_latency,
                InstrKind::Load { addr } => mem.access_data(addr, d.instr.asid(), now, false),
                InstrKind::Store { addr } => mem.access_data(addr, d.instr.asid(), now, true),
                InstrKind::Branch { .. } => {
                    let done = now + 1;
                    self.resolved_branches.push((d.index, done));
                    done
                }
            };
            self.rob.push_back(RobEntry { done });
            n += 1;
        }
    }
}

impl core::fmt::Debug for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Backend")
            .field("dq", &self.dq.len())
            .field("rob", &self.rob.len())
            .field("retired", &self.retired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::Addr;

    fn backend() -> (Backend, MemoryHierarchy) {
        let cfg = SimConfig::default();
        (Backend::new(&cfg), MemoryHierarchy::new(&cfg))
    }

    fn alu(i: u64) -> DecodedInstr {
        DecodedInstr {
            instr: Instr::alu(Addr::new(i * 4)),
            index: i,
        }
    }

    #[test]
    fn dispatch_and_retire_width_limits() {
        let (mut b, mut m) = backend();
        for i in 0..20 {
            b.dq.push_back(alu(i));
        }
        b.dispatch(0, &mut m);
        assert_eq!(b.dq.len(), 14, "6-wide dispatch");
        b.retire(1);
        assert_eq!(b.retired, 6, "6-wide retire");
    }

    #[test]
    fn in_order_retirement_blocks_on_slow_head() {
        let (mut b, mut m) = backend();
        // A cold load followed by fast ALUs: nothing retires until the
        // load completes.
        b.dq.push_back(DecodedInstr {
            instr: Instr::load(Addr::new(0), Addr::new(0x9999_0000)),
            index: 0,
        });
        for i in 1..4 {
            b.dq.push_back(alu(i));
        }
        b.dispatch(0, &mut m);
        b.retire(10);
        assert_eq!(b.retired, 0, "head load still outstanding");
        b.retire(10_000);
        assert_eq!(b.retired, 4);
    }

    #[test]
    fn branches_report_resolution() {
        let (mut b, mut m) = backend();
        b.dq.push_back(DecodedInstr {
            instr: Instr::branch(
                Addr::new(0),
                Addr::new(64),
                true,
                acic_trace::BranchClass::Direct,
            ),
            index: 42,
        });
        b.dispatch(5, &mut m);
        assert_eq!(b.resolved_branches, vec![(42, 6)]);
    }

    #[test]
    fn rob_capacity_limits_dispatch() {
        let cfg = SimConfig {
            rob_entries: 8,
            ..SimConfig::default()
        };
        let mut b = Backend::new(&cfg);
        let mut m = MemoryHierarchy::new(&cfg);
        for i in 0..20 {
            b.dq.push_back(alu(i));
        }
        b.dispatch(0, &mut m);
        b.dispatch(0, &mut m);
        assert_eq!(b.rob.len(), 8);
    }
}
