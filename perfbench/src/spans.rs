//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls this benchmark makes into the
//! simulator's crates; nothing inside those crates is instrumented.
//! They stay in memory until the run ends, when [`Tracer::write_jsonl`]
//! writes them out and [`Tracer::self_times`] folds them into the
//! per-span table the traced run prints.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within one tracer, in start order.
    pub id: u32,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `sim.engine.run`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a disabled tracer only calls through.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, parented to the span open
    /// on this thread. A span that unwinds is closed but not recorded.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        struct Close;
        impl Drop for Close {
            fn drop(&mut self) {
                OPEN.with(|s| s.borrow_mut().pop());
            }
        }
        // Relaxed: the counter only hands out unique ids.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let close = Close;
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        drop(close);
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Per span name: (count, total seconds, self seconds), where a
    /// span's self time is its duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = (s.end_ns - s.start_ns)
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
                as f64
                * 1e-9;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let table = t.self_times();
        assert!(table["outer"].2 < table["outer"].1);
        assert!(table["inner"].1 >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
