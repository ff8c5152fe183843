//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, call name, start and end, the operation it
//! belongs to and the span that encloses it on the same thread. Spans stay
//! in memory while the benchmark runs and are written out once at the end.
//! A layer's self time is the summed duration of its spans minus the time
//! their direct children cover. Some children are *attributed* rather than
//! timed: a platform run reports the seconds it spent in scheduler
//! callbacks, and that share is booked to the `sched` layer as a child of
//! the run's span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub thread: u32,
    pub start: f64,
    pub end: f64,
}

/// Collects spans when on; when off every call runs untimed.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    // ordering: Relaxed — a unique label per thread, publishes nothing.
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span buffer poisoned by a panic")
    }

    /// Runs `f` inside a span of `layer`/`name` for operation `op`.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start = self.now();
        let idx = {
            let mut spans = self.lock();
            spans.push(Span {
                layer,
                name,
                op,
                parent,
                thread: THREAD.with(|t| *t),
                start,
                end: start,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now();
        self.lock()[idx].end = end;
        out
    }

    /// Books `seconds` of the innermost open span to `layer` as a child
    /// span — time the callee measured inside itself.
    pub fn attribute(&self, layer: &'static str, name: &'static str, op: u64, seconds: f64) {
        if !self.on {
            return;
        }
        let Some(parent) = OPEN.with(|o| o.borrow().last().copied()) else {
            return;
        };
        let mut spans = self.lock();
        let start = spans[parent].start;
        spans.push(Span {
            layer,
            name,
            op,
            parent: Some(parent),
            thread: THREAD.with(|t| *t),
            start,
            end: start + seconds.max(0.0),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per layer: each span's duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.layer).or_insert(0.0) += (s.end - s.start - children).max(0.0);
    }
    out
}

/// Writes the spans as CSV (`op,parent,layer,name,thread,start_s,end_s`).
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op,parent,layer,name,thread,start_s,end_s")?;
    for s in spans {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{},{},{},{},{},{:.9},{:.9}",
            s.op, parent, s.layer, s.name, s.thread, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new(true);
        t.span("bench", "op", 0, || {
            t.span("sim", "run", 0, || {
                t.attribute("sched", "callbacks", 0, 0.0)
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = self_times(&spans);
        let total: f64 = own.values().sum();
        assert!((total - (spans[0].end - spans[0].start)).abs() < 1e-9);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("sim", "run", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
