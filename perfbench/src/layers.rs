//! The per-layer metric catalogue and the accumulator that fills it.
//!
//! Every traced run reports every name in [`catalogue`], so one JSON
//! schema serves all workloads; a layer, policy or backend that a
//! workload never calls reads 0 there.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Policy labels used in per-layer metric names.
pub const POLICIES: [&str; 4] = ["activation", "membooking", "malleable", "redtree"];
/// Real-execution backend labels used in per-layer metric names
/// (`gang` is the threaded backend running malleable gangs).
pub const BACKENDS: [&str; 5] = ["threaded", "async", "sharded", "process", "gang"];
/// Layers whose self time the traced run reports: the workspace crates
/// plus the load generator.
pub const LAYERS: [&str; 10] = [
    "tree",
    "gen",
    "order",
    "sched",
    "sim",
    "runtime",
    "service",
    "multifrontal",
    "bench",
    "loadgen",
];

/// Every per-layer metric with its unit, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for p in POLICIES {
        v.push((format!("sched.{p}.sched_ns_per_node"), "ns"));
    }
    for p in POLICIES {
        v.push((format!("sim.{p}.driver_ns_per_node"), "ns"));
    }
    v.push(("order.instantiate_s".into(), "s"));
    v.push(("order.min_feasible_us".into(), "us"));
    v.push(("sched.lower_bound_ms".into(), "ms"));
    for b in BACKENDS {
        v.push((format!("runtime.{b}.ns_per_node"), "ns"));
        v.push((format!("runtime.{b}.efficiency"), "ratio"));
        v.push((format!("runtime.{b}.overhead_ns_per_node"), "ns"));
    }
    for part in ["partition", "shard_phase", "residual", "coord"] {
        v.push((format!("runtime.sharded.{part}_ms"), "ms"));
    }
    for part in ["serialize", "coord"] {
        v.push((format!("runtime.process.{part}_ms"), "ms"));
    }
    v.push(("proc.cpu_ns_per_node".into(), "ns"));
    for q in ["p50", "p90"] {
        v.push((format!("service.submit_{q}_us"), "us"));
        for part in ["admit_wait", "run", "launch_reply"] {
            v.push((format!("service.{part}_{q}_ms"), "ms"));
        }
    }
    v.push(("service.queued_frac".into(), "ratio"));
    v.push(("service.session_p90_ms".into(), "ms"));
    v.push(("service.session_p99_ms".into(), "ms"));
    v.push(("loadgen.late_p50_ms".into(), "ms"));
    v.push(("loadgen.late_p99_ms".into(), "ms"));
    v.push(("loadgen.offered_sps".into(), "1/s"));
    v.push(("gen.tree_s".into(), "s"));
    v.push(("multifrontal.corpus_s".into(), "s"));
    for l in LAYERS {
        v.push((format!("{l}.self_frac"), "ratio"));
    }
    v.push(("trace.unattributed_frac".into(), "ratio"));
    v.push(("trace.overhead_frac".into(), "ratio"));
    v
}

#[derive(Default)]
struct Inner {
    set: BTreeMap<String, f64>,
    ratio: BTreeMap<String, (f64, f64)>,
    samples: BTreeMap<String, Vec<f64>>,
}

/// Per-layer readings gathered during a phase. A name is either set
/// directly, a ratio of two running sums, or the median of its samples.
#[derive(Default)]
pub struct Layers {
    inner: Mutex<Inner>,
}

impl Layers {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("layer accumulator poisoned by a panic")
    }

    pub fn set(&self, name: impl Into<String>, value: f64) {
        self.lock().set.insert(name.into(), value);
    }

    /// Adds `num / den` to the running ratio `name`.
    pub fn add(&self, name: impl Into<String>, num: f64, den: f64) {
        let mut inner = self.lock();
        let r = inner.ratio.entry(name.into()).or_insert((0.0, 0.0));
        r.0 += num;
        r.1 += den;
    }

    pub fn sample(&self, name: impl Into<String>, value: f64) {
        self.lock()
            .samples
            .entry(name.into())
            .or_default()
            .push(value);
    }

    /// The reading for `name`, 0 when the phase never touched it.
    pub fn value(&self, name: &str) -> f64 {
        let inner = self.lock();
        if let Some(v) = inner.set.get(name) {
            return *v;
        }
        if let Some(&(num, den)) = inner.ratio.get(name) {
            return if den > 0.0 { num / den } else { 0.0 };
        }
        inner
            .samples
            .get(name)
            .map_or(0.0, |s| crate::stats::median(s))
    }
}
