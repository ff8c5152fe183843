//! What every workload shares: run settings, correctness accounting,
//! policy specs, report checks and the closed-loop pass driver.

use crate::env::{peak_rss_mb, reset_peak_rss, vcpus, HostWindow};
use crate::layers::Layers;
use crate::stats::{median, Percentiles};
use crate::trace::Tracer;
use memtree_runtime::{PlatformError, RunReport, RuntimeError};
use memtree_sched::{
    AllotmentCaps, HeuristicKind, PolicyInstance, PolicySpec, ProportionalRescheduler,
    ReschedulePolicy,
};
use memtree_sim::validate::validate_trace;
use memtree_sim::{simulate, simulate_moldable_with, Rescheduler, SimConfig, SpeedupModel};
use memtree_tree::TaskTree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Settings of one benchmark run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Platform workers (and sweep threads); never above the host's cores.
    pub workers: usize,
    /// Fault injection: the sharded backend's payload panics at this node.
    pub fail_at: Option<u32>,
}

/// What a workload's calls get to see.
pub struct Env<'a> {
    pub ctx: &'a Ctx,
    pub tracer: &'a Tracer,
    pub layers: &'a Layers,
    pub checks: &'a Checks,
}

impl<'a> Env<'a> {
    /// The same environment booking per-layer readings to `layers` — used
    /// to keep warm-up runs out of the reported readings.
    pub fn with_layers(&self, layers: &'a Layers) -> Env<'a> {
        Env {
            ctx: self.ctx,
            tracer: self.tracer,
            layers,
            checks: self.checks,
        }
    }
}

static NEXT_OP: AtomicU64 = AtomicU64::new(0);

/// A fresh operation id for spans.
pub fn next_op() -> u64 {
    // ordering: Relaxed — ids only need to be unique.
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Counts checked operations and the ones whose output was wrong.
#[derive(Default)]
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Checks {
    /// Accounts one operation; returns its value when it was correct.
    pub fn op<T>(&self, what: &str, result: Result<T, String>) -> Option<T> {
        // ordering: Relaxed — counters read after every worker joined.
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let mut errors = self.errors.lock().expect("error list poisoned by a panic");
                if errors.len() < 8 {
                    errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn errors(&self) -> Vec<String> {
        self.errors
            .lock()
            .expect("error list poisoned by a panic")
            .clone()
    }
}

/// The scheduling policies the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Activation,
    MemBooking,
    /// MemBooking with uniform allotment caps, resized at run time by the
    /// proportional rescheduler.
    Malleable,
    RedTree,
}

impl Policy {
    pub fn label(self) -> &'static str {
        match self {
            Policy::Activation => "activation",
            Policy::MemBooking => "membooking",
            Policy::Malleable => "malleable",
            Policy::RedTree => "redtree",
        }
    }

    pub fn kind(self) -> HeuristicKind {
        match self {
            Policy::Activation => HeuristicKind::Activation,
            Policy::MemBooking | Policy::Malleable => HeuristicKind::MemBooking,
            Policy::RedTree => HeuristicKind::MemBookingRedTree,
        }
    }

    /// The spec under bound `memory`; malleable specs cap every task at
    /// `cap` processors.
    pub fn spec(self, tree: &TaskTree, memory: u64, cap: u32) -> PolicySpec {
        let spec = PolicySpec::new(self.kind(), memory);
        match self {
            Policy::Malleable => spec.with_caps(AllotmentCaps::uniform(tree, cap)),
            _ => spec,
        }
    }
}

/// What a correct run must report.
pub struct Expect {
    /// Nodes of the executed tree.
    pub nodes: usize,
    /// The memory bound `M`.
    pub memory: u64,
    /// A makespan lower bound, for virtual-time runs.
    pub lower_bound: Option<f64>,
}

/// Checks a run's report: every task ran once, `actual ≤ booked ≤ M`, and
/// the makespan respects the lower bound.
pub fn check_report(r: &RunReport, e: &Expect) -> Result<(), String> {
    if r.tasks_run != e.nodes {
        return Err(format!("ran {} tasks of {}", r.tasks_run, e.nodes));
    }
    if r.peak_actual > r.peak_booked || r.peak_booked > e.memory {
        return Err(format!(
            "memory envelope broken: actual {} booked {} bound {}",
            r.peak_actual, r.peak_booked, e.memory
        ));
    }
    if let Some(lb) = e.lower_bound {
        if r.makespan < lb * (1.0 - 1e-9) {
            return Err(format!("makespan {} below lower bound {lb}", r.makespan));
        }
    }
    Ok(())
}

/// Books a run's wall time to the layers: the scheduler's callback share
/// to `sched`, the rest to the simulator's driver or the runtime backend.
pub fn book_run(env: &Env, policy: Policy, backend: Option<&str>, r: &RunReport, wall: f64) {
    let nodes = r.tasks_run as f64;
    let p = policy.label();
    env.layers.add(
        format!("sched.{p}.sched_ns_per_node"),
        r.scheduling_seconds * 1e9,
        nodes,
    );
    match backend {
        None => env.layers.add(
            format!("sim.{p}.driver_ns_per_node"),
            (wall - r.scheduling_seconds) * 1e9,
            nodes,
        ),
        Some(b) => env
            .layers
            .add(format!("runtime.{b}.ns_per_node"), wall * 1e9, nodes),
    }
}

/// Runs one platform call inside a span of `layer`, timed from outside;
/// the scheduler's own callback time becomes a `sched` child span. A call
/// that panics instead of returning its error counts as a failed run.
pub fn traced_run(
    env: &Env,
    op: u64,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> Result<RunReport, PlatformError>,
) -> (Result<RunReport, PlatformError>, f64) {
    env.tracer.span(layer, name, op, || {
        let (r, wall) = timed(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .unwrap_or(Err(PlatformError::Runtime(RuntimeError::WorkerPanic)))
        });
        if let Ok(rep) = &r {
            env.tracer
                .attribute("sched", "sched.callbacks", op, rep.scheduling_seconds);
        }
        (r, wall)
    })
}

/// One closed-loop pass over a workload's operations.
#[derive(Default)]
pub struct PassResult {
    /// Nodes scheduled.
    pub nodes: f64,
    /// Outside-timed wall seconds of the platform calls.
    pub run_wall: f64,
    /// Operations completed.
    pub ops: usize,
    /// Latency of each operation, ms.
    pub op_ms: Vec<f64>,
    /// Makespan over its lower bound, per operation.
    pub norms: Vec<f64>,
    /// The makespans in `norms` are wall-clock times, not virtual ones.
    pub wall_norms: bool,
}

impl PassResult {
    pub fn merge(&mut self, other: PassResult) {
        self.nodes += other.nodes;
        self.run_wall += other.run_wall;
        self.ops += other.ops;
        self.op_ms.extend(other.op_ms);
        self.norms.extend(other.norms);
        self.wall_norms |= other.wall_norms;
    }
}

/// One pass's end-to-end readings.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassStats {
    /// CPU seconds the hypervisor gave to other guests, machine-wide, per
    /// second of the pass.
    pub steal: f64,
    /// Nodes per second of platform wall.
    pub node_rate: Option<f64>,
    /// Operations completed per second of the pass.
    pub op_rate: f64,
    pub p50_ms: Option<f64>,
    pub p90_ms: Option<f64>,
    /// Mean makespan over its lower bound.
    pub norm: Option<f64>,
    /// Peak resident size, MB.
    pub rss_mb: Option<f64>,
}

/// The end-to-end readings of one measured phase. Rates, latency
/// percentiles, normalised makespans and peak RSS are taken per pass (per
/// window of an open loop) and reported as medians over the quiet passes,
/// so a burst of interference from the host moves a few passes, not the
/// figure, and passes during which other guests took the CPUs are left out.
/// A closed loop's pass counts only the CPU time the hypervisor left the
/// guest: its wall-clock times are scaled by that share and its rates
/// divided by it, so steal that lasts the whole run moves the figures less.
/// An open loop's arrivals keep to the wall clock, so its windows are not
/// scaled.
#[derive(Default)]
pub struct Phase {
    pub passes: Vec<PassStats>,
    /// Every operation's latency, for the sample count and the p99.
    pub op_ms: Vec<f64>,
    pub nodes: f64,
    pub elapsed: f64,
    pub cpu_s: f64,
    /// Threads whose spans the traced phase records.
    pub threads: usize,
}

impl Phase {
    /// Adds one pass that took `took` seconds, with `steal` seconds stolen
    /// per second, the share `kept` of its wall-clock time that counts, and
    /// its own peak resident size when it was taken.
    pub fn push(&mut self, r: PassResult, took: f64, steal: f64, kept: f64, rss_mb: Option<f64>) {
        let lat = (!r.op_ms.is_empty()).then(|| Percentiles::of(&r.op_ms));
        let norm_scale = if r.wall_norms { kept } else { 1.0 };
        self.passes.push(PassStats {
            steal,
            node_rate: (r.run_wall > 0.0).then(|| r.nodes / (r.run_wall * kept)),
            op_rate: r.ops as f64 / (took * kept),
            p50_ms: lat.map(|l| l.p50 * kept),
            p90_ms: lat.map(|l| l.p90 * kept),
            norm: (!r.norms.is_empty())
                .then(|| norm_scale * r.norms.iter().sum::<f64>() / r.norms.len() as f64),
            rss_mb,
        });
        self.nodes += r.nodes;
        self.op_ms.extend(r.op_ms);
    }

    /// The passes the host disturbed least: those with at most the median
    /// pass's steal — every pass when nothing was stolen.
    pub fn quiet(&self) -> Vec<&PassStats> {
        let steals: Vec<f64> = self.passes.iter().map(|p| p.steal).collect();
        let limit = median(&steals);
        self.passes.iter().filter(|p| p.steal <= limit).collect()
    }

    /// Median of `f` over the quiet passes that have the reading.
    pub fn median_of(&self, f: impl Fn(&PassStats) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.quiet().into_iter().filter_map(f).collect();
        median(&values)
    }
}

/// Runs whole passes until `seconds` have elapsed.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize) -> PassResult) -> Phase {
    let host = HostWindow::open();
    let vcpus = vcpus() as f64;
    let start = Instant::now();
    let mut phase = Phase {
        threads: 1,
        ..Phase::default()
    };
    for k in 0.. {
        // Each pass gets its own high-water mark, so a pass that happens to
        // touch more memory moves one sample, not the run's peak.
        let reset = reset_peak_rss().is_ok();
        let window = HostWindow::open();
        let (r, took) = timed(|| pass(k));
        let steal = window.steal_delta().unwrap_or(0.0) / took;
        // Steal is summed over the guest's virtual CPUs; a reading at or
        // beyond all of them (no progress at all) is floored.
        let kept = (1.0 - steal / vcpus).max(0.1);
        phase.push(r, took, steal, kept, reset.then(peak_rss_mb));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase.cpu_s = host.cpu_delta();
    phase
}

/// Times `f`, returning its value and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A deterministic sub-seed for input `k` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Workload-specific halves of a benchmark run.
pub trait Workload {
    /// Builds the inputs and warms every backend up. Runs several times;
    /// the last run's products are the ones measured.
    fn setup(&mut self, env: &Env);
    /// Checks every (tree, policy) once on a validated simulator trace.
    fn validate(&mut self, env: &Env);
    /// Measures for `ctx.seconds`, checking every operation.
    fn measure(&self, env: &Env) -> Phase;
    /// How many times a run sets up; `setup_s` is the median.
    fn setup_reps(&self) -> usize {
        3
    }
    /// Stops whatever the workload keeps running between phases and
    /// checks its final state.
    fn finish(&mut self, _env: &Env) {}
    /// Threads the workload keeps busy at once.
    fn threads_needed(&self, ctx: &Ctx) -> usize {
        ctx.workers
    }
}

/// Simulates `inst` over `tree` on `p` processors and validates the
/// trace: precedence, single start, capacity and `actual ≤ booked ≤ M`.
/// Moldable instances run malleable, as everywhere in this benchmark.
pub fn validate_sim(tree: &TaskTree, inst: &PolicyInstance, p: usize) -> Result<(), String> {
    let exec = inst.exec_tree(tree);
    if inst.is_moldable() {
        let sched = inst.moldable(tree).map_err(|e| e.to_string())?;
        let mut resched = ProportionalRescheduler::new(exec, ReschedulePolicy::default());
        let trace = simulate_moldable_with(
            exec,
            p,
            inst.memory(),
            SpeedupModel::Linear,
            sched,
            Some(&mut resched as &mut dyn Rescheduler),
        )
        .map_err(|e| e.to_string())?;
        trace.validate(exec, SpeedupModel::Linear)
    } else {
        let sched = inst.scheduler(tree).map_err(|e| e.to_string())?;
        let trace =
            simulate(exec, SimConfig::new(p, inst.memory()), sched).map_err(|e| e.to_string())?;
        validate_trace(exec, &trace)
    }
}
