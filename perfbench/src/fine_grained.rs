//! `fine-grained`: closed loop on a 2·10⁴-node random tree whose tasks
//! busy-spin about 20 µs each, on two workers in total, through every
//! real-execution backend: `ThreadedPlatform`, `AsyncPlatform` (two
//! executor threads), `ShardedPlatform` 2×1, `ProcessPlatform` 2×1 and
//! malleable threaded gangs. Dispatch, wake and completion take a large
//! share of worker capacity here, so dispatch changes show; the payload
//! competes for the same cores, so a change that burns CPU to cut latency
//! shows its cost.

use crate::harness::{
    book_run, check_report, next_op, run_passes, sub_seed, timed, traced_run, validate_sim, Env,
    Expect, PassResult, Phase, Policy, Workload,
};
use crate::layers::Layers;
use memtree_gen::large::{build, LargeShape};
use memtree_runtime::process::wire;
use memtree_runtime::{
    AsyncPlatform, Platform, ProcessPlatform, RunReport, ShardedPlatform, ShardedReport,
    ThreadedPlatform, Workload as Payload,
};
use memtree_sched::{PolicyInstance, PolicySpec, ReschedulePolicy};
use memtree_tree::{partition, PartitionPolicy, PostorderIter, TaskSpec, TaskTree};

/// Target payload per task, ns.
const PAYLOAD_NS: f64 = 20_000.0;
/// Payload cap per task, ns.
const PAYLOAD_CAP_NS: u64 = 200_000;
/// Nodes of the measured tree and of the warm-up tree.
const N: usize = 20_000;
const N_WARM: usize = 2_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Threaded,
    Async,
    Sharded,
    Process,
    Gang,
}

const BACKENDS: [Backend; 5] = [
    Backend::Threaded,
    Backend::Async,
    Backend::Sharded,
    Backend::Process,
    Backend::Gang,
];

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Async => "async",
            Backend::Sharded => "sharded",
            Backend::Process => "process",
            Backend::Gang => "gang",
        }
    }

    fn policy(self) -> Policy {
        match self {
            Backend::Gang => Policy::Malleable,
            _ => Policy::MemBooking,
        }
    }
}

/// One tree with its bound, payload and per-policy instances.
struct Input {
    tree: TaskTree,
    memory: u64,
    payload: Payload,
    /// Summed payload of every task, seconds.
    payload_s: f64,
    /// Makespan lower bound in wall seconds: total payload over the
    /// workers, or the heaviest root path, whichever is larger.
    bound_s: f64,
    instances: Vec<(Policy, PolicyInstance)>,
}

#[derive(Default)]
pub struct FineGrained {
    input: Option<Input>,
}

/// Sizes the bound and payload for `tree`; `record` books the set-up
/// calls to the per-layer readings (off for the warm-up tree).
fn prepare(env: &Env, tree: TaskTree, record: bool) -> Input {
    let op = next_op();
    let t = env.tracer;
    let workers = env.ctx.workers;
    let (floor, s) = t.span("order", "order.min_feasible", op, || {
        timed(|| PolicySpec::new(Policy::MemBooking.kind(), 0).min_feasible(&tree))
    });
    if record {
        env.layers.sample("order.min_feasible_us", s * 1e6);
    }
    let memory = 2 * floor;
    let mean_time = tree.total_time() / tree.len() as f64;
    let nanos_per_time_unit = PAYLOAD_NS / mean_time;
    let task_s =
        |i| ((tree.time(i) * nanos_per_time_unit) as u64).min(PAYLOAD_CAP_NS) as f64 * 1e-9;
    let payload_s: f64 = tree.nodes().map(task_s).sum();
    // The heaviest root path, in payload seconds.
    let mut path = vec![0.0; tree.len()];
    for i in PostorderIter::new(&tree) {
        let below = tree
            .children(i)
            .iter()
            .map(|&c| path[c.index()])
            .fold(0.0, f64::max);
        path[i.index()] = below + task_s(i);
    }
    let critical = path.iter().copied().fold(0.0, f64::max);
    let mut instances = Vec::new();
    for policy in [Policy::MemBooking, Policy::Malleable] {
        let spec = policy.spec(&tree, memory, workers as u32);
        let (inst, s) = t.span("order", "order.instantiate", op, || {
            timed(|| spec.instantiate(&tree))
        });
        if record {
            env.layers.sample("order.instantiate_s", s);
        }
        if let Some(inst) = env
            .checks
            .op("instantiate", inst.map_err(|e| e.to_string()))
        {
            instances.push((policy, inst));
        }
    }
    Input {
        memory,
        payload: Payload::Spin {
            nanos_per_time_unit,
            max_nanos: PAYLOAD_CAP_NS,
        },
        payload_s,
        bound_s: (payload_s / workers as f64).max(critical),
        instances,
        tree,
    }
}

impl FineGrained {
    fn instance(input: &Input, policy: Policy) -> Option<&PolicyInstance> {
        input
            .instances
            .iter()
            .find(|(p, _)| *p == policy)
            .map(|(_, i)| i)
    }

    /// Runs the tree once on `backend`; returns the checked report and
    /// its outside-timed wall seconds.
    fn run_one(&self, env: &Env, input: &Input, backend: Backend) -> Option<(RunReport, f64)> {
        let op = next_op();
        let w = env.ctx.workers;
        let policy = backend.policy();
        let inst = Self::instance(input, policy)?;
        let payload = match (backend, env.ctx.fail_at) {
            (Backend::Sharded, Some(node)) => Payload::FailAt { node },
            _ => input.payload,
        };
        let spec = policy.spec(&input.tree, input.memory, w as u32);
        let tree = &input.tree;
        let mut detail: Option<ShardedReport> = None;
        let (r, wall) = traced_run(env, op, "runtime", "runtime.run", || match backend {
            Backend::Threaded => ThreadedPlatform::new(w)
                .with_workload(payload)
                .run_instance(tree, inst),
            Backend::Gang => ThreadedPlatform::new(w)
                .with_workload(payload)
                .with_rescheduler(ReschedulePolicy::default())
                .run_instance(tree, inst),
            Backend::Async => AsyncPlatform::new(w)
                .with_threads(w)
                .with_workload(payload)
                .run_instance(tree, inst),
            Backend::Sharded => ShardedPlatform::new(w)
                .with_workers_per_shard(1)
                .with_workload(payload)
                .run_detailed(tree, &spec)
                .map(|d| keep(&mut detail, d)),
            Backend::Process => process_platform(w, payload)
                .run_detailed(tree, &spec)
                .map(|d| keep(&mut detail, d)),
        });
        let expect = Expect {
            nodes: tree.len(),
            memory: input.memory,
            lower_bound: None,
        };
        let what = format!("{} n={}", backend.label(), tree.len());
        let r = env.checks.op(
            &what,
            r.map_err(|e| e.to_string())
                .and_then(|r| check_report(&r, &expect).map(|()| r)),
        )?;
        let b = backend.label();
        book_run(env, policy, Some(b), &r, wall);
        let p = w as f64;
        env.layers
            .add(format!("runtime.{b}.efficiency"), input.payload_s, p * wall);
        env.layers.add(
            format!("runtime.{b}.overhead_ns_per_node"),
            (p * wall - input.payload_s) * 1e9,
            r.tasks_run as f64,
        );
        if let (Some(d), true) = (detail, env.tracer.is_on()) {
            shard_breakdown(env, input, backend, &spec, &d, wall);
        }
        Some((r, wall))
    }
}

/// The process backend: one worker process of one thread per shard.
fn process_platform(shards: usize, payload: Payload) -> ProcessPlatform {
    ProcessPlatform::new(shards)
        .with_workers_per_shard(1)
        .with_workload(payload)
}

/// Splits a shard-protocol run into its phases. Partitioning and job
/// serialisation are repeated outside the run and timed there.
fn shard_breakdown(
    env: &Env,
    input: &Input,
    backend: Backend,
    spec: &PolicySpec,
    d: &ShardedReport,
    wall: f64,
) {
    let op = next_op();
    let t = env.tracer;
    let shards = env.ctx.workers;
    let (part, partition_s) = t.span("tree", "tree.partition", op, || {
        timed(|| partition(&input.tree, &PartitionPolicy::balanced(shards)))
    });
    let shard_phase_s = d
        .shard_reports
        .iter()
        .map(|r| r.wall_seconds)
        .fold(0.0, f64::max);
    let residual_s = d.residual.wall_seconds;
    let mut coord_s = wall - partition_s - shard_phase_s - residual_s;
    let b = backend.label();
    if backend == Backend::Process {
        let platform = process_platform(shards, input.payload);
        let specs: Vec<PolicySpec> = d
            .budgets
            .iter()
            .map(|&m| spec.clone().with_memory(m))
            .collect();
        let (_, serialize_s) = t.span("runtime", "runtime.process.serialize", op, || {
            timed(|| {
                for (shard, shard_spec) in part.shards.iter().zip(&specs) {
                    std::hint::black_box(wire::job_to_string(
                        &shard.tree,
                        shard_spec,
                        platform.workers_per_shard,
                        platform.workload,
                        platform.heartbeat,
                    ));
                }
            })
        });
        coord_s -= serialize_s;
        env.layers
            .sample(format!("runtime.{b}.serialize_ms"), serialize_s * 1e3);
    } else {
        env.layers
            .sample(format!("runtime.{b}.partition_ms"), partition_s * 1e3);
        env.layers
            .sample(format!("runtime.{b}.shard_phase_ms"), shard_phase_s * 1e3);
        env.layers
            .sample(format!("runtime.{b}.residual_ms"), residual_s * 1e3);
    }
    env.layers
        .sample(format!("runtime.{b}.coord_ms"), coord_s * 1e3);
}

/// Stores the detailed report and passes on the platform-level one.
fn keep(slot: &mut Option<ShardedReport>, d: ShardedReport) -> RunReport {
    let report = d.report.clone();
    *slot = Some(d);
    report
}

/// Two random recursive trees of `n / 2` nodes each under one root. The
/// halves make the two-shard split balanced whatever the seed, so the
/// shard backends' figures do not swing with the partition.
fn twin_random(env: &Env, n: usize, seed: u64) -> TaskTree {
    let op = next_op();
    let halves = [0, 1].map(|k| {
        env.tracer.span("gen", "gen.large", op, || {
            build(LargeShape::Random, n / 2, sub_seed(seed, k))
        })
    });
    let mut parents = vec![None];
    let mut specs = vec![TaskSpec::new(1, 1, 1.0)];
    for half in &halves {
        let offset = parents.len();
        for i in half.nodes() {
            parents.push(Some(half.parent(i).map_or(0, |p| offset + p.index())));
            specs.push(half.spec(i));
        }
    }
    TaskTree::from_parents(&parents, &specs).expect("joining two trees under a root is valid")
}

impl Workload for FineGrained {
    fn setup(&mut self, env: &Env) {
        // The previous set-up's input goes first, so two copies are never
        // resident at once.
        self.input = None;
        let ctx = env.ctx;
        let (tree, s) = timed(|| twin_random(env, N, sub_seed(ctx.seed, 0)));
        env.layers.sample("gen.tree_s", s);
        let input = prepare(env, tree, true);
        // Warm-up: the first run of every backend, on a small tree.
        let warm = prepare(env, twin_random(env, N_WARM, sub_seed(ctx.seed, 1)), false);
        let scratch = Layers::default();
        for backend in BACKENDS {
            self.run_one(&env.with_layers(&scratch), &warm, backend);
        }
        self.input = Some(input);
    }

    fn validate(&mut self, env: &Env) {
        let Some(input) = &self.input else { return };
        for (policy, inst) in &input.instances {
            let what = format!("validate {}", policy.label());
            env.checks
                .op(&what, validate_sim(&input.tree, inst, env.ctx.workers));
        }
    }

    fn setup_reps(&self) -> usize {
        9
    }

    fn measure(&self, env: &Env) -> Phase {
        let Some(input) = &self.input else {
            return Phase::default();
        };
        // A pass holds one run per backend; its latency percentiles run
        // over the five backends.
        run_passes(env.ctx.seconds, |_| {
            let mut out = PassResult {
                wall_norms: true,
                ..PassResult::default()
            };
            for backend in BACKENDS {
                if let Some((r, wall)) = self.run_one(env, input, backend) {
                    out.nodes += r.tasks_run as f64;
                    out.run_wall += wall;
                    out.ops += 1;
                    out.op_ms.push(wall * 1e3);
                    out.norms.push(wall / input.bound_s);
                }
            }
            out
        })
    }
}
