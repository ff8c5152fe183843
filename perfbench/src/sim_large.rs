//! `sim-large`: closed loop, one operation at a time, on the simulator.
//!
//! Three trees — 10⁶-node random-recursive and caterpillar trees at twice
//! their feasibility floor, and a 2·10⁵-node synthetic tree at its floor,
//! where memory binds — each run under Activation, MemBooking and
//! malleable MemBooking on `SimPlatform` (one OS thread, p = 4 virtual
//! processors). The driver, the ready sets, the booking walks and the
//! trace build do all the work, over a working set far beyond the L2
//! cache; no dispatch, process or service code runs.

use crate::harness::{
    book_run, check_report, next_op, run_passes, sub_seed, timed, traced_run, validate_sim, Env,
    Expect, PassResult, Phase, Policy, Workload,
};
use crate::layers::Layers;
use memtree_gen::large::{build, LargeShape};
use memtree_runtime::{Platform, SimPlatform};
use memtree_sched::{LowerBounds, PolicyInstance, PolicySpec, ReschedulePolicy};
use memtree_tree::TaskTree;

/// Virtual processors.
const P: usize = 4;
/// Allotment cap of the malleable policy.
const CAP: u32 = 4;
const POLICIES: [Policy; 3] = [Policy::Activation, Policy::MemBooking, Policy::Malleable];
/// Nodes of the random and caterpillar trees, of the memory-bound
/// synthetic tree and of the warm-up tree.
const N: usize = 1_000_000;
const N_PAPER: usize = 200_000;
const N_WARM: usize = 10_000;

struct Case {
    tree: TaskTree,
    memory: u64,
    bounds: LowerBounds,
    instances: Vec<(Policy, PolicyInstance)>,
}

#[derive(Default)]
pub struct SimLarge {
    cases: Vec<Case>,
}

fn platform(policy: Policy) -> SimPlatform {
    match policy {
        Policy::Malleable => SimPlatform::new(P).with_rescheduler(ReschedulePolicy::default()),
        _ => SimPlatform::new(P),
    }
}

/// The floor-relative bound, its lower bounds and one instance per policy;
/// `record` books the set-up calls to the per-layer readings (off for the
/// warm-up tree).
fn prepare(env: &Env, tree: TaskTree, factor: u64, record: bool) -> Case {
    let op = next_op();
    let t = env.tracer;
    let (floor, s) = t.span("order", "order.min_feasible", op, || {
        timed(|| PolicySpec::new(Policy::MemBooking.kind(), 0).min_feasible(&tree))
    });
    if record {
        env.layers.sample("order.min_feasible_us", s * 1e6);
    }
    let memory = floor * factor;
    let (bounds, s) = t.span("sched", "sched.lower_bound", op, || {
        timed(|| LowerBounds::compute(&tree, P, memory))
    });
    if record {
        env.layers.sample("sched.lower_bound_ms", s * 1e3);
    }
    let mut instances = Vec::new();
    for policy in POLICIES {
        let spec = policy.spec(&tree, memory, CAP);
        let (inst, s) = t.span("order", "order.instantiate", op, || {
            timed(|| spec.instantiate(&tree))
        });
        if record {
            env.layers.sample("order.instantiate_s", s);
        }
        let what = format!("instantiate {}", policy.label());
        if let Some(inst) = env.checks.op(&what, inst.map_err(|e| e.to_string())) {
            instances.push((policy, inst));
        }
    }
    Case {
        tree,
        memory,
        bounds,
        instances,
    }
}

/// Runs one instance; returns the checked report's (nodes, wall, norm).
fn run_one(
    env: &Env,
    case: &Case,
    policy: Policy,
    inst: &PolicyInstance,
) -> Option<(f64, f64, f64)> {
    let op = next_op();
    let (r, wall) = traced_run(env, op, "sim", "sim.run_instance", || {
        platform(policy).run_instance(&case.tree, inst)
    });
    // Moldable tasks may run faster than their sequential time, so only
    // the work bound holds for the malleable policy.
    let lower_bound = match policy {
        Policy::Malleable => case.bounds.work,
        _ => case.bounds.best(),
    };
    let expect = Expect {
        nodes: inst.exec_tree(&case.tree).len(),
        memory: case.memory,
        lower_bound: Some(lower_bound),
    };
    let what = format!("sim {} n={}", policy.label(), case.tree.len());
    let r = env.checks.op(
        &what,
        r.map_err(|e| e.to_string())
            .and_then(|r| check_report(&r, &expect).map(|()| r)),
    )?;
    book_run(env, policy, None, &r, wall);
    Some((r.tasks_run as f64, wall, r.makespan / case.bounds.best()))
}

impl Workload for SimLarge {
    fn setup(&mut self, env: &Env) {
        // The previous set-up's inputs go first, so two copies are never
        // resident at once.
        self.cases.clear();
        let ctx = env.ctx;
        let op = next_op();
        let gen = |name, f: &dyn Fn() -> TaskTree| env.tracer.span("gen", name, op, f);
        let (trees, s) = timed(|| {
            [
                (
                    gen("gen.large", &|| {
                        build(LargeShape::Random, N, sub_seed(ctx.seed, 0))
                    }),
                    2,
                ),
                (
                    gen("gen.large", &|| {
                        build(
                            LargeShape::Caterpillar { legs: 4 },
                            N,
                            sub_seed(ctx.seed, 1),
                        )
                    }),
                    2,
                ),
                (
                    gen("gen.paper_tree", &|| {
                        memtree_gen::synthetic::paper_tree(N_PAPER, sub_seed(ctx.seed, 2))
                    }),
                    1,
                ),
            ]
        });
        env.layers.sample("gen.tree_s", s);
        self.cases = trees
            .into_iter()
            .map(|(tree, factor)| prepare(env, tree, factor, true))
            .collect();

        // Warm-up: the first run of the backend, on a small tree.
        let warm = prepare(
            env,
            memtree_gen::synthetic::paper_tree(N_WARM, sub_seed(ctx.seed, 3)),
            2,
            false,
        );
        let scratch = Layers::default();
        for (policy, inst) in &warm.instances {
            run_one(&env.with_layers(&scratch), &warm, *policy, inst);
        }
    }

    fn validate(&mut self, env: &Env) {
        for case in &self.cases {
            for (policy, inst) in &case.instances {
                let what = format!("validate {} n={}", policy.label(), case.tree.len());
                env.checks.op(&what, validate_sim(&case.tree, inst, P));
            }
        }
    }

    /// One operation, for latency, is a pass over the nine (tree, policy)
    /// kinds: their run times lie far apart, so percentiles over single
    /// runs would jump between kinds from seed to seed.
    fn measure(&self, env: &Env) -> Phase {
        run_passes(env.ctx.seconds, |_| {
            let mut out = PassResult::default();
            let op = next_op();
            let started = std::time::Instant::now();
            env.tracer.span("perfbench", "pass", op, || {
                for case in &self.cases {
                    for (policy, inst) in &case.instances {
                        if let Some((nodes, wall, norm)) = run_one(env, case, *policy, inst) {
                            out.nodes += nodes;
                            out.run_wall += wall;
                            out.ops += 1;
                            out.norms.push(norm);
                        }
                    }
                }
            });
            out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            out
        })
    }

    fn threads_needed(&self, _ctx: &crate::harness::Ctx) -> usize {
        1
    }
}
