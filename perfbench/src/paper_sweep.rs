//! `paper-sweep`: the paper's quick-scale makespan grid as batch work on
//! the benchmark's worker threads, with no cell cache.
//!
//! The grid is Figures 2 and 10 of the paper: the multifrontal assembly
//! corpus and synthetic trees of 10³ and 10⁴ nodes × {Activation,
//! MemBooking, MemBookingRedTree} × the normalised memory factors × p = 8.
//! Each cell instantiates its policy, runs it on the simulator and
//! computes the tree's lower bounds. The trees fit in cache, so the
//! per-cell fixed costs dominate; memory binds hard at the low factors,
//! so `norm_makespan` catches any change that alters scheduling decisions.

use crate::harness::{
    book_run, check_report, next_op, sub_seed, timed, traced_run, validate_sim, Env, Expect,
    PassResult, Phase, Policy, Workload,
};
use crate::layers::Layers;
use memtree_bench::corpus::memory_factors;
use memtree_bench::{Scale, TreeCase};
use memtree_multifrontal::{AssemblyParams, CorpusSpec};
use memtree_runtime::{Platform, SimPlatform};
use memtree_sched::LowerBounds;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Virtual processors, as in Figures 2 and 10.
const P: usize = 8;
const POLICIES: [Policy; 3] = [Policy::Activation, Policy::MemBooking, Policy::RedTree];
/// Largest normalised memory bound (multiple of the tree's minimum
/// memory) of the assembly and synthetic grids, as in Figures 2 and 10.
const ASSEMBLY_MAX_FACTOR: f64 = 20.0;
const SYNTHETIC_MAX_FACTOR: f64 = 10.0;
/// (nodes, count) of the synthetic trees: the quick-scale plan, seeded
/// from the run's seed.
const SYNTHETIC: [(usize, usize); 2] = [(1_000, 12), (10_000, 6)];

struct Case {
    case: TreeCase,
    /// Each policy's feasibility floor on this tree.
    floors: [u64; 3],
}

struct Cell {
    case: usize,
    policy: usize,
    factor: f64,
}

#[derive(Default)]
pub struct PaperSweep {
    cases: Vec<Case>,
    cells: Vec<Cell>,
}

impl PaperSweep {
    /// Runs one grid cell and checks it: a bound below the policy's floor
    /// must be refused, any other must schedule within the envelope.
    fn cell(&self, env: &Env, cell: &Cell, out: &mut PassResult) {
        let op = next_op();
        let t = env.tracer;
        let started = Instant::now();
        let Case { case, floors } = &self.cases[cell.case];
        let policy = POLICIES[cell.policy];
        let memory = case.memory_at(cell.factor);
        let what = format!("{} {} x{}", case.name, policy.label(), cell.factor);
        t.span("perfbench", "cell", op, || {
            let spec = policy.spec(&case.tree, memory, 1);
            let (inst, s) = t.span("order", "order.instantiate", op, || {
                timed(|| spec.instantiate(&case.tree))
            });
            env.layers.sample("order.instantiate_s", s);
            let Some(inst) = env.checks.op(&what, inst.map_err(|e| e.to_string())) else {
                return;
            };
            let (r, wall) = traced_run(env, op, "sim", "sim.run_instance", || {
                SimPlatform::new(P).run_instance(&case.tree, &inst)
            });
            if memory < floors[cell.policy] {
                let refused = matches!(&r, Err(e) if e.is_infeasible());
                let verdict = if refused {
                    Ok(())
                } else {
                    Err(format!(
                        "bound {memory} below floor {} not refused",
                        floors[cell.policy]
                    ))
                };
                if env.checks.op(&what, verdict).is_some() {
                    out.ops += 1;
                    out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
                }
                return;
            }
            let (bounds, s) = t.span("sched", "sched.lower_bound", op, || {
                timed(|| LowerBounds::compute(&case.tree, P, memory))
            });
            env.layers.sample("sched.lower_bound_ms", s * 1e3);
            let expect = Expect {
                nodes: inst.exec_tree(&case.tree).len(),
                memory,
                lower_bound: Some(bounds.best()),
            };
            let checked = r
                .map_err(|e| e.to_string())
                .and_then(|r| check_report(&r, &expect).map(|()| r));
            if let Some(r) = env.checks.op(&what, checked) {
                book_run(env, policy, None, &r, wall);
                out.nodes += r.tasks_run as f64;
                out.run_wall += wall;
                out.ops += 1;
                out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
                out.norms.push(r.makespan / bounds.best());
            }
        });
    }
}

impl Workload for PaperSweep {
    fn setup(&mut self, env: &Env) {
        self.cases.clear();
        self.cells.clear();
        let (seed, t) = (env.ctx.seed, env.tracer);
        let op = next_op();
        let assembly_factors = memory_factors(Scale::Quick, ASSEMBLY_MAX_FACTOR);
        let synthetic_factors = memory_factors(Scale::Quick, SYNTHETIC_MAX_FACTOR);
        // The quick-scale assembly corpus, its random trees seeded from
        // the run's seed.
        let spec = CorpusSpec {
            grids2d: vec![20, 30, 40, 50],
            grids3d: vec![7, 9],
            bands: vec![(3_000, 1), (8_000, 1), (2_000, 3)],
            randoms: [(1_500, 2_200), (3_000, 4_500), (3_000, 1_500)]
                .iter()
                .enumerate()
                .map(|(k, &(n, extra))| (n, extra, sub_seed(seed, k as u64)))
                .collect(),
            amalgamate_below: 0,
            params: AssemblyParams::default(),
        };
        let (assembly, s) = t.span("multifrontal", "multifrontal.assembly_corpus", op, || {
            timed(|| memtree_multifrontal::assembly_corpus(&spec))
        });
        env.layers.sample("multifrontal.corpus_s", s);
        let (synthetic, s) = timed(|| {
            let mut trees = Vec::new();
            for (n, count) in SYNTHETIC {
                for k in 0..count {
                    let tree = t.span("gen", "gen.paper_tree", op, || {
                        memtree_gen::synthetic::paper_tree(n, sub_seed(seed, (n + k) as u64))
                    });
                    trees.push((format!("synth-{n}-{k}"), tree));
                }
            }
            trees
        });
        env.layers.sample("gen.tree_s", s);

        let n_assembly = assembly.len();
        for (i, (name, tree)) in assembly.into_iter().chain(synthetic).enumerate() {
            let case = t.span("bench", "bench.tree_case", op, || TreeCase::new(name, tree));
            let floors = POLICIES.map(|policy| {
                let (floor, s) = t.span("order", "order.min_feasible", op, || {
                    timed(|| policy.spec(&case.tree, 0, 1).min_feasible(&case.tree))
                });
                env.layers.sample("order.min_feasible_us", s * 1e6);
                floor
            });
            let factors = if i < n_assembly {
                &assembly_factors
            } else {
                &synthetic_factors
            };
            for policy in 0..POLICIES.len() {
                for &factor in factors.iter() {
                    self.cells.push(Cell {
                        case: i,
                        policy,
                        factor,
                    });
                }
            }
            self.cases.push(Case { case, floors });
        }

        // Warm-up: the first run of the backend, one cell per policy.
        let mut warm = PassResult::default();
        let scratch = Layers::default();
        for policy in 0..POLICIES.len() {
            let cell = Cell {
                case: 0,
                policy,
                factor: 2.0,
            };
            self.cell(&env.with_layers(&scratch), &cell, &mut warm);
        }
    }

    fn validate(&mut self, env: &Env) {
        for Case { case, floors } in &self.cases {
            for (policy, floor) in POLICIES.iter().zip(floors) {
                let memory = case.memory_at(2.0).max(*floor);
                let what = format!("validate {} {}", case.name, policy.label());
                let checked = policy
                    .spec(&case.tree, memory, 1)
                    .instantiate(&case.tree)
                    .map_err(|e| e.to_string())
                    .and_then(|inst| validate_sim(&case.tree, &inst, P));
                env.checks.op(&what, checked);
            }
        }
    }

    fn measure(&self, env: &Env) -> Phase {
        let workers = env.ctx.workers;
        let mut phase = crate::harness::run_passes(env.ctx.seconds, |_| {
            let next = AtomicUsize::new(0);
            let total = Mutex::new(PassResult::default());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut mine = PassResult::default();
                        loop {
                            // ordering: Relaxed — a work counter; results
                            // travel through the mutex and the join.
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = self.cells.get(k) else { break };
                            self.cell(env, cell, &mut mine);
                        }
                        total
                            .lock()
                            .expect("pass total poisoned by a panic")
                            .merge(mine);
                    });
                }
            });
            total.into_inner().expect("pass total poisoned by a panic")
        });
        phase.threads = workers;
        phase
    }
}
