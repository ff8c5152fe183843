//! `service-open`: an open loop of scheduling sessions against the
//! multi-tenant `Service` on the simulator backend (p = 2 per session).
//!
//! One generator thread submits sessions at Poisson arrival times of
//! [`RATE`] per second, whatever the service's state; one collector thread
//! waits on the tickets in submission order. Trees are synthetic with
//! 100–800 nodes, policies rotate over Activation, MemBooking and
//! MemBookingRedTree, and the service's capacity holds about three of the
//! largest requests. Every 17th submission asks for less than its floor
//! and must be refused. A session is timed from the moment it was due, so
//! a stall shows in the sessions behind it, and the generator reports how
//! late it ran.

use crate::harness::{
    book_run, check_report, next_op, sub_seed, timed, Env, Expect, PassResult, Phase, Policy,
    SplitMix, Workload,
};
use crate::layers::Layers;
use crate::stats::Percentiles;
use memtree_sched::LowerBounds;
use memtree_service::{
    Service, ServiceConfig, SessionBackend, SessionRequest, SessionTicket, SubmitError,
};
use memtree_tree::TaskTree;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated processors per session.
const P: usize = 2;
/// Offered load, sessions per second.
pub const RATE: f64 = 400.0;
/// Trees in the session pool.
const POOL: u64 = 60;
/// About the length of the windows whose figures are reported as
/// medians, seconds.
const WINDOW_S: f64 = 2.0;
/// Seed of the arrival times and session picks.
const ARRIVALS_SEED: u64 = 10_000;
/// Every this-many-th submission is made infeasible on purpose.
const INFEASIBLE_EVERY: u64 = 17;
const POLICIES: [Policy; 3] = [Policy::Activation, Policy::MemBooking, Policy::RedTree];

/// One kind of session the generator can submit.
struct Template {
    tree: Arc<TaskTree>,
    policy: Policy,
    /// The policy's feasibility floor on the tree.
    floor: u64,
    /// The bound the session asks for.
    request: u64,
    /// Nodes of the tree the policy executes.
    exec_nodes: usize,
}

#[derive(Default)]
pub struct ServiceOpen {
    templates: Vec<Template>,
    capacity: u64,
    service: Option<Service>,
    retired: Vec<Service>,
}

/// What the generator hands the collector per submission.
struct Submitted {
    template: usize,
    due: Instant,
    /// Due time from the start of generation, seconds.
    offset_s: f64,
    late_s: f64,
    submit_s: f64,
    infeasible: bool,
    ticket: Result<SessionTicket, SubmitError>,
}

/// Per-session readings gathered by the collector.
#[derive(Default)]
struct Collected {
    /// When the outcome was collected, seconds from the start of
    /// generation.
    done_s: Vec<f64>,
    /// (seconds from the start of generation, machine-wide steal seconds)
    /// read about every [`WINDOW_S`] of outcomes: the window boundaries.
    marks: Vec<(f64, f64)>,
    sojourn_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    launch_reply_ms: Vec<f64>,
    norms: Vec<f64>,
    nodes: Vec<f64>,
}

/// Machine-wide steal seconds so far (0 where unreadable).
fn steal_now() -> f64 {
    crate::env::steal_seconds().unwrap_or(0.0)
}

impl ServiceOpen {
    fn start_service(&mut self, env: &Env) {
        let config = ServiceConfig::new(self.capacity).with_backend(SessionBackend::sim(P));
        let op = next_op();
        let service = env
            .tracer
            .span("service", "service.start", op, || Service::start(config));
        self.service = Some(service);
    }

    /// Drains and stops `service`, checking that its booking peak stayed
    /// within its capacity.
    fn stop(&self, env: &Env, service: Service) {
        let stats = service.shutdown();
        let verdict = if stats.peak_reserved <= stats.capacity && stats.capacity > 0 {
            Ok(())
        } else {
            Err(format!(
                "peak reserved {} above capacity {}",
                stats.peak_reserved, stats.capacity
            ))
        };
        env.checks.op("service peak_reserved", verdict);
    }

    /// Checks one collected outcome; returns its readings when correct.
    fn collect(&self, env: &Env, s: Submitted, out: &mut Collected) {
        let t = &self.templates[s.template];
        let op = next_op();
        let what = format!("session {} n={}", t.policy.label(), t.tree.len());
        let ticket = match (s.ticket, s.infeasible) {
            (Err(SubmitError::Infeasible(_)), true) => {
                env.checks.op(&what, Ok(()));
                return;
            }
            (Err(e), _) => {
                env.checks
                    .op::<()>(&what, Err(format!("submit failed: {e}")));
                return;
            }
            (Ok(_), true) => {
                env.checks
                    .op::<()>(&what, Err("infeasible session admitted".into()));
                return;
            }
            (Ok(ticket), false) => ticket,
        };
        let outcome = env
            .tracer
            .span("service", "service.wait", op, || ticket.wait());
        let sojourn = s.due.elapsed().as_secs_f64();
        let checked = outcome.map_err(|e| e.to_string()).and_then(|o| {
            let r = o.result.map_err(|e| e.to_string())?;
            if o.budget < t.floor || o.budget > t.request {
                return Err(format!(
                    "grant {} outside [{}, {}]",
                    o.budget, t.floor, t.request
                ));
            }
            let bounds = env.tracer.span("sched", "sched.lower_bound", op, || {
                LowerBounds::compute(&t.tree, P, o.budget)
            });
            let expect = Expect {
                nodes: t.exec_nodes,
                memory: o.budget,
                lower_bound: Some(bounds.best()),
            };
            check_report(&r, &expect)?;
            Ok((r, o.admission_wait.as_secs_f64(), bounds.best()))
        });
        let Some((r, wait_s, bound)) = env.checks.op(&what, checked) else {
            return;
        };
        book_run(env, t.policy, None, &r, r.wall_seconds);
        out.done_s.push(s.offset_s + sojourn);
        out.sojourn_ms.push(sojourn * 1e3);
        out.late_ms.push(s.late_s * 1e3);
        out.submit_us.push(s.submit_s * 1e6);
        out.wait_ms.push(wait_s * 1e3);
        out.run_ms.push(r.wall_seconds * 1e3);
        // The session is admitted and may run while `submit` is still
        // returning, so only the longer of the two overlapping stretches
        // counts.
        let busy_s = s.submit_s.max(wait_s + r.wall_seconds);
        out.launch_reply_ms
            .push((sojourn - s.late_s - busy_s) * 1e3);
        out.norms.push(r.makespan / bound);
        out.nodes.push(r.tasks_run as f64);
    }

    /// Generates arrivals for `seconds`; returns the submissions made and
    /// the generation window.
    fn generate(&self, env: &Env, tx: mpsc::Sender<Submitted>) -> (u64, f64) {
        let service = self.service.as_ref().expect("service started in set-up");
        let mut rng = SplitMix(sub_seed(env.ctx.seed, ARRIVALS_SEED));
        let start = Instant::now();
        let mut offset = 0.0;
        let mut k = 0u64;
        loop {
            offset += -(1.0 - rng.next_f64()).ln() / RATE;
            if offset >= env.ctx.seconds {
                break;
            }
            let due = start + Duration::from_secs_f64(offset);
            let op = next_op();
            env.tracer.span("loadgen", "loadgen.pace", op, || {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            });
            let template = (rng.next_u64() % self.templates.len() as u64) as usize;
            let t = &self.templates[template];
            k += 1;
            let infeasible = k.is_multiple_of(INFEASIBLE_EVERY);
            let request = if infeasible { t.floor - 1 } else { t.request };
            let req = SessionRequest::new(t.policy.spec(&t.tree, request, 1), t.tree.clone());
            let submitted_at = Instant::now();
            let late_s = (submitted_at - due).as_secs_f64();
            let ticket = env
                .tracer
                .span("service", "service.submit", op, || service.submit(req));
            let submit_s = submitted_at.elapsed().as_secs_f64();
            let msg = Submitted {
                template,
                due,
                offset_s: offset,
                late_s,
                submit_s,
                infeasible,
                ticket,
            };
            if tx.send(msg).is_err() {
                break;
            }
        }
        (k, start.elapsed().as_secs_f64())
    }
}

impl Workload for ServiceOpen {
    fn setup(&mut self, env: &Env) {
        // An earlier set-up's service is stopped and checked in
        // `validate`, outside the timed set-up.
        self.retired.extend(self.service.take());
        let (ctx, tr) = (env.ctx, env.tracer);
        let op = next_op();
        let (trees, s) = timed(|| {
            (0..POOL)
                .map(|k| {
                    let n = 100 + (sub_seed(ctx.seed, 1_000 + k) % 701) as usize;
                    tr.span("gen", "gen.paper_tree", op, || {
                        memtree_gen::synthetic::paper_tree(n, sub_seed(ctx.seed, k))
                    })
                })
                .collect::<Vec<_>>()
        });
        env.layers.sample("gen.tree_s", s);
        self.templates.clear();
        for (k, tree) in trees.into_iter().enumerate() {
            let policy = POLICIES[k % POLICIES.len()];
            let (floor, s) = tr.span("order", "order.min_feasible", op, || {
                timed(|| policy.spec(&tree, 0, 1).min_feasible(&tree))
            });
            env.layers.sample("order.min_feasible_us", s * 1e6);
            let request = floor + floor / 2;
            let spec = policy.spec(&tree, request, 1);
            let (inst, s) = tr.span("order", "order.instantiate", op, || {
                timed(|| spec.instantiate(&tree))
            });
            env.layers.sample("order.instantiate_s", s);
            let what = format!("instantiate {}", policy.label());
            let Some(inst) = env.checks.op(&what, inst.map_err(|e| e.to_string())) else {
                continue;
            };
            self.templates.push(Template {
                exec_nodes: inst.exec_tree(&tree).len(),
                tree: Arc::new(tree),
                policy,
                floor,
                request,
            });
        }
        self.capacity = 3 * self.templates.iter().map(|t| t.request).max().unwrap_or(1);
        self.start_service(env);

        // Warm-up: the first sessions of the service, one per policy.
        let scratch = Layers::default();
        let warm_env = env.with_layers(&scratch);
        let mut warm = Collected::default();
        for template in 0..POLICIES.len().min(self.templates.len()) {
            let t = &self.templates[template];
            let req = SessionRequest::new(t.policy.spec(&t.tree, t.request, 1), t.tree.clone());
            let service = self.service.as_ref().expect("service just started");
            let s = Submitted {
                template,
                due: Instant::now(),
                offset_s: 0.0,
                late_s: 0.0,
                submit_s: 0.0,
                infeasible: false,
                ticket: service.submit(req),
            };
            self.collect(&warm_env, s, &mut warm);
        }
    }

    fn validate(&mut self, env: &Env) {
        for service in std::mem::take(&mut self.retired) {
            self.stop(env, service);
        }
        for t in &self.templates {
            let what = format!("validate {} n={}", t.policy.label(), t.tree.len());
            let checked = t
                .policy
                .spec(&t.tree, t.request, 1)
                .instantiate(&t.tree)
                .map_err(|e| e.to_string())
                .and_then(|inst| crate::harness::validate_sim(&t.tree, &inst, P));
            env.checks.op(&what, checked);
        }
    }

    fn measure(&self, env: &Env) -> Phase {
        let Some(service) = &self.service else {
            return Phase::default();
        };
        let queued_before = service.stats().map_or(0, |s| s.admission.queued);
        let host = crate::env::HostWindow::open();
        let start = Instant::now();
        let (tx, rx) = mpsc::channel::<Submitted>();
        let ((submitted, window), collected) = std::thread::scope(|s| {
            let collector = s.spawn(|| {
                let mut out = Collected {
                    marks: vec![(0.0, steal_now())],
                    ..Collected::default()
                };
                for msg in rx {
                    self.collect(env, msg, &mut out);
                    if let Some(&done) = out.done_s.last() {
                        if done >= out.marks.len() as f64 * WINDOW_S {
                            out.marks.push((done, steal_now()));
                        }
                    }
                }
                out
            });
            let generated = self.generate(env, tx);
            let collected = collector.join().expect("collector thread panicked");
            (generated, collected)
        });
        let elapsed = start.elapsed().as_secs_f64();
        let stats = service.stats();
        let queued = stats
            .map_or(0, |s| s.admission.queued)
            .saturating_sub(queued_before);

        let l = env.layers;
        let sojourn = Percentiles::of(&collected.sojourn_ms);
        for (name, samples) in [
            ("submit_{q}_us", &collected.submit_us),
            ("admit_wait_{q}_ms", &collected.wait_ms),
            ("run_{q}_ms", &collected.run_ms),
            ("launch_reply_{q}_ms", &collected.launch_reply_ms),
        ] {
            let p = Percentiles::of(samples);
            l.set(format!("service.{}", name.replace("{q}", "p50")), p.p50);
            l.set(format!("service.{}", name.replace("{q}", "p90")), p.p90);
        }
        l.set(
            "service.queued_frac",
            queued as f64 / submitted.max(1) as f64,
        );
        l.set("service.session_p90_ms", sojourn.p90);
        l.set("service.session_p99_ms", sojourn.p99);
        let late = Percentiles::of(&collected.late_ms);
        l.set("loadgen.late_p50_ms", late.p50);
        l.set("loadgen.late_p99_ms", late.p99);
        l.set("loadgen.offered_sps", submitted as f64 / window);
        println!(
            "# service-open: {submitted} submitted in {window:.3} s, {} sessions timed \
             (tail supported: {}), {queued} queued, generator late p99 {:.3} ms",
            sojourn.count,
            sojourn.supported_tail(),
            late.p99
        );

        // Sessions fall into windows of about WINDOW_S, up to the last
        // outcome, drain included, by the time their outcome arrived; each
        // window is one pass. A service that falls behind completes fewer
        // sessions per window than are offered. A final stretch shorter
        // than half a window joins the window before.
        let mut phase = Phase {
            elapsed,
            cpu_s: host.cpu_delta(),
            threads: 2,
            ..Phase::default()
        };
        let span = collected.done_s.iter().copied().fold(0.0, f64::max);
        let mut marks = collected.marks;
        if marks.len() > 1 && span - marks[marks.len() - 1].0 < WINDOW_S / 2.0 {
            marks.pop();
        }
        marks.push((span, steal_now()));
        let windows = marks.len() - 1;
        let mut passes: Vec<PassResult> = (0..windows).map(|_| PassResult::default()).collect();
        for k in 0..collected.sojourn_ms.len() {
            let done = collected.done_s[k];
            let w = marks
                .partition_point(|m| m.0 <= done)
                .saturating_sub(1)
                .min(windows - 1);
            let pass = &mut passes[w];
            pass.nodes += collected.nodes[k];
            pass.run_wall += collected.run_ms[k] * 1e-3;
            pass.ops += 1;
            pass.op_ms.push(collected.sojourn_ms[k]);
            pass.norms.push(collected.norms[k]);
        }
        for (pass, ends) in passes.into_iter().zip(marks.windows(2)) {
            let took = ends[1].0 - ends[0].0;
            phase.push(pass, took, (ends[1].1 - ends[0].1) / took, 1.0, None);
        }
        phase
    }

    fn setup_reps(&self) -> usize {
        15
    }

    fn finish(&mut self, env: &Env) {
        if let Some(service) = self.service.take() {
            self.stop(env, service);
        }
    }

    fn threads_needed(&self, _ctx: &crate::harness::Ctx) -> usize {
        2
    }
}
