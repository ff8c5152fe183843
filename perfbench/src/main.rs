//! The repository benchmark. One run measures one workload and prints,
//! as its last line, a JSON object with the correctness verdict, the
//! operation counts and the metrics:
//!
//! ```text
//! memtree-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` measures the
//! same phase untraced and then traced, and reports the per-layer metrics,
//! each layer's self time, the unattributed share and the tracing
//! overhead. `--workload all` runs every workload in its own process.
//! The exit code is 0 only when every checked output was correct.
//! See README.md for the workloads and the metric definitions.

mod env;
mod fine_grained;
mod harness;
mod layers;
mod paper_sweep;
mod service_open;
mod sim_large;
mod stats;
mod trace;

use harness::{Checks, Ctx, Env, Phase, Workload};
use layers::{Layers, LAYERS};
use stats::Percentiles;
use std::time::Instant;
use trace::Tracer;

/// Workload names, in report order.
const WORKLOADS: [&str; 4] = ["sim-large", "paper-sweep", "fine-grained", "service-open"];
/// A run that has not finished by then is stopped and reported failed,
/// so a hung operation cannot hang the benchmark.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);
/// Platform workers (and sweep threads), capped by the cores.
const MAX_WORKERS: usize = 2;
const DEFAULT_SEED: u64 = 1;

fn make(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim-large" => Box::<sim_large::SimLarge>::default(),
        "paper-sweep" => Box::<paper_sweep::PaperSweep>::default(),
        "fine-grained" => Box::<fine_grained::FineGrained>::default(),
        "service-open" => Box::<service_open::ServiceOpen>::default(),
        _ => return None,
    })
}

fn usage() -> String {
    format!(
        "usage: memtree-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--fail-at NODE]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        workers: MAX_WORKERS.min(env::nproc()),
        fail_at: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?.clone(),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--fail-at" => {
                ctx.fail_at = Some(value()?.parse().map_err(|e| format!("--fail-at: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if ctx.workload != "all" && !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload {:?}", ctx.workload));
    }
    Ok(ctx)
}

fn main() {
    env::single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("memtree-perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    std::process::exit(if ctx.workload == "all" {
        run_all(&args)
    } else {
        run(&ctx)
    });
}

/// Runs every workload in its own child process, so each reports its own
/// peak RSS.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("memtree-perfbench: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for name in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        println!("# workload {name}");
        match std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(&child_args)
            .status()
        {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1).max(1),
            Err(e) => {
                eprintln!("memtree-perfbench: cannot run {name}: {e}");
                code = 2;
            }
        }
    }
    code
}

/// The end-to-end metrics of a measured phase, in report order.
fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<(String, f64, &'static str)> {
    // The open loop has no passes of its own to reset the peak for; its
    // peak covers the whole measured phase.
    let peak_rss = if phase.passes.iter().any(|p| p.rss_mb.is_some()) {
        phase.median_of(|p| p.rss_mb)
    } else {
        env::peak_rss_mb()
    };
    vec![
        ("setup_s".into(), setup_s, "s"),
        (
            "nodes_per_s".into(),
            phase.median_of(|p| p.node_rate),
            "1/s",
        ),
        (
            "ops_per_s".into(),
            phase.median_of(|p| Some(p.op_rate)),
            "1/s",
        ),
        ("op_p50_ms".into(), phase.median_of(|p| p.p50_ms), "ms"),
        ("norm_makespan".into(), phase.median_of(|p| p.norm), "ratio"),
        ("peak_rss_mb".into(), peak_rss, "MB"),
    ]
}

fn run(ctx: &Ctx) -> i32 {
    let Some(mut workload) = make(&ctx.workload) else {
        eprintln!("memtree-perfbench: unknown workload {}", ctx.workload);
        return 2;
    };
    let nproc = env::nproc();
    if let Err(e) = admit(workload.threads_needed(ctx), nproc) {
        eprintln!("memtree-perfbench: {}: {e}", ctx.workload);
        return 2;
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        println!("# FAILED watchdog: the run did not finish within {WATCHDOG:?}");
        println!("{}", result_json(false, 1, 1, &[]));
        std::process::exit(1);
    });
    let loadavg_start = env::loadavg();
    let host = env::HostWindow::open();
    let checks = Checks::default();
    let layers = Layers::default();
    let setup_tracer = Tracer::new(ctx.trace);
    let env = Env {
        ctx,
        tracer: &setup_tracer,
        layers: &layers,
        checks: &checks,
    };

    let mut setup_times = Vec::new();
    for _ in 0..workload.setup_reps() {
        let t = Instant::now();
        workload.setup(&env);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setup_times);
    let t = Instant::now();
    workload.validate(&env);
    let check_s = t.elapsed().as_secs_f64();
    // peak_rss_mb covers the measured phase only, not set-up or validation.
    checks.op(
        "reset peak RSS",
        env::reset_peak_rss().map_err(|e| e.to_string()),
    );

    // End-to-end metrics always come from an untraced phase.
    let untraced_layers = Layers::default();
    let off = Tracer::new(false);
    let untraced = workload.measure(&Env {
        ctx,
        tracer: &off,
        layers: &untraced_layers,
        checks: &checks,
    });
    let e2e = end_to_end(&untraced, setup_s);

    let traced = ctx.trace.then(|| {
        let tracer = Tracer::new(true);
        let phase = workload.measure(&Env {
            ctx,
            tracer: &tracer,
            layers: &layers,
            checks: &checks,
        });
        (phase, tracer)
    });
    workload.finish(&env);

    println!(
        "# env workload={} seed={} nproc={nproc} workers={} loadavg_start={} loadavg_end={} \
         steal_delta_s={}",
        ctx.workload,
        ctx.seed,
        ctx.workers,
        fmt_opt(loadavg_start),
        fmt_opt(env::loadavg()),
        fmt_opt(host.steal_delta()),
    );
    let lat = Percentiles::of(&untraced.op_ms);
    let fmt_all = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(",")
    };
    let passes = &untraced.passes;
    println!(
        "# setup_s runs=[{}] check_s={check_s:.3} measured_s={:.3} passes={} quiet={} \
         pass_steal=[{}] pass_nodes_per_s=[{}] pass_rss_mb=[{}] op_samples={} \
         tail_supported={} op_p90_ms={:.4} (ungated) p99_ms={:.3}",
        fmt_all(&mut setup_times.iter().copied()),
        untraced.elapsed,
        passes.len(),
        untraced.quiet().len(),
        fmt_all(&mut passes.iter().map(|p| p.steal)),
        fmt_all(&mut passes.iter().filter_map(|p| p.node_rate)),
        fmt_all(&mut passes.iter().filter_map(|p| p.rss_mb)),
        lat.count,
        lat.supported_tail(),
        untraced.median_of(|p| p.p90_ms),
        lat.p99,
    );
    let (attempted, failed) = (checks.attempted().max(1), checks.failed());
    println!(
        "# failed_frac={} ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );
    for e in checks.errors() {
        println!("# FAILED {e}");
    }

    let metrics = match &traced {
        None => e2e,
        Some((phase, tracer)) => {
            per_layer(ctx, &e2e, &untraced, phase, tracer, &setup_tracer, &layers)
        }
    };
    let correct = failed == 0 && checks.attempted() > 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Fills the per-layer catalogue from a traced phase and prints the
/// self-time table, the unattributed share and the tracing overhead.
fn per_layer(
    ctx: &Ctx,
    e2e: &[(String, f64, &'static str)],
    untraced: &Phase,
    phase: &Phase,
    tracer: &Tracer,
    setup_tracer: &Tracer,
    layers: &Layers,
) -> Vec<(String, f64, &'static str)> {
    let spans = tracer.spans();
    let own = trace::self_times(&spans);
    let thread_seconds = phase.elapsed * phase.threads as f64;
    let mut attributed = 0.0;
    println!("# layer self time over {thread_seconds:.3} thread-seconds:");
    for layer in LAYERS {
        let s = own.get(layer).copied().unwrap_or(0.0);
        attributed += s;
        layers.set(format!("{layer}.self_frac"), s / thread_seconds);
        println!(
            "#   {layer:<13} {s:>9.4} s  {:>6.2}%",
            100.0 * s / thread_seconds
        );
    }
    let unattributed = 1.0 - attributed / thread_seconds;
    layers.set("trace.unattributed_frac", unattributed);
    println!("#   unattributed  {:>6.2}%", 100.0 * unattributed);
    if untraced.nodes > 0.0 {
        layers.set(
            "proc.cpu_ns_per_node",
            untraced.cpu_s * 1e9 / untraced.nodes,
        );
    }

    let traced_e2e = end_to_end(phase, 0.0);
    println!("# tracing overhead (traced vs untraced):");
    for ((name, off, unit), (_, on, _)) in e2e.iter().zip(&traced_e2e).skip(1) {
        println!("#   {name:<14} {off:>14.4} -> {on:>14.4} {unit}");
    }
    let p50 =
        |m: &[(String, f64, &str)]| m.iter().find(|m| m.0 == "op_p50_ms").map_or(0.0, |m| m.1);
    let (off, on) = (p50(e2e), p50(&traced_e2e));
    layers.set(
        "trace.overhead_frac",
        if off > 0.0 { on / off - 1.0 } else { 0.0 },
    );

    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench");
    for (kind, spans) in [("setup", setup_tracer.spans()), ("trace", spans)] {
        let path = dir.join(format!("{kind}-{}-{}.csv", ctx.workload, ctx.seed));
        match trace::write_csv(&spans, &path) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    layers::catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let v = layers.value(&name);
            (name, v, unit)
        })
        .collect()
}

/// Refuses a workload that would keep more threads busy than the host
/// has CPUs.
fn admit(needed: usize, nproc: usize) -> Result<(), String> {
    if needed > nproc {
        return Err(format!(
            "needs {needed} busy threads but only {nproc} CPUs are available; \
             refusing to oversubscribe"
        ));
    }
    Ok(())
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("n/a".into(), |v| format!("{v:.2}"))
}

/// The result line. Non-finite readings print as 0 (JSON has no NaN).
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let ctx = parse_args(&args("--workload sim-large --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((ctx.seed, ctx.seconds, ctx.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload sim-large --trace 2")).is_err());
        assert!(parse_args(&args("--workload sim-large --bogus")).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let e2e = end_to_end(&Phase::default(), 0.0);
        let names: Vec<String> = e2e
            .into_iter()
            .map(|(name, _, _)| name)
            .chain(layers::catalogue().into_iter().map(|(name, _)| name))
            .chain(WORKLOADS.iter().map(|w| w.to_string()))
            .collect();
        for name in &names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(json.matches("\"name\":").count(), names.len());
    }

    #[test]
    fn oversubscription_is_refused() {
        assert!(admit(2, 2).is_ok());
        assert!(admit(1, 2).is_ok());
        assert!(admit(3, 2).is_err());
        assert!(admit(2, 1).is_err());
    }

    #[test]
    fn result_line_is_flat_json() {
        let line = result_json(true, 3, 0, &[("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
