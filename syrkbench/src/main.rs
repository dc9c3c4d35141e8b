//! End-to-end and per-layer benchmark of the SYRK stack.
//!
//! ```text
//! syrkbench --workload <gate-2d-10k|sweep-3case|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--baseline-wall-s W] [--setup-only]
//! ```
//!
//! Each workload drives the public entry points a user calls and checks
//! every output. `--trace 0` prints the end-to-end metrics, measured
//! with tracing off. `--trace 1` runs the workload with the flight
//! recorder and the benchmark's own spans on, probes each layer directly
//! at the workload's parameters, prints the per-layer metrics and writes
//! a Chrome trace under `.bench_out/`. Its tracing overhead is taken
//! against `--baseline-wall-s`, the `wall_s` of an untraced run of the
//! same workload and seed in a process of its own (a second pass in one
//! process runs warm, which would hide the overhead).
//! `--setup-only` performs just the workload's set-up and prints its
//! duration. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod flightlog;
mod gate;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;

use syrk_core::{
    candidate_plans, predicted_cost, try_syrk_1d, try_syrk_2d, try_syrk_3d, Plan, SyrkError,
    SyrkRunResult,
};
use syrk_dense::{
    available_threads, detected_isa, dispatched_isa, hardware_threads, kernel_stats, Matrix,
};
use syrk_machine::{CostModel, Machine};
use syrk_telemetry::{registry, FlightKind, MetricsSnapshot};

use report::Measured;
use spans::{clip, length, union};
use stats::{median, peak_rss_mb, tail};

/// Workload names: the 10302-rank gate, which runs by hand only (its
/// run-to-run spread on a shared host exceeds the largest bound a
/// benchmark metric may carry), then the two `BENCHMARK.json` lists.
const WORKLOADS: [&str; 3] = ["gate-2d-10k", "sweep-3case", "serve-mix"];

/// Run `plan` in-process on the simulated machine, as `POST /run` does.
pub(crate) fn run_plan(a: &Matrix<f64>, plan: Plan) -> Result<SyrkRunResult, SyrkError> {
    let model = CostModel::bandwidth_only();
    match plan {
        Plan::OneD { p } => try_syrk_1d(a, p, model, None),
        Plan::TwoD { c } => try_syrk_2d(a, c, model, None),
        Plan::ThreeD { c, p2 } => try_syrk_3d(a, c, p2, model, None),
    }
}

/// The planner's choice for `(n1, n2, p)`, enumerated without the
/// process-wide plan cache (so reference answers leave its counters and
/// contents alone): the first candidate of least predicted cost.
pub(crate) fn best_plan(n1: usize, n2: usize, p: usize) -> Plan {
    candidate_plans(p)
        .into_iter()
        .map(|pl| (pl, predicted_cost(n1, n2, pl)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the 1D plan is always a candidate")
        .0
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    baseline_wall_s: Option<f64>,
    setup_only: bool,
}

const USAGE: &str = "usage: syrkbench --workload <gate-2d-10k|sweep-3case|serve-mix> --seed N \
                     --seconds S --trace <0|1> [--baseline-wall-s W] [--setup-only]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (None, None, None, false);
    let mut baseline_wall_s = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("--seconds must be 1..=600, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--baseline-wall-s" => {
                baseline_wall_s = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|w| w.is_finite() && *w > 0.0)
                        .ok_or(format!("bad --baseline-wall-s {value:?}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let trace = trace.unwrap_or(false);
    if trace && !setup_only && baseline_wall_s.is_none() {
        return Err("--trace 1 needs --baseline-wall-s from an untraced run".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        baseline_wall_s,
        setup_only,
    })
}

fn run_workload(args: &Args, setup_only: bool) -> Measured {
    let secs = args.seconds as f64;
    match args.workload {
        "gate-2d-10k" => gate::run(args.seed, setup_only),
        "sweep-3case" => sweep::run(args.seed, secs, setup_only),
        _ => serve::run(args.seed, secs, setup_only),
    }
}

/// Seconds of served mix that probe the server and recovery layers in
/// the traced run of a workload that does not serve.
const SERVE_PROBE_S: f64 = 2.0;

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title} ==");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn host_metadata(args: &Args, m: &Measured) -> String {
    let mut ps: Vec<usize> = m.shapes.iter().map(|s| s.plan.ranks()).collect();
    ps.sort_unstable();
    ps.dedup();
    let engines: Vec<String> = ps
        .iter()
        .map(|&p| {
            format!(
                "\"P={p}\": \"{}\"",
                Machine::new(p).selected_engine().name()
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"available_threads\": {}, \"detected_isa\": \"{}\", \"dispatched_isa\": \"{}\", \
         \"engine\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hardware_threads(),
        available_threads(),
        detected_isa().name(),
        dispatched_isa().name(),
        engines.join(", ")
    )
}

/// The bounded end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let words_vs_bound = m.costs.iter().map(|c| c.words_vs_bound).fold(0.0, f64::max);
    vec![
        metric("setup_s", m.setup_s, "s"),
        metric("wall_s", m.wall_s, "s"),
        metric("gflops", m.useful_flops / m.wall_s / 1e9, "GFLOP/s"),
        metric("run_p50_ms", m.run_p50_ms(), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("words_vs_bound", words_vs_bound, "ratio"),
    ]
}

/// Named end-to-end figures kept out of the bounded set, printed for
/// the reader with their sample counts.
fn print_unbounded(m: &Measured) {
    let show_tail = |name: &str, xs: &[f64], want: f64, unit: &str| match tail(xs, want) {
        Some((pct, v)) => println!(
            "  {name:<34} {v:>16.6} {unit} (p{pct:.1} of {} samples, {} above it)",
            xs.len(),
            xs.len() - (pct / 100.0 * xs.len() as f64).round() as usize
        ),
        None => println!(
            "  {name:<34} {:>16} {unit} ({} samples: too few for a tail)",
            "n/a",
            xs.len()
        ),
    };
    println!("== unbounded end-to-end figures ==");
    for (i, s) in m.shapes.iter().enumerate() {
        let runs: Vec<f64> = m.run_ms.iter().filter(|r| r.0 == i).map(|r| r.1).collect();
        if !runs.is_empty() {
            let name = format!("run_p50_ms {}x{} P={}", s.n1, s.n2, s.p);
            println!(
                "  {name:<34} {:>16.6} ms ({} runs)",
                median(&runs),
                runs.len()
            );
        }
    }
    show_tail("run_p95_ms", &m.run_latencies(), 95.0, "ms");
    if m.query_us.is_empty() {
        println!(
            "  {:<34} {:>16} us (no planning queries)",
            "query_p50_us", "n/a"
        );
    } else {
        println!(
            "  {:<34} {:>16.6} us ({} samples)",
            "query_p50_us",
            median(&m.query_us),
            m.query_us.len()
        );
    }
    show_tail("query_p99_us", &m.query_us, 99.0, "us");
    println!(
        "  {:<34} {:>16.6} fraction ({} of {} operations)",
        "fail_frac",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
}

fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> u64 {
    b.counter(name).unwrap_or(0) - a.counter(name).unwrap_or(0)
}

/// The traced run: the workload with tracing on, then the probes.
fn traced(
    args: &Args,
    baseline_wall_s: f64,
    failures: &mut Vec<String>,
) -> (Measured, Vec<Metric>) {
    let snap0 = registry::snapshot();
    let ks0 = kernel_stats();
    flightlog::begin();
    spans::start_recording();
    let m = run_workload(args, false);
    let spans = spans::take();
    let log = flightlog::finish();
    let snap1 = registry::snapshot();
    let ks = kernel_stats().since(&ks0);
    let delta = |name: &str| counter_delta(&snap0, &snap1, name) as f64;

    // Dense busy time: task spans inside the runs, counted only where
    // every ring recorded completely.
    let tasks = log.busy(FlightKind::Task);
    if !log.covers(&tasks) {
        failures.push("a busy time would rest on a ring that evicted events".to_string());
    }
    let runs: Vec<(u64, u64)> = match m.serve {
        Some(_) => vec![m.window],
        None => union(
            spans
                .iter()
                .filter(|s| s.layer == "core.algorithms")
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        ),
    };
    let run_ns = length(&runs);
    let complete_ns: u64 = runs.iter().map(|&r| length(&log.completed_part(r))).sum();
    let busy_ns: u64 = runs
        .iter()
        .map(|&(lo, hi)| length(&clip(&tasks, lo, hi)))
        .sum();
    if complete_ns == 0 {
        failures.push("no run interval was recorded completely".to_string());
    }
    let task_share = busy_ns as f64 / complete_ns.max(1) as f64;

    match spans::layer_table(&spans, &tasks, "core.algorithms") {
        Ok(table) => {
            println!(
                "== per-layer self time ({} operations, invariant holds) ==",
                table.ops
            );
            for (layer, ns) in &table.self_ns {
                println!("  {layer:<34} {:>16.6} s", *ns as f64 / 1e9);
            }
            println!(
                "  {:<34} {:>16.6} s",
                "(untagged)",
                table.untagged_ns as f64 / 1e9
            );
            println!(
                "  {:<34} {:>16.6} s",
                "(operations)",
                table.root_ns as f64 / 1e9
            );
        }
        Err(e) => failures.push(format!("traced-run invariant: {e}")),
    }
    let _ = std::fs::create_dir_all(".bench_out");
    let trace_path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
    match std::fs::write(&trace_path, spans::chrome_trace(&spans, &log.recording())) {
        Ok(()) => println!("chrome trace: {trace_path}"),
        Err(e) => failures.push(format!("writing {trace_path}: {e}")),
    }

    // Direct probes at the workload's parameters.
    let dense = layers::dense(&m.shapes);
    let max_p = m.shapes.iter().map(|s| s.plan.ranks()).max().unwrap_or(1);
    let (spawn_s, ring_us) = layers::machine(max_p).unwrap_or_else(|e| {
        failures.push(format!("machine probe at P={max_p}: {e}"));
        (0.0, 0.0)
    });
    let max_c = m
        .shapes
        .iter()
        .filter_map(|s| match s.plan {
            Plan::OneD { .. } => None,
            Plan::TwoD { c } | Plan::ThreeD { c, .. } => Some(c),
        })
        .max()
        .unwrap_or(2);
    let (build_s, build_mb) = layers::dist(max_c).unwrap_or_else(|e| {
        failures.push(format!("dist probe at c={max_c}: {e}"));
        (0.0, 0.0)
    });
    // The 10302-rank gate's distribution and machine, probed in every
    // traced run: at c = 101 the distribution is the gate's dominant
    // cost (and memory), whichever workload is traced.
    let (gate_build_s, gate_build_mb) = layers::dist(gate::C).unwrap_or_else(|e| {
        failures.push(format!("dist probe at c={}: {e}", gate::C));
        (0.0, 0.0)
    });
    let gate_p = gate::C * (gate::C + 1);
    let (_, gate_ring_us) = layers::machine(gate_p).unwrap_or_else(|e| {
        failures.push(format!("machine probe at P={gate_p}: {e}"));
        (0.0, 0.0)
    });
    let (cold_us, warm_us) = layers::planner(&m.shapes);
    println!(
        "probes: dense block {}x{}, machine P={max_p}, dist c={max_c}, FMA peak {:.1} GFLOP/s ({})",
        dense.shape.0,
        dense.shape.1,
        dense.peak_gflops,
        dispatched_isa().name()
    );

    let hits = delta("syrk_plan_cache_hits");
    let misses = delta("syrk_plan_cache_misses");
    let dist_builds = m
        .costs
        .iter()
        .filter(|c| !matches!(c.plan, Plan::OneD { .. }))
        .count();
    let max_of = |f: &dyn Fn(&report::RunCost) -> f64| m.costs.iter().map(f).fold(0.0, f64::max);
    // Served runs execute inside the server; their client latency is
    // the closest outside measure of the run span.
    let run_wall_s = match m.serve {
        Some(_) => m.run_latencies().iter().sum::<f64>() / 1e3,
        None => run_ns as f64 / 1e9,
    };

    // The server and recovery layers: the workload's own served pass, or,
    // where the workload does not serve, a short pass of the served mix.
    let probe = m.serve.is_none().then(|| {
        let before = registry::snapshot();
        let p = serve::run(args.seed, SERVE_PROBE_S, false);
        failures.extend(p.failures.iter().map(|f| format!("served probe: {f}")));
        (p, before, registry::snapshot())
    });
    let (served, s0, s1) = match &probe {
        Some((p, before, after)) => (p, before, after),
        None => (&m, &snap0, &snap1),
    };
    let served_delta = |name: &str| counter_delta(s0, s1, name) as f64;
    let st = served
        .serve
        .as_ref()
        .expect("a served pass keeps its stats");
    let (h0, h1) = (
        s0.histogram("syrk_server_request_nanos").unwrap_or((0, 0)),
        s1.histogram("syrk_server_request_nanos").unwrap_or((0, 0)),
    );
    let handler_us = (h1.1 - h0.1) as f64 / (h1.0 - h0.0).max(1) as f64 / 1e3;
    let client_us = st.client_ns as f64 / st.requests.max(1) as f64 / 1e3;
    let per_layer = vec![
        metric("dense.task_busy_s", busy_ns as f64 / 1e9, "s"),
        metric("dense.task_share", task_share, "fraction"),
        metric("dense.syrk_gflops", dense.syrk_gflops, "GFLOP/s"),
        metric("dense.gemm_gflops", dense.gemm_gflops, "GFLOP/s"),
        metric(
            "dense.peak_frac",
            dense.syrk_gflops / dense.peak_gflops,
            "fraction",
        ),
        metric("dense.thread_speedup", dense.thread_speedup, "x"),
        metric("dense.pack_words", ks.pack_words as f64, "count"),
        metric(
            "dense.microkernel_calls",
            ks.microkernel_calls as f64,
            "count",
        ),
        metric("dense.steals", ks.steals as f64, "count"),
        metric("dense.arena_misses", ks.arena_misses as f64, "count"),
        metric(
            "dense.pack_wait_s",
            log.total(FlightKind::PackWait) as f64 / 1e9,
            "s",
        ),
        metric(
            "machine.messages",
            m.costs.iter().map(|c| c.messages).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "machine.words_total",
            m.costs.iter().map(|c| c.total_words).sum::<u64>() as f64,
            "words",
        ),
        metric("machine.resumes", delta("syrk_engine_resumes"), "count"),
        metric("machine.spawn_s", spawn_s, "s"),
        metric("machine.ring_us_per_msg", ring_us, "us"),
        metric(
            "machine.glue_s",
            run_wall_s * (1.0 - task_share) - dist_builds as f64 * build_s,
            "s",
        ),
        metric("machine.gate_ring_us_per_msg", gate_ring_us, "us"),
        metric("dist.build_s", build_s, "s"),
        metric("dist.build_peak_mb", build_mb, "MB"),
        metric("dist.gate_build_s", gate_build_s, "s"),
        metric("dist.gate_build_peak_mb", gate_build_mb, "MB"),
        metric("planner.plan_cold_us", cold_us, "us"),
        metric("planner.plan_warm_us", warm_us, "us"),
        metric(
            "planner.hit_ratio",
            hits / (hits + misses).max(1.0),
            "fraction",
        ),
        metric("planner.misses", misses, "count"),
        metric(
            "planner.evictions",
            delta("syrk_plan_cache_evictions"),
            "count",
        ),
        metric("alg.sim_time", max_of(&|c| c.sim_time), "words"),
        metric(
            "alg.allgather_a.max_words",
            max_of(&|c| c.allgather_max as f64),
            "words",
        ),
        metric(
            "alg.reduce_scatter_c.max_words",
            max_of(&|c| c.reduce_scatter_max as f64),
            "words",
        ),
        metric("alg.flop_imbalance", max_of(&|c| c.flop_imbalance), "ratio"),
        metric(
            "recovery.attempts",
            served_delta("syrk_recovery_attempts"),
            "count",
        ),
        metric(
            "recovery.ranks_lost",
            served_delta("syrk_recovery_ranks_lost"),
            "count",
        ),
        metric("recovery.run_p50_ms", median(&st.crash_run_ms), "ms"),
        metric("abft.verify_ms", median(&m.verify_ms), "ms"),
        metric("server.plan_p50_us", median(&st.plan_us), "us"),
        metric("server.bounds_p50_us", median(&st.bounds_us), "us"),
        metric("server.run_p50_ms", median(&served.run_latencies()), "ms"),
        metric("server.handler_mean_us", handler_us, "us"),
        metric("server.outside_handler_us", client_us - handler_us, "us"),
        metric("server.connect_us", median(&st.connect_us), "us"),
        metric("server.json_parse_us", st.json_parse_us, "us"),
        metric(
            "server.status_4xx",
            served_delta("syrk_server_responses_4xx"),
            "count",
        ),
        metric(
            "server.status_5xx",
            served_delta("syrk_server_responses_5xx"),
            "count",
        ),
        metric(
            "server.rejected",
            served_delta("syrk_server_run_rejected"),
            "count",
        ),
        metric("trace.overhead_frac", m.wall_s / baseline_wall_s, "ratio"),
        metric("trace.flight_dropped", log.dropped as f64, "count"),
        metric(
            "trace.complete_frac",
            complete_ns as f64 / run_ns.max(1) as f64,
            "fraction",
        ),
    ];
    (m, per_layer)
}

fn quiet_injected_crashes() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        // Rank crashes the served workload injects on purpose, and the
        // peers they take down with them; recovery handles both and the
        // replies are checked.
        if !msg.contains("injected crash") && !msg.contains("another rank panicked") {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("syrkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    quiet_injected_crashes();
    if args.setup_only {
        let m = run_workload(&args, true);
        for f in &m.failures {
            eprintln!("FAIL {f}");
        }
        println!(
            "{{\"setup_s\": {:?}, \"attempted\": {}, \"failed\": {}}}",
            m.setup_s, m.attempted, m.failed
        );
        return if m.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Failures outside the workload's operations: probes, the traced-run
    // invariant, unwritable output.
    let mut failures = Vec::new();
    let (m, metrics) = if let Some(baseline) = args.baseline_wall_s.filter(|_| args.trace) {
        traced(&args, baseline, &mut failures)
    } else {
        let m = run_workload(&args, false);
        let metrics = end_to_end(&m);
        (m, metrics)
    };
    println!("meta {}", host_metadata(&args, &m));
    if !args.trace {
        print_unbounded(&m);
    }
    print_metrics(
        if args.trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &metrics,
    );
    for mt in &metrics {
        if !mt.value.is_finite() {
            failures.push(format!("metric {} is not finite", mt.name));
        }
    }
    // Each probe or check outside the workload counts as an operation.
    let attempted = (m.attempted + failures.len() as u64).max(1);
    let failed = m.failed + failures.len() as u64;
    for f in m.failures.iter().chain(&failures) {
        eprintln!("FAIL {f}");
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|mt| Metric {
            value: if mt.value.is_finite() { mt.value } else { 0.0 },
            ..mt
        })
        .collect();
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
