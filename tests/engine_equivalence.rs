//! Differential engine matrix (DESIGN.md §10): the threaded and event
//! engines must be observationally identical. Every algorithm × engine ×
//! fault combination is asserted to produce bitwise-identical output
//! matrices and identical phase accounting, and both engines must report
//! the exact same deadlock diagnostic for the same stalled configuration.
//!
//! What "identical" means per regime:
//!
//! * **Unfaulted** runs compare *everything* bitwise: the output `C`,
//!   full per-rank [`RankCost`]s (clock included), per-phase tables, and
//!   traced timelines. With no fault screening, every per-rank quantity
//!   is a pure function of per-rank program order, which neither engine
//!   perturbs.
//! * **Faulted** runs compare the output bitwise plus all *non-retry*
//!   phase counters (words/messages/flops, not clocks): injected-fault
//!   decisions are pure in `(seed, link, seq)` so the algorithm traffic
//!   is identical, but *trailing* duplicate deliveries racing a rank's
//!   last receive are schedule-dependent — the same caveat the
//!   thread-count-invariance test documents within one engine.

use std::time::Duration;
use syrk_repro::core::{try_syrk_1d, try_syrk_2d, try_syrk_2d_traced, try_syrk_3d, SyrkRunResult};
use syrk_repro::dense::{seeded_matrix, Matrix};
use syrk_repro::machine::{
    force_engine, CostModel, CostReport, EngineKind, FaultPlan, ForcedEngineGuard, Machine,
    MachineError,
};

/// Serializes tests in this binary around the process-global engine
/// override (the cargo harness runs tests concurrently).
fn forced(kind: EngineKind) -> (std::sync::MutexGuard<'static, ()>, ForcedEngineGuard) {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    (serial, force_engine(kind))
}

/// Run one of the three algorithms through its `try_` entry point on the
/// currently selected engine.
fn run_alg(
    alg: &str,
    a: &Matrix<f64>,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> SyrkRunResult {
    match alg {
        "1d" => try_syrk_1d(a, 4, model, faults),
        "2d" => try_syrk_2d(a, 2, model, faults),
        "3d" => try_syrk_3d(a, 2, 2, model, faults),
        _ => unreachable!(),
    }
    .unwrap_or_else(|e| panic!("{alg}: {e}"))
}

fn assert_bitwise_eq(want: &Matrix<f64>, got: &Matrix<f64>, ctx: &str) {
    assert_eq!(
        (want.rows(), want.cols()),
        (got.rows(), got.cols()),
        "{ctx}: shape"
    );
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                want[(i, j)].to_bits(),
                got[(i, j)].to_bits(),
                "{ctx}: C[{i},{j}] = {} vs {}",
                want[(i, j)],
                got[(i, j)]
            );
        }
    }
}

/// Per-phase, per-rank counter costs: words, messages, and flops, but
/// not the clock. `retry:*` phases are skipped unless `include_retry`.
fn phase_counters(cost: &CostReport, include_retry: bool) -> Vec<(String, usize, [u64; 5])> {
    let mut rows = Vec::new();
    for name in cost.phase_names() {
        if !include_retry && name.starts_with("retry:") {
            continue;
        }
        for rank in 0..cost.num_ranks() {
            if let Some(c) = cost.phase_cost(rank, name) {
                rows.push((
                    name.to_string(),
                    rank,
                    [
                        c.words_sent,
                        c.words_recv,
                        c.msgs_sent,
                        c.msgs_recv,
                        c.flops,
                    ],
                ));
            }
        }
    }
    rows
}

/// Total traffic (words + messages, both directions) charged to
/// `retry:*` phases.
fn retry_traffic(cost: &CostReport) -> u64 {
    cost.phase_names()
        .into_iter()
        .filter(|n| n.starts_with("retry:"))
        .map(|n| {
            (0..cost.num_ranks())
                .filter_map(|r| cost.phase_cost(r, n))
                .map(|c| c.words_sent + c.words_recv + c.msgs_sent + c.msgs_recv)
                .sum::<u64>()
        })
        .sum()
}

#[test]
fn unfaulted_runs_are_bitwise_identical_across_engines() {
    let model = CostModel::typical();
    let a = seeded_matrix::<f64>(12, 8, 3);
    for alg in ["1d", "2d", "3d"] {
        let threaded = {
            let _g = forced(EngineKind::Threaded);
            run_alg(alg, &a, model, None)
        };
        let event = {
            let _g = forced(EngineKind::Event);
            run_alg(alg, &a, model, None)
        };
        assert_bitwise_eq(&threaded.c, &event.c, alg);
        // Full per-rank cost equality — clock included. RankCost derives
        // PartialEq, and f64 == is bitwise for the finite clocks here.
        assert_eq!(
            threaded.cost.ranks, event.cost.ranks,
            "{alg}: per-rank totals must match across engines"
        );
        assert_eq!(
            threaded.cost.phases, event.cost.phases,
            "{alg}: full phase tables must match across engines"
        );
    }
}

#[test]
fn traced_timelines_are_identical_across_engines() {
    let model = CostModel::typical();
    let a = seeded_matrix::<f64>(12, 8, 7);
    let (threaded_run, threaded_traces) = {
        let _g = forced(EngineKind::Threaded);
        try_syrk_2d_traced(&a, 2, model, None).expect("threaded traced run")
    };
    let (event_run, event_traces) = {
        let _g = forced(EngineKind::Event);
        try_syrk_2d_traced(&a, 2, model, None).expect("event traced run")
    };
    assert_bitwise_eq(&threaded_run.c, &event_run.c, "2d traced");
    assert_eq!(
        threaded_traces.len(),
        event_traces.len(),
        "per-rank timeline count"
    );
    for (rank, (t, e)) in threaded_traces.iter().zip(&event_traces).enumerate() {
        // Event is Copy + PartialEq: kind, peer, amount, clock, phase all
        // compare exactly, so the whole per-rank timeline must be equal.
        assert_eq!(t, e, "rank {rank}: traced timelines must be identical");
    }
}

#[test]
fn faulted_runs_agree_on_output_and_nonretry_phases() {
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(12, 8, 5);
    for alg in ["1d", "2d", "3d"] {
        for (kind, plan, expect_retry) in [
            ("drop", FaultPlan::seeded(11).drop(0.3), true),
            ("dup", FaultPlan::seeded(11).duplicate(0.3), true),
            ("delay", FaultPlan::seeded(11).delay(0.4, 2.5), false),
            ("corrupt", FaultPlan::seeded(11).corrupt(0.3), true),
        ] {
            let ctx = format!("{alg}/{kind}");
            let threaded = {
                let _g = forced(EngineKind::Threaded);
                run_alg(alg, &a, model, Some(&plan))
            };
            let event = {
                let _g = forced(EngineKind::Event);
                run_alg(alg, &a, model, Some(&plan))
            };
            assert_bitwise_eq(&threaded.c, &event.c, &ctx);
            assert_eq!(
                phase_counters(&threaded.cost, false),
                phase_counters(&event.cost, false),
                "{ctx}: non-retry phase counters must match across engines"
            );
            let (rt, re) = (retry_traffic(&threaded.cost), retry_traffic(&event.cost));
            if expect_retry {
                assert!(rt > 0, "{ctx}: threaded engine saw no retry traffic");
                assert!(re > 0, "{ctx}: event engine saw no retry traffic");
            } else {
                assert_eq!(rt, 0, "{ctx}: threaded delay created retry traffic");
                assert_eq!(re, 0, "{ctx}: event delay created retry traffic");
            }
        }
    }
}

#[test]
fn crash_faults_surface_identically_across_engines() {
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(12, 8, 5);
    let plan = FaultPlan::seeded(3).crash_rank(1, 2);
    for kind in [EngineKind::Threaded, EngineKind::Event] {
        let _g = forced(kind);
        let err = try_syrk_2d(&a, 2, model, Some(&plan)).expect_err("crash plan must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("rank 1"),
            "{}: crash error must name rank 1: {msg}",
            kind.name()
        );
    }
}

#[test]
fn deadlock_diagnostics_are_identical_across_engines() {
    // The regression the event engine must not introduce: exact
    // (scheduler-side) detection has to produce the same DeadlockInfo —
    // same wait-for edges in the same order, same finished set — as the
    // threaded watchdog, because failure dumps and the forced-deadlock
    // trace mode parse that shape.
    let deadlock_on = |kind: EngineKind| -> MachineError {
        let _g = forced(kind);
        Machine::new(3)
            .with_watchdog(Duration::from_millis(200))
            .try_run(|comm| -> Result<(), MachineError> {
                if comm.rank() == 2 {
                    // Finishes cleanly; the other two deadlock.
                    return Ok(());
                }
                let peer = 1 - comm.rank();
                let _: Vec<f64> = comm.try_recv(peer, 99)?;
                Ok(())
            })
            .expect_err("mutual recv must deadlock")
    };
    let threaded = deadlock_on(EngineKind::Threaded);
    let event = deadlock_on(EngineKind::Event);
    let MachineError::Deadlock(t) = threaded else {
        panic!("threaded: expected Deadlock, got {threaded}");
    };
    let MachineError::Deadlock(e) = event else {
        panic!("event: expected Deadlock, got {event}");
    };
    assert_eq!(t, e, "wait-for graphs must be identical across engines");
    assert_eq!(e.edges.len(), 2);
    assert_eq!(e.finished, vec![2]);
    for edge in &e.edges {
        assert_eq!(edge.op, "recv");
        assert_eq!(edge.to, 1 - edge.from);
    }
}

#[test]
fn threaded_deadlock_snapshot_keeps_every_edge_under_repetition() {
    // The watchdog must snapshot the wait-for graph before it publishes
    // the abort: a peer that sees the abort first clears its own edge on
    // the way out, and the diagnostic then loses it. Repeated on a few
    // concurrent workers so the declaring thread gets preempted often.
    const RUNS: usize = 200;
    const WORKERS: usize = 4;
    let deadlock = || {
        Machine::new(3)
            .with_engine(EngineKind::Threaded)
            .with_watchdog(Duration::from_millis(1))
            .try_run(|comm| -> Result<(), MachineError> {
                if comm.rank() == 2 {
                    return Ok(());
                }
                let peer = 1 - comm.rank();
                let _: Vec<f64> = comm.try_recv(peer, 99)?;
                Ok(())
            })
            .expect_err("mutual recv must deadlock")
    };
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                for run in (w..RUNS).step_by(WORKERS) {
                    let MachineError::Deadlock(info) = deadlock() else {
                        panic!("run {run}: expected Deadlock");
                    };
                    assert_eq!(info.edges.len(), 2, "run {run}: {info:?}");
                    assert_eq!(info.finished, vec![2], "run {run}");
                }
            });
        }
    });
}

#[test]
fn event_engine_handles_algorithm_scale_beyond_thread_limits() {
    // A real 2D SYRK at P = 552 ranks (c = 23): far beyond what the
    // threaded engine is run at in CI, single process, correct result.
    let _g = forced(EngineKind::Event);
    let a = seeded_matrix::<f64>(50, 6, 13);
    let run = try_syrk_2d(&a, 23, CostModel::bandwidth_only(), None).expect("552-rank 2D run");
    let want = syrk_repro::dense::syrk_full_reference(&a);
    let err = syrk_repro::dense::max_abs_diff(&run.c, &want);
    assert!(err < 1e-10, "552-rank 2D result off by {err}");
    assert_eq!(run.cost.ranks.len(), 552);
}
