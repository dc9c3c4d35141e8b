//! `sweep-3case`: planner-chosen runs over one shape per Theorem 1 case,
//! with fresh inputs every round.
//!
//! Why this workload: it is the one that loads `dense` — the Case-3
//! shape does most of the flops — while the distribution and planner
//! only see c ≤ 7. Two observations motivate it: the first round of a
//! process runs about twice as slow as later rounds (which is why it is
//! set-up, not measurement), and the Case-3 run peaks near 750 MB for a
//! 19 MB input.
//!
//! The kernels run on one thread. On the 2-vCPU reference host the two
//! vCPUs are at times one physical core (the FMA peak of both reads 85
//! instead of 163 GFLOP/s), and two-thread timings of this workload then
//! swing by half from run to run; one thread measures the kernels,
//! packing and arena instead of the host's core placement. The
//! work-stealing runtime stays loaded by the served mix (and the gate,
//! run by hand), and the traced run's `dense.thread_speedup` probe
//! measures its scaling.

use std::time::Instant;

use syrk_core::{plan, AbftChecksums};
use syrk_dense::{limit_threads, seeded_matrix, syrk_flops};

use crate::check::verify_c;
use crate::flightlog;
use crate::report::{Measured, RunCost};
use crate::run_plan;
use crate::spans::measure;
use crate::stats::{median, mix};

/// `(n1, n2, P)`: Case 1 (plans 1D), Case 2 (2D, c = 7), Case 3 (3D,
/// c = 5, p2 = 3).
pub const SHAPES: [(usize, usize, usize); 3] = [(384, 24576, 8), (2400, 96, 56), (1536, 1536, 96)];

/// Seconds one warm round takes on the reference host (2 cores,
/// AVX-512); sizes the fixed measured work from `--seconds`.
const NOMINAL_ROUND_S: f64 = 0.9;

/// Measured rounds for a run of about `seconds`.
pub fn rounds(seconds: f64) -> u64 {
    ((seconds / NOMINAL_ROUND_S).round() as u64).max(1)
}

/// Run round 0 as set-up, then `rounds(seconds)` measured rounds.
pub fn run(seed: u64, seconds: f64, setup_only: bool) -> Measured {
    let _one_thread = limit_threads(1);
    let mut m = Measured::default();
    let t = Instant::now();
    let mut reference_ns = 0;
    round(&mut m, seed, 0, &mut reference_ns, false);
    m.setup_s = (t.elapsed().as_nanos() as u64 - reference_ns) as f64 / 1e9;
    if setup_only {
        return m;
    }
    let rounds = rounds(seconds);
    for r in 1..=rounds {
        round(&mut m, seed, r, &mut reference_ns, true);
    }
    // The fixed work's time: rounds × the sum over shapes of the median
    // (plan + run) time, so that a burst of other work on a shared host
    // during a few operations does not swing the whole figure.
    let mut per_shape = vec![Vec::new(); SHAPES.len()];
    for (q, &(shape, ms)) in m.query_us.iter().zip(&m.run_ms) {
        per_shape[shape].push(q / 1e6 + ms / 1e3);
    }
    m.wall_s = per_shape.iter().map(|v| median(v)).sum::<f64>() * rounds as f64;
    m
}

/// One round: each shape planned, run, and checked. `reference_ns`
/// accumulates the benchmark's own checksum work.
fn round(m: &mut Measured, seed: u64, r: u64, reference_ns: &mut u64, measured: bool) {
    for (i, &(n1, n2, p)) in SHAPES.iter().enumerate() {
        let id = r * SHAPES.len() as u64 + i as u64;
        let a = seeded_matrix::<f64>(n1, n2, mix(seed, id));
        let t = Instant::now();
        let sums = AbftChecksums::new(&a);
        *reference_ns += t.elapsed().as_nanos() as u64;
        m.attempted += 1;
        measure("op", id, None, |root| {
            let (ranked, qns) = measure("core.planner", id, root, |_| plan(n1, n2, p));
            let (res, rns) = measure("core.algorithms", id, root, |_| run_plan(&a, ranked.plan));
            if measured {
                m.query_us.push(qns as f64 / 1e3);
                m.run_ms.push((i, rns as f64 / 1e6));
            }
            m.add_shape(n1, n2, p, ranked.plan);
            let run = match res {
                Ok(run) => run,
                Err(e) => return m.fail(format!("{n1}x{n2} on {:?}: {e}", ranked.plan)),
            };
            let (ok, vns) = measure("core.abft", id, root, |_| verify_c(&sums, &run.c));
            *reference_ns += vns;
            match ok {
                Ok(()) if measured => {
                    m.verify_ms.push(vns as f64 / 1e6);
                    m.useful_flops += syrk_flops(n1, n2) as f64;
                    m.costs.push(RunCost::of(&run.cost, n1, n2, ranked.plan));
                }
                Ok(()) => {}
                Err(e) => m.fail(format!("{n1}x{n2} on {:?}: {e}", ranked.plan)),
            }
        });
        flightlog::checkpoint();
    }
}
