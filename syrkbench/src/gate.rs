//! `gate-2d-10k`: one Algorithm 2 run at c = 101 (P = 10302 ranks) on a
//! seeded 404×204 `A` — the repository's end-to-end scale gate.
//!
//! Why this workload: at this size building the triangle block
//! distribution and driving 10302 simulated ranks dominate, while the
//! local kernels do under 1% of the work, so it loads `core.dist` and
//! `machine` and barely touches `dense`. It runs exactly once per
//! process, so a per-`c` cache cannot hide a slow distribution build.

use std::time::Instant;

use syrk_core::{try_syrk_2d, AbftChecksums, Plan};
use syrk_dense::{seeded_matrix, syrk_flops};
use syrk_machine::CostModel;

use crate::check::verify_c;
use crate::report::{Measured, RunCost};
use crate::spans::measure;

/// Grid order of the gate: P = c(c+1) = 10302.
pub const C: usize = 101;
/// `n1 = 4c`: fewer rows than the c² row blocks, so most blocks are empty.
pub const N1: usize = 4 * C;
/// `n2 = 2(c+1)`: a couple of words per exchanged chunk.
pub const N2: usize = 2 * (C + 1);

/// Run the gate once. With `setup_only`, stop after set-up.
pub fn run(seed: u64, setup_only: bool) -> Measured {
    let mut m = Measured::default();
    let plan = Plan::TwoD { c: C };
    m.add_shape(N1, N2, plan.ranks(), plan);
    let t = Instant::now();
    let a = seeded_matrix::<f64>(N1, N2, seed);
    m.setup_s = t.elapsed().as_secs_f64();
    if setup_only {
        return m;
    }
    let sums = AbftChecksums::new(&a);
    m.attempted = 1;
    measure("op", 1, None, |root| {
        let (res, ns) = measure("core.algorithms", 1, root, |_| {
            try_syrk_2d(&a, C, CostModel::bandwidth_only(), None)
        });
        m.wall_s = ns as f64 / 1e9;
        m.run_ms.push((0, ns as f64 / 1e6));
        match res {
            Ok(run) if run.cost.num_ranks() != plan.ranks() => m.fail(format!(
                "gate ran on {} ranks, expected {}",
                run.cost.num_ranks(),
                plan.ranks()
            )),
            Ok(run) => {
                let (ok, vns) = measure("core.abft", 1, root, |_| verify_c(&sums, &run.c));
                m.verify_ms.push(vns as f64 / 1e6);
                match ok {
                    Ok(()) => {
                        m.useful_flops += syrk_flops(N1, N2) as f64;
                        m.costs.push(RunCost::of(&run.cost, N1, N2, plan));
                    }
                    Err(e) => m.fail(format!("gate: {e}")),
                }
            }
            Err(e) => m.fail(format!("gate run failed: {e}")),
        }
    });
    m
}
