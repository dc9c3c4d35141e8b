//! What one workload run measured, and the facts kept per SYRK run.

use syrk_core::{syrk_lower_bound, Plan, PHASE_ALLGATHER_A, PHASE_REDUCE_SCATTER_C};
use syrk_machine::CostReport;

/// One `(n1, n2)` problem on a budget of `p` ranks and the plan it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Rows of `A`.
    pub n1: usize,
    /// Columns of `A`.
    pub n2: usize,
    /// Rank budget.
    pub p: usize,
    /// The plan that ran.
    pub plan: Plan,
}

/// Counts read off one run's [`CostReport`].
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    /// The plan that ran.
    pub plan: Plan,
    /// Messages sent, summed over ranks.
    pub messages: u64,
    /// Words sent, summed over ranks.
    pub total_words: u64,
    /// Simulated α-β-γ completion time.
    pub sim_time: f64,
    /// Busiest rank's words sent in the allgather of `A`.
    pub allgather_max: u64,
    /// Busiest rank's words sent in the reduce-scatter of `C`.
    pub reduce_scatter_max: u64,
    /// Max over mean flops per rank.
    pub flop_imbalance: f64,
    /// Busiest rank's words sent over Theorem 1's communicated bound.
    pub words_vs_bound: f64,
}

impl RunCost {
    /// Read the counts of an `n1 × n2` SYRK run under `plan`.
    pub fn of(cost: &CostReport, n1: usize, n2: usize, plan: Plan) -> Self {
        RunCost {
            plan,
            messages: cost.ranks.iter().map(|r| r.msgs_sent).sum(),
            total_words: cost.total_words(),
            sim_time: cost.elapsed(),
            allgather_max: cost.phase_max_words_sent(PHASE_ALLGATHER_A),
            reduce_scatter_max: cost.phase_max_words_sent(PHASE_REDUCE_SCATTER_C),
            flop_imbalance: cost.flop_imbalance(),
            words_vs_bound: cost.max_words_sent() as f64
                / syrk_lower_bound(n1, n2, plan.ranks()).communicated(),
        }
    }
}

/// Client-side facts only the served workload has.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// `GET /plan` round trips, µs.
    pub plan_us: Vec<f64>,
    /// `GET /bounds` round trips, µs.
    pub bounds_us: Vec<f64>,
    /// Crash-injected `POST /run` round trips, ms.
    pub crash_run_ms: Vec<f64>,
    /// TCP connect times, µs.
    pub connect_us: Vec<f64>,
    /// Sum of every request's round trip, ns.
    pub client_ns: u64,
    /// Requests whose round trip is in `client_ns`.
    pub requests: u64,
    /// `syrk_server::json::parse` of a `/run` body, µs per call.
    pub json_parse_us: f64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (runs or requests), warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong `C`.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Set-up before the first measured operation, s.
    pub setup_s: f64,
    /// Wall time of the measured operations, s.
    pub wall_s: f64,
    /// `n1(n1+1)n2` summed over completed measured runs.
    pub useful_flops: f64,
    /// SYRK run latencies: (index of the run's shape, ms).
    pub run_ms: Vec<(usize, f64)>,
    /// Planning-query latencies, µs.
    pub query_us: Vec<f64>,
    /// The benchmark's own checksum verification, ms per check.
    pub verify_ms: Vec<f64>,
    /// Cost counts of the completed clean runs.
    pub costs: Vec<RunCost>,
    /// The workload's distinct problems.
    pub shapes: Vec<Shape>,
    /// Flight-clock interval of the served phase (the served workload's
    /// runs happen inside the server, out of the benchmark's spans).
    pub window: (u64, u64),
    /// Present for the served workload.
    pub serve: Option<ServeStats>,
}

impl Measured {
    /// Count a failed operation, keeping its message if it is among the
    /// first few.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Every run latency, ms.
    pub fn run_latencies(&self) -> Vec<f64> {
        self.run_ms.iter().map(|&(_, ms)| ms).collect()
    }

    /// The median run latency of each shape, as a geometric mean over
    /// the shapes. A plain median over a mix of a few shapes of very
    /// different cost falls between clusters and flips between them
    /// from run to run; per-shape medians do not.
    pub fn run_p50_ms(&self) -> f64 {
        let mut by_shape: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        for &(shape, ms) in &self.run_ms {
            by_shape.entry(shape).or_default().push(ms);
        }
        if by_shape.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = by_shape
            .values()
            .map(|v| crate::stats::median(v).ln())
            .sum();
        (log_sum / by_shape.len() as f64).exp()
    }

    /// Record a problem once.
    pub fn add_shape(&mut self, n1: usize, n2: usize, p: usize, plan: Plan) {
        let s = Shape { n1, n2, p, plan };
        if !self.shapes.contains(&s) {
            self.shapes.push(s);
        }
    }
}
