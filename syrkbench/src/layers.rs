//! Direct probes of single layers at a workload's own parameters: each
//! times calls into one layer's public functions from outside.

use std::hint::black_box;
use std::time::{Duration, Instant};

use syrk_core::{plan, Plan, TriangleBlockDist};
use syrk_dense::{
    available_threads, dispatched_isa, gemm_flops, gemm_nt, limit_threads, seeded_matrix,
    syrk_flops, syrk_packed_new, Diag, Isa, Matrix,
};
use syrk_machine::{Machine, MachineError};

use crate::report::Shape;
use crate::stats::{median, reset_peak_rss, status_kb};

/// Seconds per call of `f`. A call of a quarter second or more is
/// timed once; shorter calls run in batches grown to at least 2 ms,
/// and the median batch of five gives the per-call time.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed();
    if first >= Duration::from_millis(250) {
        return first.as_secs_f64();
    }
    let mut batch = 1u32;
    while batch < (1 << 20) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) {
            break;
        }
        batch *= 2;
    }
    let xs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    median(&xs)
}

/// The local operand one rank multiplies under `plan`: rows of its `A`
/// block by the inner dimension it owns.
pub fn local_shape(s: &Shape) -> (usize, usize) {
    let div = |a: usize, b: usize| a.div_ceil(b).max(1);
    match s.plan {
        Plan::OneD { p } => (s.n1, div(s.n2, p)),
        Plan::TwoD { c } => (div(s.n1, c * c), s.n2),
        Plan::ThreeD { c, p2 } => (div(s.n1, c * c), div(s.n2, p2)),
    }
}

/// `dense` probe results.
pub struct DenseProbe {
    /// Local block `(rows, k)` the kernels ran on.
    pub shape: (usize, usize),
    /// `syrk_packed_new` on all threads.
    pub syrk_gflops: f64,
    /// `gemm_nt` of the block with itself on all threads.
    pub gemm_gflops: f64,
    /// FMA peak of the dispatched ISA on all threads.
    pub peak_gflops: f64,
    /// `syrk_packed_new` on all threads over one thread.
    pub thread_speedup: f64,
}

/// Time the kernels on the workload's largest local block.
pub fn dense(shapes: &[Shape]) -> DenseProbe {
    let (n, k) = shapes
        .iter()
        .map(local_shape)
        .max_by_key(|&(n, k)| n * n * k)
        .expect("a workload has at least one shape");
    let a = seeded_matrix::<f64>(n, k, 1);
    let syrk = || {
        black_box(syrk_packed_new(black_box(&a), Diag::Inclusive));
    };
    let syrk_s = per_call(syrk);
    let syrk_1t = {
        let _one = limit_threads(1);
        per_call(syrk)
    };
    let mut c = Matrix::<f64>::zeros(n, n);
    let gemm_s = per_call(|| gemm_nt(black_box(&mut c), black_box(&a), black_box(&a)));
    let peak = fma_peak_gflops(available_threads());
    DenseProbe {
        shape: (n, k),
        syrk_gflops: syrk_flops(n, k) as f64 / syrk_s / 1e9,
        gemm_gflops: gemm_flops(n, n, k) as f64 / gemm_s / 1e9,
        peak_gflops: peak,
        thread_speedup: syrk_1t / syrk_s,
    }
}

/// Independent FMA chains per thread: enough to cover the FMA latency
/// times the number of FMA ports on current x86 and Arm cores.
const CHAINS: usize = 12;

/// Measured FMA throughput of the dispatched ISA with `threads` threads
/// each running independent chains (median of three trials).
pub fn fma_peak_gflops(threads: usize) -> f64 {
    let isa = dispatched_isa();
    let (iters, flops_per_iter) = match isa {
        Isa::Avx512 => (20_000_000u64, CHAINS * 8 * 2),
        Isa::Avx2 => (20_000_000, CHAINS * 4 * 2),
        Isa::Scalar | Isa::Neon => (20_000_000, CHAINS * 2),
    };
    let trials: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| black_box(fma_chains(isa, black_box(iters))));
                }
            });
            (threads as u64 * iters * flops_per_iter as u64) as f64
                / t.elapsed().as_secs_f64()
                / 1e9
        })
        .collect();
    median(&trials)
}

fn fma_chains(isa: Isa, iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `dispatched_isa` reports AVX-512 or AVX2 only after
        // runtime detection confirmed the CPU supports it (avx512f, or
        // avx2 + fma), which is all these functions require.
        match isa {
            Isa::Avx512 => return unsafe { x86::fma_avx512(iters) },
            Isa::Avx2 => return unsafe { x86::fma_avx2(iters) },
            _ => {}
        }
    }
    let _ = isa;
    let (x, y) = (black_box(0.999_999f64), black_box(1e-6f64));
    let mut acc = [black_box(0.5f64); CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * x + y;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    use super::CHAINS;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) -> f64 {
        let x = _mm512_set1_pd(black_box(0.999_999));
        let y = _mm512_set1_pd(black_box(1e-6));
        let mut acc = [_mm512_set1_pd(black_box(0.5)); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_pd(*a, x, y);
            }
        }
        let mut sum = _mm512_setzero_pd();
        for a in acc {
            sum = _mm512_add_pd(sum, a);
        }
        _mm512_reduce_add_pd(sum)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) -> f64 {
        let x = _mm256_set1_pd(black_box(0.999_999));
        let y = _mm256_set1_pd(black_box(1e-6));
        let mut acc = [_mm256_set1_pd(black_box(0.5)); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_pd(*a, x, y);
            }
        }
        let mut lanes = [0.0f64; 4];
        let mut sum = _mm256_setzero_pd();
        for a in acc {
            sum = _mm256_add_pd(sum, a);
        }
        _mm256_storeu_pd(lanes.as_mut_ptr(), sum);
        lanes.iter().sum()
    }
}

/// `machine` probe: an empty world's spawn time, and µs per message of
/// ring rounds (each rank sends to its right neighbour and receives
/// from its left) with the spawn time taken off.
pub fn machine(p: usize) -> Result<(f64, f64), MachineError> {
    let mut err = None;
    let spawn_s = per_call(|| {
        if let Err(e) = Machine::new(p).try_run(|_comm| Ok(())) {
            err.get_or_insert(e);
        }
    });
    let rounds = (200_000 / p).clamp(4, 4096);
    let ring_s = per_call(|| {
        let run = Machine::new(p).try_run(|comm| {
            let (r, n) = (comm.rank(), comm.size());
            for k in 0..rounds as u64 {
                comm.try_send((r + 1) % n, k, r as u64)?;
                let got: u64 = comm.try_recv((r + n - 1) % n, k)?;
                assert_eq!(
                    got as usize,
                    (r + n - 1) % n,
                    "ring delivered the wrong payload"
                );
            }
            Ok(())
        });
        if let Err(e) = run {
            err.get_or_insert(e);
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok((spawn_s, (ring_s - spawn_s) / (rounds * p) as f64 * 1e6)),
    }
}

/// `core.dist` probe: seconds to build the distribution of order `c`,
/// and the peak-RSS growth (MB) across the first build.
pub fn dist(c: usize) -> Result<(f64, f64), String> {
    if !reset_peak_rss() {
        return Err("cannot reset the peak RSS through /proc/self/clear_refs".to_string());
    }
    let rss0 = status_kb("VmRSS").ok_or("no VmRSS in /proc/self/status")?;
    let t = Instant::now();
    let first = TriangleBlockDist::for_order(c).ok_or(format!("no distribution of order {c}"))?;
    let first_s = t.elapsed().as_secs_f64();
    let hwm = status_kb("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    drop(black_box(first));
    let build_s = if first_s >= 0.25 {
        first_s
    } else {
        per_call(|| drop(black_box(TriangleBlockDist::for_order(black_box(c)))))
    };
    Ok((build_s, hwm.saturating_sub(rss0) as f64 / 1024.0))
}

/// `core.planner` probe: µs per cold `plan()` (keys no workload uses)
/// and per warm repeat of the same keys, over the workload's shapes.
pub fn planner(shapes: &[Shape]) -> (f64, f64) {
    let keys: Vec<(usize, usize, usize)> = (0..32)
        .map(|i| {
            let s = &shapes[i % shapes.len()];
            (s.n1, s.n2 + 7_000_000 + i, s.p)
        })
        .collect();
    let time = |&(n1, n2, p): &(usize, usize, usize)| {
        let t = Instant::now();
        black_box(plan(n1, n2, p));
        t.elapsed().as_secs_f64() * 1e6
    };
    let cold: Vec<f64> = keys.iter().map(time).collect();
    let warm: Vec<f64> = keys.iter().map(time).collect();
    (median(&cold), median(&warm))
}
