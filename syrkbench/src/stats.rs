//! Order statistics, host probes and the seeded mixing the workloads use.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail a latency report may claim: the highest percentile, at most
/// `want`, that still has at least ten samples above it. Returns the
/// percentile and its nearest-rank value, or `None` with eleven samples
/// or fewer.
pub fn tail(xs: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank k (1-based) leaves n - k samples above it.
    let k_want = ((want / 100.0) * n as f64).ceil() as usize;
    let k = k_want.clamp(1, n - 10);
    Some((100.0 * k as f64 / n as f64, v[k - 1]))
}

/// SplitMix64 finalizer: derives independent input seeds from the
/// workload seed and a stream position.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`, …).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Reset `VmHWM` to the current RSS so a later read measures the peak
/// of the region in between. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), Some((90.0, 90.0)));
        assert_eq!(tail(&xs, 50.0), Some((50.0, 50.0)));
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), Some((95.0, 380.0)));
        assert_eq!(tail(&xs[..10], 95.0), None);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
