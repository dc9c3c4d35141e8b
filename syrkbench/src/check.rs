//! Output checks: every `C` the benchmark receives is verified before
//! its operation counts as done.

use syrk_core::AbftChecksums;
use syrk_dense::{syrk_tolerance, Matrix};

/// Check an in-process `C` against the Huang–Abraham checksums of its
/// input (`C·1` and `C·ω`, computed from `A` alone).
pub fn verify_c(sums: &AbftChecksums, c: &Matrix<f64>) -> Result<(), String> {
    if c.rows() != c.cols() {
        return Err(format!("C is {}x{}, not square", c.rows(), c.cols()));
    }
    sums.verify(c)
        .map_err(|v| format!("C failed its checksum: {v}"))
}

/// The fingerprint `POST /run` returns as `c_checksum`: the sum of every
/// entry of `C` in row-major order.
pub fn fingerprint(c: &Matrix<f64>) -> f64 {
    c.as_slice().iter().sum()
}

/// Compare a served `c_checksum` with the reference fingerprint of the
/// same input and plan. A clean run is deterministic, so it must match
/// bitwise. A recovered run replans onto fewer ranks and may sum in
/// another order: each of the `n1²` entries may then differ by
/// `syrk_tolerance(n2, max|C|)`, which bounds the fingerprint's drift.
pub fn fingerprint_ok(
    got: f64,
    reference: f64,
    recovered: bool,
    n1: usize,
    n2: usize,
    cmax: f64,
) -> bool {
    if !recovered {
        return got.to_bits() == reference.to_bits();
    }
    let tol = (n1 * n1) as f64 * syrk_tolerance::<f64>(n2, cmax);
    (got - reference).abs() <= tol
}

/// Largest entry magnitude of `C` (the tolerance scale).
pub fn max_abs(c: &Matrix<f64>) -> f64 {
    c.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_core::try_syrk_1d;
    use syrk_dense::seeded_matrix;
    use syrk_machine::CostModel;

    #[test]
    fn a_corrupted_c_is_caught() {
        let a = seeded_matrix::<f64>(48, 40, 11);
        let sums = AbftChecksums::new(&a);
        let run = try_syrk_1d(&a, 4, CostModel::bandwidth_only(), None).expect("clean run");
        verify_c(&sums, &run.c).expect("a clean C passes");
        let mut bad = run.c.clone();
        bad[(7, 19)] += 1e-3;
        let err = verify_c(&sums, &bad).expect_err("one corrupted entry must be caught");
        assert!(err.contains("checksum"), "{err}");
        let mut swapped = run.c.clone();
        swapped[(0, 0)] = -swapped[(0, 0)];
        assert!(verify_c(&sums, &swapped).is_err());
    }

    #[test]
    fn fingerprints_are_bitwise_for_clean_runs_and_bounded_for_recovered_ones() {
        let a = seeded_matrix::<f64>(32, 24, 5);
        let run = try_syrk_1d(&a, 3, CostModel::bandwidth_only(), None).expect("clean run");
        let f = fingerprint(&run.c);
        let m = max_abs(&run.c);
        assert!(fingerprint_ok(f, f, false, 32, 24, m));
        let nudged = f64::from_bits(f.to_bits() + 1);
        assert!(!fingerprint_ok(nudged, f, false, 32, 24, m));
        assert!(fingerprint_ok(nudged, f, true, 32, 24, m));
        assert!(!fingerprint_ok(f + 1.0, f, true, 32, 24, m));
    }
}
