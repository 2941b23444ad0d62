//! Amplitude estimation (Brassard–Høyer–Mosca–Tapp) simulated through its
//! theoretical error model.
//!
//! With `M` Grover iterations, AE returns `p̂ = sin²(θ̂)` where
//! `θ = asin(√p)` and `|θ̂ − θ| ≤ π/M` with high probability — a quadratic
//! improvement over the `1/√shots` of direct sampling. The pipeline uses AE
//! to recover the norms of projected rows.

use crate::error::SimError;
use rand::Rng;
use std::f64::consts::{FRAC_PI_2, PI};

/// Simulates one amplitude-estimation run for true probability `p` with `m`
/// Grover iterations: the angle estimate is perturbed by a uniform error of
/// magnitude at most `π/(2m)` (a conservative instantiation of the BHMT
/// bound).
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `p ∉ [0, 1]` or `m == 0`.
///
/// # Examples
///
/// ```
/// use qsc_sim::amplitude::estimate_probability;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_sim::SimError> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let est = estimate_probability(0.25, 128, &mut rng)?;
/// assert!((est - 0.25).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn estimate_probability<R: Rng>(p: f64, m: usize, rng: &mut R) -> Result<f64, SimError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SimError::InvalidParameter {
            context: format!("probability {p} outside [0, 1]"),
        });
    }
    if m == 0 {
        return Err(SimError::InvalidParameter {
            context: "amplitude estimation needs at least one iteration".into(),
        });
    }
    let theta = p.sqrt().asin();
    let bound = PI / (2.0 * m as f64);
    let theta_hat = (theta + rng.gen_range(-bound..bound)).clamp(0.0, FRAC_PI_2);
    Ok(theta_hat.sin().powi(2))
}

/// Estimates the ℓ2 norm of a vector whose squared norm, relative to
/// `scale²`, is the amplified probability: `‖v‖ = scale·sin(θ)`. This is
/// how the pipeline reads out `‖row_i‖ = ν·√P_i(00)`.
///
/// # Errors
///
/// Same contract as [`estimate_probability`].
pub fn estimate_norm<R: Rng>(
    true_norm: f64,
    scale: f64,
    m: usize,
    rng: &mut R,
) -> Result<f64, SimError> {
    // `!(x > 0.0)` (rather than `x <= 0.0`) deliberately rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(scale > 0.0) || true_norm < 0.0 || true_norm > scale {
        return Err(SimError::InvalidParameter {
            context: format!("norm {true_norm} / scale {scale} out of range"),
        });
    }
    let p = (true_norm / scale).powi(2);
    let p_hat = estimate_probability(p, m, rng)?;
    Ok(scale * p_hat.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimate_within_theoretical_bound() {
        let mut rng = StdRng::seed_from_u64(41);
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            for &m in &[8usize, 64, 512] {
                let est = estimate_probability(p, m, &mut rng).unwrap();
                // |θ̂−θ| ≤ π/(2M) ⇒ |p̂−p| ≤ 2·π/(2M) (Lipschitz of sin²).
                let bound = PI / m as f64;
                assert!((est - p).abs() <= bound + 1e-12, "p={p} m={m} est={est}");
            }
        }
    }

    #[test]
    fn error_shrinks_with_iterations() {
        let mut rng = StdRng::seed_from_u64(42);
        let p = 0.37;
        let coarse: f64 = (0..200)
            .map(|_| (estimate_probability(p, 4, &mut rng).unwrap() - p).abs())
            .sum::<f64>()
            / 200.0;
        let fine: f64 = (0..200)
            .map(|_| (estimate_probability(p, 256, &mut rng).unwrap() - p).abs())
            .sum::<f64>()
            / 200.0;
        assert!(fine < coarse / 10.0, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn norm_estimation_round_trip() {
        let mut rng = StdRng::seed_from_u64(43);
        let est = estimate_norm(0.6, 2.0, 512, &mut rng).unwrap();
        assert!((est - 0.6).abs() < 0.02);
    }

    #[test]
    fn estimates_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..100 {
            let est = estimate_probability(0.999, 3, &mut rng).unwrap();
            assert!((0.0..=1.0).contains(&est));
            let est0 = estimate_probability(0.001, 3, &mut rng).unwrap();
            assert!((0.0..=1.0).contains(&est0));
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut rng = StdRng::seed_from_u64(45);
        assert!(estimate_probability(1.5, 8, &mut rng).is_err());
        assert!(estimate_probability(0.5, 0, &mut rng).is_err());
        assert!(estimate_norm(3.0, 2.0, 8, &mut rng).is_err());
        assert!(estimate_norm(1.0, 0.0, 8, &mut rng).is_err());
    }
}
