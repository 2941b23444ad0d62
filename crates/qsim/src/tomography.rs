//! Vector-state tomography with finite shots.
//!
//! The quantum pipeline can hold the spectral embedding as amplitudes, but a
//! classical description requires measurement. Following the ℓ2
//! vector-state tomography of Kerenidis–Prakash (`N = O(d·log d/δ²)` shots
//! for ℓ2 error δ), the simulation draws real multinomial counts for the
//! magnitudes and resolves signs/phases through a second (noiseless in
//! simulation, as in the reference analyses) interference round.
//!
//! The magnitude counts come from [`multinomial_counts`]: the counts and
//! generator state of a per-shot inverse-CDF scan, read from an exact
//! threshold table ([`crate::sampling`] gives the argument and the
//! measured crossover).

use crate::error::SimError;
use crate::sampling::{check_shots, multinomial_counts};
use qsc_linalg::vector::{interleave_re_im, norm2};
use qsc_linalg::Complex64;
use rand::Rng;

/// Estimates a real unit vector from `shots` computational-basis
/// measurements: `|v̂_i| = sqrt(n_i/N)` with the sign taken from the
/// interference round.
///
/// # Errors
///
/// Returns [`SimError::ZeroNorm`] for a zero vector and
/// [`SimError::InvalidParameter`] for zero shots, shots above the
/// [`check_shots`] cap, or a non-finite entry (or a norm that overflows).
pub fn tomography_real<R: Rng>(v: &[f64], shots: usize, rng: &mut R) -> Result<Vec<f64>, SimError> {
    if shots == 0 {
        return Err(SimError::InvalidParameter {
            context: "tomography needs at least one shot".into(),
        });
    }
    check_shots(shots)?;
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if !norm.is_finite() {
        return Err(SimError::InvalidParameter {
            context: "tomography needs a vector with finite entries and norm".into(),
        });
    }
    if norm == 0.0 {
        return Err(SimError::ZeroNorm);
    }
    let probs: Vec<f64> = v.iter().map(|x| (x / norm) * (x / norm)).collect();
    let counts = multinomial_counts(&probs, shots, rng);

    Ok(v.iter()
        .zip(&counts)
        .map(|(&x, &c)| (c as f64 / shots as f64).sqrt().copysign(x) * norm)
        .collect())
}

/// Estimates a complex vector by running [`tomography_real`] on its
/// interleaved real/imaginary representation (an isometry, so the ℓ2
/// guarantee carries over).
///
/// # Errors
///
/// Same contract as [`tomography_real`].
///
/// # Examples
///
/// ```
/// use qsc_sim::tomography::tomography_complex;
/// use qsc_linalg::Complex64;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), qsc_sim::SimError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let v = vec![Complex64::new(0.6, 0.0), Complex64::new(0.0, 0.8)];
/// let est = tomography_complex(&v, 100_000, &mut rng)?;
/// assert!((est[0].re - 0.6).abs() < 0.05);
/// assert!((est[1].im - 0.8).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn tomography_complex<R: Rng>(
    v: &[Complex64],
    shots: usize,
    rng: &mut R,
) -> Result<Vec<Complex64>, SimError> {
    let real = interleave_re_im(v);
    let est = tomography_real(&real, shots, rng)?;
    Ok(est
        .chunks_exact(2)
        .map(|pair| Complex64::new(pair[0], pair[1]))
        .collect())
}

/// The ℓ2-error scale `√(d/N)` the tomography analysis predicts: the
/// oracle the validation suite holds [`tomography_complex`] to.
pub fn expected_l2_error(dim: usize, shots: usize) -> f64 {
    (dim as f64 / shots as f64).sqrt()
}

/// ℓ2 error between an estimate and the true complex vector, the measure
/// [`expected_l2_error`] is checked against.
pub fn l2_error(estimate: &[Complex64], truth: &[Complex64]) -> f64 {
    let diff: Vec<Complex64> = estimate.iter().zip(truth).map(|(a, b)| *a - *b).collect();
    norm2(&diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_basis_vector_exactly() {
        let mut rng = StdRng::seed_from_u64(31);
        let v = vec![0.0, 1.0, 0.0, 0.0];
        let est = tomography_real(&v, 100, &mut rng).unwrap();
        assert_eq!(est, v);
    }

    #[test]
    fn error_shrinks_with_shots() {
        let mut rng = StdRng::seed_from_u64(32);
        let v: Vec<f64> = vec![0.5, -0.5, 0.5, -0.5];
        let mut errors = Vec::new();
        for shots in [100usize, 10_000, 1_000_000] {
            let avg: f64 = (0..10)
                .map(|_| {
                    let est = tomography_real(&v, shots, &mut rng).unwrap();
                    est.iter()
                        .zip(&v)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
                / 10.0;
            errors.push(avg);
        }
        assert!(errors[0] > errors[1] && errors[1] > errors[2], "{errors:?}");
    }

    #[test]
    fn preserves_input_norm_scale() {
        // Tomography of an unnormalized vector returns the same scale.
        let mut rng = StdRng::seed_from_u64(33);
        let v = vec![3.0, 4.0];
        let est = tomography_real(&v, 1_000_000, &mut rng).unwrap();
        let est_norm: f64 = est.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((est_norm - 5.0).abs() < 0.01);
    }

    #[test]
    fn signs_preserved() {
        let mut rng = StdRng::seed_from_u64(34);
        let v = vec![0.7, -0.7, 0.1, -0.1];
        let est = tomography_real(&v, 100_000, &mut rng).unwrap();
        for (e, t) in est.iter().zip(&v) {
            if *e != 0.0 {
                assert_eq!(e.signum(), t.signum());
            }
        }
    }

    #[test]
    fn complex_round_trip_accuracy() {
        let mut rng = StdRng::seed_from_u64(35);
        let v = vec![
            Complex64::new(0.5, 0.5),
            Complex64::new(-0.5, 0.0),
            Complex64::new(0.0, -0.5),
        ];
        let est = tomography_complex(&v, 1_000_000, &mut rng).unwrap();
        assert!(l2_error(&est, &v) < 0.01);
    }

    #[test]
    fn error_scale_helpers_consistent() {
        assert!((expected_l2_error(16, 1600) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_vector_and_zero_shots() {
        let mut rng = StdRng::seed_from_u64(36);
        assert!(tomography_real(&[0.0, 0.0], 10, &mut rng).is_err());
        assert!(tomography_real(&[1.0], 0, &mut rng).is_err());
        let err = tomography_real(&[1.0], 1_000_000_000_000, &mut rng).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn rejects_non_finite_entries_and_overflowing_norms() {
        let mut rng = StdRng::seed_from_u64(37);
        for v in [
            [f64::NAN, 1.0],
            [f64::INFINITY, 1.0],
            [0.5, f64::NEG_INFINITY],
            [1e200, 1e200],
        ] {
            let err = tomography_real(&v, 64, &mut rng).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidParameter { .. }),
                "{v:?}: {err}"
            );
        }
        let z = [Complex64::new(0.5, f64::NAN)];
        assert!(tomography_complex(&z, 64, &mut rng).is_err());
    }

    /// The per-shot scan-and-count loop `tomography_real` ran before it
    /// used [`multinomial_counts`].
    fn tomography_real_scanned(v: &[f64], shots: usize, rng: &mut StdRng) -> Vec<f64> {
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let probs: Vec<f64> = v.iter().map(|x| (x / norm) * (x / norm)).collect();
        let mut counts = vec![0usize; v.len()];
        for _ in 0..shots {
            let mut target = rng.gen::<f64>();
            let mut chosen = v.len() - 1;
            for (i, &p) in probs.iter().enumerate() {
                if target < p {
                    chosen = i;
                    break;
                }
                target -= p;
            }
            counts[chosen] += 1;
        }
        v.iter()
            .zip(&counts)
            .map(|(&x, &c)| (c as f64 / shots as f64).sqrt().copysign(x) * norm)
            .collect()
    }

    #[test]
    fn estimates_and_rng_match_the_per_shot_scan() {
        let mut gen = StdRng::seed_from_u64(38);
        for case in 0..200u64 {
            let d = 1 + (case % 18) as usize;
            let v: Vec<f64> = (0..d).map(|_| gen.gen::<f64>() - 0.5).collect();
            let shots = [1, 64, 512, 4096][(case % 4) as usize];
            let mut rng = StdRng::seed_from_u64(case);
            let mut oracle_rng = StdRng::seed_from_u64(case);
            let est = tomography_real(&v, shots, &mut rng).unwrap();
            let want = tomography_real_scanned(&v, shots, &mut oracle_rng);
            let bits = |x: &[f64]| x.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&est), bits(&want), "case {case}");
            assert!(rng == oracle_rng, "case {case}");
        }
    }
}
