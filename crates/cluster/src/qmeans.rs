//! q-means — the quantum analogue of k-means, simulated classically.
//!
//! Following the q-means analysis (Kerenidis, Landman, Luongo, Prakash,
//! NeurIPS 2019) that the DAC paper's clustering stage builds on, the
//! quantum algorithm is *exactly* Lloyd's iteration but with two bounded
//! noise channels:
//!
//! * every squared-distance estimate carries an additive error of magnitude
//!   at most `δ` (quantum distance estimation + amplitude estimation), and
//! * every centroid read out at the end of an update step carries an ℓ2
//!   error of at most `δ` (vector-state tomography).
//!
//! The simulation injects uniformly distributed errors of those magnitudes,
//! which is the standard classical stand-in used by this line of work.
//!
//! On top of the δ channels, [`QMeans`] routes every distance estimate
//! through the execution [`Backend`] it is handed, when that backend's
//! statistics are not exact: with a `ShotSampler` the squared distances
//! become finite-shot frequencies (shot-based distance estimation); with a
//! `NoisyStatevector` they pick up the readout bias. An exact backend
//! leaves the estimates untouched.

use crate::clusterer::Clusterer;
use crate::error::ClusterError;
use crate::kmeans::{best_of_restarts, KMeansConfig, KMeansResult, NoiseModel};
use qsc_sim::backend::Backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// q-means: Lloyd's iteration through δ-bounded quantum noise channels
/// (distance estimation + centroid tomography errors), best of
/// `base.restarts` runs by (exact) inertia.
///
/// With `delta = 0` on a backend with exact statistics this is numerically
/// identical to [`crate::kmeans()`] driven by the same seed.
///
/// # Examples
///
/// ```
/// use qsc_cluster::{Clusterer, KMeansConfig, QMeans};
/// use qsc_sim::backend::Statevector;
///
/// # fn main() -> Result<(), qsc_cluster::ClusterError> {
/// let data = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0],
///     vec![5.0, 5.0], vec![5.1, 5.0],
/// ];
/// let base = KMeansConfig { k: 2, seed: 1, ..KMeansConfig::default() };
/// let result = QMeans::new(0.05).cluster(&data, &base, &Statevector::new())?;
/// assert_eq!(result.labels[0], result.labels[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QMeans {
    /// Noise magnitude `δ ≥ 0`: bound on both the squared-distance
    /// estimation error and the per-centroid tomography error.
    pub delta: f64,
}

impl QMeans {
    /// Creates the q-means stage with noise magnitude `delta`.
    pub fn new(delta: f64) -> Self {
        Self { delta }
    }
}

impl Default for QMeans {
    fn default() -> Self {
        Self { delta: 0.1 }
    }
}

impl Clusterer for QMeans {
    fn name(&self) -> &'static str {
        "qmeans"
    }

    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for a negative or non-finite
    /// `delta`, the [`crate::kmeans()`] errors for `data` and `base`, and
    /// [`ClusterError::Backend`] when an estimate through `backend` failed.
    fn cluster(
        &self,
        data: &[Vec<f64>],
        base: &KMeansConfig,
        backend: &dyn Backend,
    ) -> Result<KMeansResult, ClusterError> {
        if !(self.delta.is_finite() && self.delta >= 0.0) {
            return Err(ClusterError::InvalidConfig {
                context: format!("delta = {} must be finite and non-negative", self.delta),
            });
        }
        // A backend with exact statistics observes nothing: its run is the
        // pure δ channel's, bit for bit.
        let observed = (!backend.exact_statistics()).then_some(backend);
        let mut noise = QMeansNoise::new(
            self.delta,
            base.seed.wrapping_add(0x9e37_79b9),
            observed,
            observed.map_or(1.0, |_| distance_scale(data)),
        );
        let result = best_of_restarts(data, base, &mut noise)?;
        if let Some(e) = noise.error {
            return Err(ClusterError::Backend {
                context: e.to_string(),
            });
        }
        Ok(result)
    }
}

/// The δ-bounded noise channel of q-means, optionally composed with an
/// execution backend's measurement statistics for the distance estimates.
pub(crate) struct QMeansNoise<'b> {
    delta: f64,
    rng: StdRng,
    /// Measurement-statistics model for the distance estimates; `None`
    /// keeps the pure δ channel.
    backend: Option<&'b dyn Backend>,
    /// Upper bound on the squared distances, normalizing them into the
    /// `[0, 1]` probability the backend's estimator observes.
    distance_scale: f64,
    /// First backend failure, stashed because [`NoiseModel`] hooks are
    /// infallible: once set, later estimates pass through un-observed and
    /// [`QMeans::cluster`] surfaces the error after the run.
    error: Option<qsc_sim::SimError>,
}

impl<'b> QMeansNoise<'b> {
    /// Creates the channel with its own RNG stream; distance estimates are
    /// additionally drawn through `backend` (shot statistics / readout
    /// bias) when one is given, with squared distances normalized by
    /// `distance_scale` (an upper bound on them).
    fn new(delta: f64, seed: u64, backend: Option<&'b dyn Backend>, distance_scale: f64) -> Self {
        Self {
            delta,
            rng: StdRng::seed_from_u64(seed),
            backend,
            distance_scale: distance_scale.max(f64::MIN_POSITIVE),
            error: None,
        }
    }
}

impl NoiseModel for QMeansNoise<'_> {
    fn distance_sq(&mut self, exact: f64) -> f64 {
        let mut est = exact;
        if self.delta > 0.0 {
            est = (est + self.rng.gen_range(-self.delta..self.delta)).max(0.0);
        }
        if let Some(backend) = self.backend {
            if self.error.is_none() {
                // Shot-based distance estimation: the (δ-perturbed) squared
                // distance, normalized to a probability, observed through
                // the backend's measurement statistics.
                let p = (est / self.distance_scale).clamp(0.0, 1.0);
                match backend.estimate_probability(p, &mut self.rng) {
                    Ok(obs) => est = obs * self.distance_scale,
                    Err(e) => self.error = Some(e),
                }
            }
        }
        est.max(0.0)
    }

    fn centroid(&mut self, centroid: &mut [f64]) {
        if self.delta == 0.0 || centroid.is_empty() {
            return;
        }
        // An ℓ2 perturbation of magnitude at most δ: sample a uniform
        // direction (via per-coordinate uniforms, adequate here) and a
        // uniform radius in [0, δ).
        let dir: Vec<f64> = centroid
            .iter()
            .map(|_| self.rng.gen_range(-1.0..1.0))
            .collect();
        let norm: f64 = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return;
        }
        let radius = self.rng.gen_range(0.0..self.delta);
        for (c, d) in centroid.iter_mut().zip(&dir) {
            *c += d / norm * radius;
        }
    }
}

/// Upper bound on the squared distance between a point and any centroid in
/// the data's convex hull: `(2·max‖x‖)²` (δ perturbations are clamped into
/// this range, which only saturates the probability).
fn distance_scale(data: &[Vec<f64>]) -> f64 {
    let max_norm = data
        .iter()
        .map(|row| row.iter().map(|x| x * x).sum::<f64>().sqrt())
        .fold(0.0, f64::max);
    (2.0 * max_norm).powi(2).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use qsc_sim::backend::{ShotSampler, Statevector};

    fn blobs() -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(123);
        let mut data = Vec::new();
        for center in [[0.0, 0.0], [8.0, 8.0]] {
            for _ in 0..25 {
                data.push(vec![
                    center[0] + rng.gen_range(-0.5..0.5),
                    center[1] + rng.gen_range(-0.5..0.5),
                ]);
            }
        }
        data
    }

    fn base(seed: u64) -> KMeansConfig {
        KMeansConfig {
            k: 2,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn zero_delta_matches_kmeans() {
        let data = blobs();
        let classical = kmeans(&data, &base(4)).unwrap();
        let quantum = QMeans::new(0.0)
            .cluster(&data, &base(4), &Statevector::new())
            .unwrap();
        assert_eq!(classical.labels, quantum.labels);
        assert!((classical.inertia - quantum.inertia).abs() < 1e-12);
    }

    #[test]
    fn small_delta_still_separates_blobs() {
        let data = blobs();
        let result = QMeans::new(0.2)
            .cluster(&data, &base(4), &Statevector::new())
            .unwrap();
        // First 25 points belong together, last 25 belong together.
        assert!(result.labels[..25].windows(2).all(|w| w[0] == w[1]));
        assert!(result.labels[25..].windows(2).all(|w| w[0] == w[1]));
        assert_ne!(result.labels[0], result.labels[30]);
    }

    #[test]
    fn rejects_negative_delta() {
        let data = blobs();
        for delta in [-0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                QMeans::new(delta).cluster(&data, &base(0), &Statevector::new()),
                Err(ClusterError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn rejects_non_finite_rows() {
        let mut data = blobs();
        data[3][1] = f64::NAN;
        assert!(matches!(
            QMeans::new(0.1).cluster(&data, &base(0), &ShotSampler::new(64)),
            Err(ClusterError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let run = || {
            QMeans::new(0.3)
                .cluster(&data, &base(9), &Statevector::new())
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noise_channel_bounds_respected() {
        let mut noise = QMeansNoise::new(0.5, 1, None, 1.0);
        for _ in 0..100 {
            let est = noise.distance_sq(3.0);
            assert!((est - 3.0).abs() <= 0.5);
            assert!(est >= 0.0);
        }
        for _ in 0..100 {
            let mut c = vec![1.0, 2.0, 3.0];
            let orig = c.clone();
            noise.centroid(&mut c);
            let moved: f64 = c
                .iter()
                .zip(&orig)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(moved <= 0.5 + 1e-12);
        }
    }

    #[test]
    fn distance_estimates_never_negative() {
        let mut noise = QMeansNoise::new(1.0, 2, None, 1.0);
        for _ in 0..200 {
            assert!(noise.distance_sq(0.01) >= 0.0);
        }
    }

    #[test]
    fn exact_backend_matches_plain_qmeans() {
        // An exact backend observes nothing: the run is the pure δ
        // channel's, on the noise stream seeded at `seed + 0x9e37_79b9`.
        let data = blobs();
        let mut plain_noise = QMeansNoise::new(0.2, 4 + 0x9e37_79b9, None, 1.0);
        let plain = best_of_restarts(&data, &base(4), &mut plain_noise).unwrap();
        let via_backend = QMeans::new(0.2)
            .cluster(&data, &base(4), &Statevector::new())
            .unwrap();
        assert_eq!(plain, via_backend);
    }

    #[test]
    fn shot_backend_is_deterministic_and_still_separates() {
        let data = blobs();
        let backend = ShotSampler::new(512);
        let stage = QMeans::new(0.05);
        let a = stage.cluster(&data, &base(4), &backend).unwrap();
        let b = stage.cluster(&data, &base(4), &backend).unwrap();
        assert_eq!(a, b, "seeded shot statistics must be reproducible");
        // The blobs are far apart; 512 shots resolve them.
        assert!(a.labels[..25].windows(2).all(|w| w[0] == w[1]));
        assert!(a.labels[25..].windows(2).all(|w| w[0] == w[1]));
        assert_ne!(a.labels[0], a.labels[30]);
    }

    #[test]
    fn shot_backend_distance_estimates_are_quantized() {
        let backend = ShotSampler::new(100);
        let mut noise = QMeansNoise::new(0.0, 7, Some(&backend), 4.0);
        for _ in 0..50 {
            let est = noise.distance_sq(1.0);
            // Estimates are multiples of scale/shots = 0.04.
            let quantum = 4.0 / 100.0;
            assert!(
                (est / quantum - (est / quantum).round()).abs() < 1e-9,
                "est {est}"
            );
            assert!((0.0..=4.0).contains(&est));
        }
    }
}
