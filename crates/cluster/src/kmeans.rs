//! Lloyd's k-means with k-means++ initialization and restarts, plus the
//! shared noisy-execution core (validation, the Lloyd run and the restart
//! loop) that the quantum analogue, q-means, reuses.

use crate::error::ClusterError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Convergence threshold on total centroid movement.
    pub tol: f64,
    /// Number of independent restarts; the lowest-inertia run wins.
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 2,
            max_iter: 100,
            tol: 1e-6,
            restarts: 5,
            seed: 0,
        }
    }
}

/// Result of a k-means (or q-means) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster label of every point, in `0..k`.
    pub labels: Vec<usize>,
    /// Final centroids, `k` rows of dimension `d`.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their centroid (computed with
    /// *exact* distances even for noisy runs, so runs are comparable).
    pub inertia: f64,
    /// Lloyd iterations performed in the winning restart.
    pub iterations: usize,
}

/// Pluggable noise channel for the Lloyd iteration — the identity for
/// classical k-means, and δ-bounded perturbations for q-means.
pub(crate) trait NoiseModel {
    /// Perturbs a squared-distance estimate.
    fn distance_sq(&mut self, exact: f64) -> f64;
    /// Perturbs a freshly computed centroid in place.
    fn centroid(&mut self, centroid: &mut [f64]);
}

/// The exact (classical) noise model: a no-op.
pub(crate) struct ExactModel;

impl NoiseModel for ExactModel {
    fn distance_sq(&mut self, exact: f64) -> f64 {
        exact
    }
    fn centroid(&mut self, _centroid: &mut [f64]) {}
}

fn validate(data: &[Vec<f64>], config: &KMeansConfig) -> Result<(), ClusterError> {
    if config.k == 0 {
        return Err(ClusterError::InvalidConfig {
            context: "k must be positive".into(),
        });
    }
    if config.restarts == 0 {
        return Err(ClusterError::InvalidConfig {
            context: "restarts must be positive".into(),
        });
    }
    if data.len() < config.k {
        return Err(ClusterError::TooFewPoints {
            points: data.len(),
            k: config.k,
        });
    }
    let d = data[0].len();
    for (i, p) in data.iter().enumerate() {
        if p.len() != d {
            return Err(ClusterError::DimensionMismatch {
                expected: d,
                found: p.len(),
            });
        }
        // A NaN or ∞ coordinate has no nearest centroid.
        if p.iter().any(|x| !x.is_finite()) {
            return Err(ClusterError::InvalidConfig {
                context: format!("point {i} has a non-finite coordinate"),
            });
        }
    }
    Ok(())
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ seeding: first centroid uniform, subsequent ones sampled with
/// probability proportional to squared distance from the nearest chosen one.
fn kmeanspp_init(data: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = data.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..n)].clone());
    let mut best_d2: Vec<f64> = data.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = best_d2.iter().sum();
        let choice = if total > 0.0 {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &w) in best_d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        } else {
            rng.gen_range(0..n)
        };
        centroids.push(data[choice].clone());
        for (i, p) in data.iter().enumerate() {
            let d2 = sq_dist(p, centroids.last().expect("just pushed"));
            if d2 < best_d2[i] {
                best_d2[i] = d2;
            }
        }
    }
    centroids
}

/// One full Lloyd run (k-means++ init, then at most `config.max_iter`
/// iterations) through an arbitrary noise model.
fn lloyd_run<N: NoiseModel>(
    data: &[Vec<f64>],
    config: &KMeansConfig,
    rng: &mut StdRng,
    noise: &mut N,
) -> KMeansResult {
    let KMeansConfig {
        k, max_iter, tol, ..
    } = *config;
    let n = data.len();
    let d = data[0].len();
    let mut centroids = kmeanspp_init(data, k, rng);
    let mut labels = vec![0usize; n];
    let mut iterations = 0usize;

    for iter in 0..max_iter {
        iterations = iter + 1;
        // Assignment step (through the noise channel).
        for (i, p) in data.iter().enumerate() {
            let mut best = f64::INFINITY;
            let mut best_c = 0usize;
            for (c, centroid) in centroids.iter().enumerate() {
                let est = noise.distance_sq(sq_dist(p, centroid));
                if est < best {
                    best = est;
                    best_c = c;
                }
            }
            labels[i] = best_c;
        }

        // Update step.
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (p, &l) in data.iter().zip(&labels) {
            counts[l] += 1;
            for (s, x) in sums[l].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed at the point farthest from its
                // current centroid to keep k clusters alive.
                let (far_idx, _) = data
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, sq_dist(p, &centroids[labels[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("non-empty data");
                sums[c] = data[far_idx].clone();
                counts[c] = 1;
                labels[far_idx] = c;
            }
            let mut new_centroid: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            noise.centroid(&mut new_centroid);
            movement += sq_dist(&new_centroid, &centroids[c]).sqrt();
            centroids[c] = new_centroid;
        }
        if movement <= tol {
            break;
        }
    }

    // Final assignment and inertia with exact distances.
    let mut inertia = 0.0;
    for (i, p) in data.iter().enumerate() {
        let (best_c, best) = centroids
            .iter()
            .enumerate()
            .map(|(c, centroid)| (c, sq_dist(p, centroid)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("k >= 1");
        labels[i] = best_c;
        inertia += best;
    }

    KMeansResult {
        labels,
        centroids,
        inertia,
        iterations,
    }
}

/// The restart loop k-means and q-means share: validates `data` against
/// `config`, then runs `config.restarts` Lloyd runs through `noise` on one
/// RNG stream seeded from `config.seed` and keeps the first run of
/// strictly lowest inertia.
///
/// # Errors
///
/// Returns [`ClusterError`] for invalid configurations, too few points,
/// ragged data or a non-finite coordinate.
pub(crate) fn best_of_restarts<N: NoiseModel>(
    data: &[Vec<f64>],
    config: &KMeansConfig,
    noise: &mut N,
) -> Result<KMeansResult, ClusterError> {
    validate(data, config)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut best: Option<KMeansResult> = None;
    for _ in 0..config.restarts {
        let run = lloyd_run(data, config, &mut rng, noise);
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    Ok(best.expect("restarts >= 1"))
}

/// Classical k-means: k-means++ init, Lloyd iterations, best of
/// `config.restarts` runs by inertia.
///
/// # Errors
///
/// Returns [`ClusterError`] for invalid configurations, too few points,
/// ragged data or a non-finite coordinate.
///
/// # Examples
///
/// ```
/// use qsc_cluster::{kmeans, KMeansConfig};
///
/// # fn main() -> Result<(), qsc_cluster::ClusterError> {
/// let data = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
/// ];
/// let result = kmeans(&data, &KMeansConfig { k: 2, seed: 1, ..KMeansConfig::default() })?;
/// assert_eq!(result.labels[0], result.labels[1]);
/// assert_ne!(result.labels[0], result.labels[5]);
/// # Ok(())
/// # }
/// ```
pub fn kmeans(data: &[Vec<f64>], config: &KMeansConfig) -> Result<KMeansResult, ClusterError> {
    best_of_restarts(data, config, &mut ExactModel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut truth = Vec::new();
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut rng = StdRng::seed_from_u64(99);
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..30 {
                data.push(vec![
                    center[0] + rng.gen_range(-0.5..0.5),
                    center[1] + rng.gen_range(-0.5..0.5),
                ]);
                truth.push(c);
            }
        }
        (data, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs();
        let result = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        // Every ground-truth cluster must be internally consistent.
        for c in 0..3 {
            let labels: Vec<usize> = truth
                .iter()
                .zip(&result.labels)
                .filter(|(t, _)| **t == c)
                .map(|(_, l)| *l)
                .collect();
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "cluster {c} split");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 5,
            ..Default::default()
        };
        assert_eq!(kmeans(&data, &cfg).unwrap(), kmeans(&data, &cfg).unwrap());
    }

    #[test]
    fn inertia_zero_when_k_equals_n() {
        let data = vec![vec![0.0], vec![1.0], vec![2.0]];
        let cfg = KMeansConfig {
            k: 3,
            seed: 1,
            restarts: 10,
            ..Default::default()
        };
        let result = kmeans(&data, &cfg).unwrap();
        assert!(result.inertia < 1e-12);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let cfg = KMeansConfig {
            k: 1,
            seed: 1,
            ..Default::default()
        };
        let result = kmeans(&data, &cfg).unwrap();
        assert!((result.centroids[0][0] - 1.0).abs() < 1e-9);
        assert!((result.centroids[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = vec![vec![0.0], vec![1.0]];
        assert!(kmeans(
            &data,
            &KMeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(kmeans(
            &data,
            &KMeansConfig {
                k: 5,
                ..Default::default()
            }
        )
        .is_err());
        let ragged = vec![vec![0.0], vec![1.0, 2.0]];
        assert!(kmeans(
            &ragged,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(kmeans(
            &data,
            &KMeansConfig {
                restarts: 0,
                ..Default::default()
            }
        )
        .is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = vec![vec![0.0, 0.0], vec![1.0, bad], vec![2.0, 2.0]];
            assert!(matches!(
                kmeans(
                    &rows,
                    &KMeansConfig {
                        k: 2,
                        ..Default::default()
                    }
                ),
                Err(ClusterError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn labels_within_k() {
        let (data, _) = blobs();
        let result = kmeans(
            &data,
            &KMeansConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.labels.iter().all(|&l| l < 4));
        assert_eq!(result.labels.len(), data.len());
    }

    #[test]
    fn more_restarts_never_worse() {
        let (data, _) = blobs();
        let one = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                seed: 11,
                restarts: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let many = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                seed: 11,
                restarts: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(many.inertia <= one.inertia + 1e-9);
    }
}
