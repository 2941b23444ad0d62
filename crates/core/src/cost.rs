//! Cost models: the operation-count proxies the runtime comparison (Fig. 2)
//! is built on.
//!
//! Both models follow the theoretical analyses, with every data-dependent
//! parameter **measured from the instance**:
//!
//! * classical: `c_dist·n²·d + c_eig·n³ + n·k²·iters` — dominated by the
//!   `O(n³)` Hermitian eigendecomposition;
//! * quantum: `T_S · (η_S/(ε_dist·ε_B)) · μ(B)·κ(𝓛̃^(k))/ε_λ · T_qmeans`
//!   with `T_S = O(polylog)` under QRAM, `μ(B) = O(n)` in the worst case —
//!   which is what produces the near-linear observed growth.

use crate::config::QuantumParams;
use qsc_graph::MixedGraph;
use serde::{Deserialize, Serialize};

/// Flop-count proxy of the classical pipeline.
///
/// `n` vertices, `k` clusters, `iters` k-means iterations. The constants
/// mirror the dominant terms: one Laplacian build (`n²`), one Hermitian
/// eigendecomposition (`≈ 14n³` flops for tridiagonalization + QL +
/// back-transform), and the k-means sweeps.
pub fn classical_cost(n: usize, k: usize, iters: usize) -> f64 {
    let nf = n as f64;
    let kf = k as f64;
    let laplacian = nf * nf;
    let eigen = 14.0 * nf * nf * nf;
    let kmeans = nf * kf * (2.0 * kf) * iters as f64;
    laplacian + eigen + kmeans
}

/// `μ(B)` of the mixed graph's incidence matrix, computed analytically
/// (never materializing the `n × m` matrix):
///
/// * row `i` of `B` has one entry of modulus `√w_e` per connection `e`
///   incident to `i`, so `s_p(B) = max_i Σ_{e∋i} w_e^{p/2}`;
/// * each column has exactly two entries of modulus `√w_e`, so
///   `s_p(Bᵀ) = max_e 2·w_e^{p/2}`;
/// * `‖B‖_F = sqrt(Σ_e 2·w_e)`.
///
/// `μ` is the minimum of the Frobenius norm and
/// `sqrt(s_{2p}(B)·s_{2(1−p)}(Bᵀ))` over a grid of `p`.
///
/// Bit-identical to [`incidence_mu_reference`]: the same powers, each sum
/// and maximum taken in the same order, but all nine grid points share one
/// pass over the weights, and a weight's powers are recomputed only when it
/// differs from the previous weight (nearly every weight is `1.0`).
pub fn incidence_mu(g: &MixedGraph) -> f64 {
    let (weights, incident) = incident_weights(g);
    if weights.is_empty() {
        return 0.0;
    }
    let fro = (2.0 * weights.iter().sum::<f64>()).sqrt();
    let grid: [f64; GRID] = std::array::from_fn(|step| step as f64 / 8.0);
    let mut row_pow = PowMemo::new(grid.map(|p| 2.0 * p / 2.0));
    let mut col_pow = PowMemo::new(grid.map(|p| 2.0 * (1.0 - p) / 2.0));
    // What `Iterator::sum` starts from, so each row sum below is its fold.
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut s_rows = [0.0f64; GRID];
    for ws in &incident {
        let mut sums = [zero; GRID];
        for &w in ws {
            for (sum, x) in sums.iter_mut().zip(row_pow.of(w)) {
                *sum += x;
            }
        }
        for (s, sum) in s_rows.iter_mut().zip(sums) {
            *s = s.max(sum);
        }
    }
    let mut s_cols = [0.0f64; GRID];
    for &w in &weights {
        for (s, x) in s_cols.iter_mut().zip(col_pow.of(w)) {
            *s = s.max(2.0 * x);
        }
    }
    let mut best = fro;
    for (r, c) in s_rows.into_iter().zip(s_cols) {
        let candidate = (r * c).sqrt();
        if candidate.is_finite() && candidate > 0.0 {
            best = best.min(candidate);
        }
    }
    best
}

/// Number of points `p = 0, 1/8, …, 1` in `μ`'s grid.
const GRID: usize = 9;

/// `w^e` for each grid exponent `e`, recomputed only when `w`'s bits differ
/// from the last call's.
struct PowMemo {
    exps: [f64; GRID],
    bits: u64,
    values: [f64; GRID],
}

impl PowMemo {
    fn new(exps: [f64; GRID]) -> Self {
        Self {
            exps,
            bits: 1.0f64.to_bits(),
            values: exps.map(|e| 1.0f64.powf(e)),
        }
    }

    fn of(&mut self, w: f64) -> [f64; GRID] {
        if w.to_bits() != self.bits {
            self.bits = w.to_bits();
            self.values = self.exps.map(|e| w.powf(e));
        }
        self.values
    }
}

/// Every connection's weight (edges, then arcs) and, per vertex, the
/// weights of the connections incident to it, in that order.
fn incident_weights(g: &MixedGraph) -> (Vec<f64>, Vec<Vec<f64>>) {
    let weights: Vec<f64> = g
        .edges()
        .iter()
        .map(|e| e.weight)
        .chain(g.arcs().iter().map(|a| a.weight))
        .collect();
    let mut incident: Vec<Vec<f64>> = vec![Vec::new(); g.num_vertices()];
    for e in g.edges() {
        incident[e.u].push(e.weight);
        incident[e.v].push(e.weight);
    }
    for a in g.arcs() {
        incident[a.from].push(a.weight);
        incident[a.to].push(a.weight);
    }
    (weights, incident)
}

/// The plain form of [`incidence_mu`]: one `powf` per weight and `p`. Kept
/// as the differential oracle for `incidence_mu`, which every staged
/// embedding evaluates.
pub fn incidence_mu_reference(g: &MixedGraph) -> f64 {
    let (weights, incident) = incident_weights(g);
    if weights.is_empty() {
        return 0.0;
    }
    let fro = (2.0 * weights.iter().sum::<f64>()).sqrt();

    let s_rows = |p: f64| -> f64 {
        incident
            .iter()
            .map(|ws| ws.iter().map(|w| w.powf(p / 2.0)).sum::<f64>())
            .fold(0.0, f64::max)
    };
    let s_cols = |p: f64| -> f64 {
        weights
            .iter()
            .map(|w| 2.0 * w.powf(p / 2.0))
            .fold(0.0, f64::max)
    };

    let mut best = fro;
    for step in 0..=8 {
        let p = step as f64 / 8.0;
        let candidate = (s_rows(2.0 * p) * s_cols(2.0 * (1.0 - p))).sqrt();
        if candidate.is_finite() && candidate > 0.0 {
            best = best.min(candidate);
        }
    }
    best
}

/// Measured instance parameters feeding [`quantum_cost`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantumCostInputs {
    /// Number of vertices (for the QRAM polylog factor).
    pub n: usize,
    /// Number of spectral dimensions actually selected.
    pub k_selected: usize,
    /// `μ(B)` of the incidence matrix (see [`incidence_mu`]).
    pub mu_b: f64,
    /// Condition number `κ(𝓛̃^(k))` of the projected Laplacian (ratio of
    /// largest to smallest selected non-zero eigenvalue).
    pub kappa: f64,
    /// Row-norm spread `η` of the spectral embedding handed to q-means.
    pub eta_embedding: f64,
}

/// Query-count proxy of the quantum pipeline under the QRAM assumption.
pub fn quantum_cost(inputs: &QuantumCostInputs, params: &QuantumParams) -> f64 {
    let n = inputs.n.max(2) as f64;
    let t_s = n.log2().powi(2); // QRAM access: polylog(n)
    let access_b = t_s / (params.epsilon_dist * params.epsilon_b);
    let projection = inputs.mu_b * inputs.kappa / params.epsilon_lambda();
    let kf = inputs.k_selected.max(1) as f64;
    let qmeans = kf.powi(3) * inputs.eta_embedding.powf(2.5) / params.delta.powi(3);
    access_b * projection * qmeans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_cost_cubic_dominant() {
        let c1 = classical_cost(100, 3, 20);
        let c2 = classical_cost(200, 3, 20);
        let ratio = c2 / c1;
        assert!(
            (ratio - 8.0).abs() < 0.5,
            "expected ≈8× for 2× n, got {ratio}"
        );
    }

    #[test]
    fn incidence_mu_matches_dense_mu_small() {
        // Cross-check the analytic μ(B) against the dense computation.
        use qsc_graph::generators::{random_mixed, RandomMixedParams};
        use qsc_graph::incidence_matrix;
        use qsc_linalg::params::mu;
        let g = random_mixed(&RandomMixedParams {
            n: 12,
            p_undirected: 0.3,
            p_directed: 0.3,
            weight_range: (0.5, 2.0),
            seed: 3,
        })
        .unwrap();
        let analytic = incidence_mu(&g);
        let dense = mu(&incidence_matrix(&g, 0.25));
        assert!(
            (analytic - dense).abs() < 1e-9,
            "analytic {analytic} vs dense {dense}"
        );
    }

    #[test]
    fn incidence_mu_grows_subquadratically() {
        use qsc_graph::generators::{dsbm, DsbmParams};
        let mu_at = |n: usize| {
            let inst = dsbm(&DsbmParams {
                n,
                seed: 1,
                ..DsbmParams::default()
            })
            .unwrap();
            incidence_mu(&inst.graph)
        };
        let m200 = mu_at(200);
        let m400 = mu_at(400);
        // Fixed edge probability ⇒ ‖B‖_F ~ n; μ must not grow faster.
        let ratio = m400 / m200;
        assert!(ratio < 3.0, "μ growth ratio {ratio} too steep");
    }

    /// `incidence_mu` against its oracle, bit for bit.
    fn assert_mu_matches_reference(g: &MixedGraph, what: &str) {
        let (fast, reference) = (incidence_mu(g), incidence_mu_reference(g));
        assert_eq!(
            fast.to_bits(),
            reference.to_bits(),
            "{what}: {fast} vs {reference}"
        );
    }

    #[test]
    fn memoised_mu_is_bit_identical_to_the_reference() {
        use qsc_graph::generators::{dsbm, random_mixed, DsbmParams, RandomMixedParams};
        for (n, seed) in [(60, 1), (128, 2), (300, 3)] {
            let inst = dsbm(&DsbmParams {
                n,
                seed,
                ..DsbmParams::default()
            })
            .unwrap();
            assert_mu_matches_reference(&inst.graph, "dsbm unit weights");
            assert_mu_matches_reference(&inst.graph.symmetrized(), "symmetrized dsbm");
        }
        for seed in 0..4 {
            let g = random_mixed(&RandomMixedParams {
                n: 80,
                p_undirected: 0.1,
                p_directed: 0.1,
                weight_range: (0.5, 2.0),
                seed,
            })
            .unwrap();
            assert_mu_matches_reference(&g, "random_mixed weights in (0.5, 2.0)");
            assert_mu_matches_reference(&g.symmetrized(), "symmetrized random_mixed");
        }
    }

    #[test]
    fn memoised_mu_handles_repeats_isolated_vertices_and_empty_graphs() {
        // Runs of repeated weights, a change back to an earlier weight, and
        // vertex 7 with no connection at all.
        let mut g = MixedGraph::new(8);
        let weights = [1.0, 1.0, 2.5, 2.5, 2.5, 0.5, 1.0, 0.5, 0.5, 3.0];
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (0, 6),
            (1, 5),
        ];
        for (&(u, v), &w) in pairs.iter().zip(&weights) {
            g.add_edge(u, v, w).unwrap();
        }
        g.add_arc(2, 6, weights[8]).unwrap();
        g.add_arc(6, 3, weights[9]).unwrap();
        assert_mu_matches_reference(&g, "repeated weights, one isolated vertex");
        assert_mu_matches_reference(&g.symmetrized(), "symmetrized repeats");
        for n in [0, 1, 5] {
            let empty = MixedGraph::new(n);
            assert_mu_matches_reference(&empty, "empty graph");
            assert_eq!(incidence_mu(&empty), 0.0);
        }
    }

    #[test]
    fn quantum_cost_monotone_in_kappa_and_mu() {
        let params = QuantumParams::default();
        let base = QuantumCostInputs {
            n: 500,
            k_selected: 3,
            mu_b: 30.0,
            kappa: 2.0,
            eta_embedding: 1.5,
        };
        let c0 = quantum_cost(&base, &params);
        let c_kappa = quantum_cost(&QuantumCostInputs { kappa: 4.0, ..base }, &params);
        let c_mu = quantum_cost(&QuantumCostInputs { mu_b: 60.0, ..base }, &params);
        assert!(c_kappa > c0);
        assert!((c_mu / c0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_mu_is_zero() {
        let g = MixedGraph::new(5);
        assert_eq!(incidence_mu(&g), 0.0);
    }

    #[test]
    fn finer_precision_costs_more() {
        let inputs = QuantumCostInputs {
            n: 500,
            k_selected: 3,
            mu_b: 30.0,
            kappa: 2.0,
            eta_embedding: 1.5,
        };
        let coarse = QuantumParams::default();
        let fine = QuantumParams {
            qpe_bits: coarse.qpe_bits + 2,
            delta: coarse.delta / 2.0,
            ..coarse.clone()
        };
        assert!(quantum_cost(&inputs, &fine) > quantum_cost(&inputs, &coarse));
    }
}
