//! Graph statistics and clustering-quality measures that depend on the
//! graph structure (as opposed to label-vs-label measures, which live in
//! `qsc-cluster`).

use crate::mixed::MixedGraph;

/// Total weight of connections crossing between different clusters under
/// the given labeling (direction ignored) — the classic cut size a
/// partitioner minimizes.
///
/// # Panics
///
/// Panics if `labels.len() != g.num_vertices()`.
pub fn cut_weight(g: &MixedGraph, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), g.num_vertices(), "cut_weight: label length");
    let mut cut = 0.0;
    for e in g.edges() {
        if labels[e.u] != labels[e.v] {
            cut += e.weight;
        }
    }
    for a in g.arcs() {
        if labels[a.from] != labels[a.to] {
            cut += a.weight;
        }
    }
    cut
}

/// Directed flow matrix between clusters: entry `(a, b)` is the total weight
/// of arcs from cluster `a` to cluster `b`. Undirected edges do not
/// contribute.
///
/// # Panics
///
/// Panics if `labels.len() != g.num_vertices()` or a label is `≥ k`.
pub fn flow_matrix(g: &MixedGraph, labels: &[usize], k: usize) -> Vec<Vec<f64>> {
    assert_eq!(labels.len(), g.num_vertices(), "flow_matrix: label length");
    let mut f = vec![vec![0.0; k]; k];
    for a in g.arcs() {
        let (ca, cb) = (labels[a.from], labels[a.to]);
        assert!(ca < k && cb < k, "flow_matrix: label out of range");
        f[ca][cb] += a.weight;
    }
    f
}

/// Net flow imbalance between two clusters:
/// `(w(a→b) − w(b→a)) / (w(a→b) + w(b→a))`, in `[−1, 1]`; `0.0` when there
/// is no flow either way.
///
/// A value near ±1 means the boundary is strongly oriented — precisely the
/// signal the Hermitian pipeline detects and the symmetrized baseline
/// cannot.
pub fn flow_imbalance(flow: &[Vec<f64>], a: usize, b: usize) -> f64 {
    let fwd = flow[a][b];
    let bwd = flow[b][a];
    let total = fwd + bwd;
    if total == 0.0 {
        0.0
    } else {
        (fwd - bwd) / total
    }
}

/// Mean absolute flow imbalance over all cluster pairs with any flow —
/// a single scalar summarizing how flow-structured a clustering is.
pub fn mean_flow_imbalance(g: &MixedGraph, labels: &[usize], k: usize) -> f64 {
    let f = flow_matrix(g, labels, k);
    let mut total = 0.0;
    let mut count = 0usize;
    for a in 0..k {
        for b in a + 1..k {
            if f[a][b] + f[b][a] > 0.0 {
                total += flow_imbalance(&f, a, b).abs();
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles_bridged() -> MixedGraph {
        // Vertices 0-2 and 3-5 form triangles, arc 2→3 bridges them.
        let mut g = MixedGraph::new(6);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 1.0).unwrap();
        }
        g.add_arc(2, 3, 2.0).unwrap();
        g
    }

    #[test]
    fn cut_weight_counts_crossers() {
        let g = two_triangles_bridged();
        let labels = [0, 0, 0, 1, 1, 1];
        assert!((cut_weight(&g, &labels) - 2.0).abs() < 1e-12);
        let all_same = [0; 6];
        assert_eq!(cut_weight(&g, &all_same), 0.0);
    }

    #[test]
    fn flow_matrix_and_imbalance() {
        let g = two_triangles_bridged();
        let labels = [0, 0, 0, 1, 1, 1];
        let f = flow_matrix(&g, &labels, 2);
        assert!((f[0][1] - 2.0).abs() < 1e-12);
        assert_eq!(f[1][0], 0.0);
        assert!((flow_imbalance(&f, 0, 1) - 1.0).abs() < 1e-12);
        assert!((flow_imbalance(&f, 1, 0) + 1.0).abs() < 1e-12);
        assert!((mean_flow_imbalance(&g, &labels, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_zero_without_flow() {
        let f = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        assert_eq!(flow_imbalance(&f, 0, 1), 0.0);
    }
}
