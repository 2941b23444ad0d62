//! The mixed-graph data structure: undirected edges plus directed arcs.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// An undirected, weighted edge `{u, v}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// First endpoint (the smaller index after normalization).
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// Strictly positive weight.
    pub weight: f64,
}

/// A directed, weighted arc `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arc {
    /// Tail (source) vertex.
    pub from: usize,
    /// Head (target) vertex.
    pub to: usize,
    /// Strictly positive weight.
    pub weight: f64,
}

/// A mixed graph: `n` vertices, a set of undirected edges and a set of
/// directed arcs, with at most one connection per vertex pair.
///
/// This is the input object of the whole pipeline. The single-connection
/// invariant keeps the Hermitian adjacency well-defined (each pair
/// contributes exactly one complex entry and its conjugate).
///
/// # Examples
///
/// ```
/// use qsc_graph::MixedGraph;
///
/// # fn main() -> Result<(), qsc_graph::GraphError> {
/// let mut g = MixedGraph::new(4);
/// g.add_edge(0, 1, 1.0)?;     // undirected
/// g.add_arc(1, 2, 1.0)?;      // directed 1 → 2
/// g.add_arc(2, 3, 0.5)?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.num_arcs(), 2);
/// assert!((g.degrees()[2] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MixedGraph {
    n: usize,
    edges: Vec<Edge>,
    arcs: Vec<Arc>,
    #[serde(skip)]
    occupied: HashSet<(usize, usize)>,
}

impl MixedGraph {
    /// Creates an empty mixed graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
            arcs: Vec::new(),
            occupied: HashSet::new(),
        }
    }

    fn check_pair(&self, u: usize, v: usize, weight: f64) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfBounds {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfBounds {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        // `!(x > 0.0)` (rather than `x <= 0.0`) deliberately rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(weight > 0.0) {
            return Err(GraphError::NonPositiveWeight { weight });
        }
        let key = (u.min(v), u.max(v));
        if self.occupied.contains(&key) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        Ok(())
    }

    /// Adds an undirected edge `{u, v}` with the given weight.
    ///
    /// # Errors
    ///
    /// Rejects out-of-bounds vertices, self-loops, non-positive weights and
    /// pairs that are already connected.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<(), GraphError> {
        self.check_pair(u, v, weight)?;
        self.occupied.insert((u.min(v), u.max(v)));
        self.edges.push(Edge {
            u: u.min(v),
            v: u.max(v),
            weight,
        });
        Ok(())
    }

    /// Adds a directed arc `from → to` with the given weight.
    ///
    /// # Errors
    ///
    /// Same contract as [`add_edge`](Self::add_edge).
    pub fn add_arc(&mut self, from: usize, to: usize, weight: f64) -> Result<(), GraphError> {
        self.check_pair(from, to, weight)?;
        self.occupied.insert((from.min(to), from.max(to)));
        self.arcs.push(Arc { from, to, weight });
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Total number of connections (edges + arcs).
    #[inline]
    pub fn num_connections(&self) -> usize {
        self.edges.len() + self.arcs.len()
    }

    /// Undirected edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Directed arcs.
    #[inline]
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// `true` if the pair `{u, v}` is connected by an edge or an arc (in
    /// either direction).
    pub fn are_connected(&self, u: usize, v: usize) -> bool {
        self.occupied.contains(&(u.min(v), u.max(v)))
    }

    /// All weighted total degrees at once (O(E) rather than O(V·E)).
    pub fn degrees(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for e in &self.edges {
            d[e.u] += e.weight;
            d[e.v] += e.weight;
        }
        for a in &self.arcs {
            d[a.from] += a.weight;
            d[a.to] += a.weight;
        }
        d
    }

    /// Returns the symmetrized graph: every arc becomes an undirected edge
    /// of the same weight. This is the input of the direction-blind baseline
    /// the paper's method is compared against.
    pub fn symmetrized(&self) -> MixedGraph {
        let mut g = MixedGraph::new(self.n);
        for e in &self.edges {
            g.add_edge(e.u, e.v, e.weight).expect("copy of valid edge");
        }
        for a in &self.arcs {
            g.add_edge(a.from, a.to, a.weight)
                .expect("copy of valid arc");
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut g = MixedGraph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_arc(1, 2, 2.0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_arcs(), 1);
        assert_eq!(g.num_connections(), 2);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = MixedGraph::new(2);
        assert_eq!(
            g.add_edge(1, 1, 1.0),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut g = MixedGraph::new(2);
        assert!(matches!(
            g.add_arc(0, 5, 1.0),
            Err(GraphError::VertexOutOfBounds { vertex: 5, n: 2 })
        ));
    }

    #[test]
    fn rejects_duplicate_any_direction() {
        let mut g = MixedGraph::new(3);
        g.add_arc(0, 1, 1.0).unwrap();
        assert!(g.add_arc(1, 0, 1.0).is_err());
        assert!(g.add_edge(0, 1, 1.0).is_err());
        assert!(g.add_edge(1, 0, 1.0).is_err());
    }

    #[test]
    fn rejects_non_positive_weight() {
        let mut g = MixedGraph::new(2);
        assert!(g.add_edge(0, 1, 0.0).is_err());
        assert!(g.add_edge(0, 1, -1.0).is_err());
        assert!(g.add_edge(0, 1, f64::NAN).is_err());
    }

    #[test]
    fn degrees_ignore_direction() {
        let mut g = MixedGraph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_arc(2, 1, 3.0).unwrap();
        assert_eq!(g.degrees(), vec![1.0, 4.0, 3.0]);
    }

    #[test]
    fn symmetrized_converts_arcs() {
        let mut g = MixedGraph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_arc(1, 2, 2.0).unwrap();
        let s = g.symmetrized();
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.num_arcs(), 0);
        assert!((s.degrees()[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_query() {
        let mut g = MixedGraph::new(3);
        g.add_arc(0, 2, 1.0).unwrap();
        assert!(g.are_connected(0, 2));
        assert!(g.are_connected(2, 0));
        assert!(!g.are_connected(0, 1));
    }
}
