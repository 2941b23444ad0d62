//! Synthetic netlist generator — the EDA workload.
//!
//! Substitutes for proprietary industrial netlists: a pipelined datapath
//! with `num_modules` stages. Cells within a module are coupled by
//! undirected edges (placement affinity, shared nets); signals flow
//! through directed arcs from each stage to the next, with optional
//! feedback arcs. Ground truth is the module membership, so module-recovery
//! accuracy is measurable, and arc orientation is exactly the structure a
//! direction-blind partitioner throws away.

use crate::error::GraphError;
use crate::generators::dsbm::PlantedGraph;
use crate::mixed::MixedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic netlist generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistParams {
    /// Number of pipeline stages (modules).
    pub num_modules: usize,
    /// Cells per module.
    pub cells_per_module: usize,
    /// Probability of an undirected intra-module coupling edge.
    pub p_intra: f64,
    /// Probability of a directed signal arc from a cell in stage `s` to a
    /// cell in stage `s+1`.
    pub p_signal: f64,
    /// Probability of a feedback arc from stage `s+1` back to stage `s`
    /// (relative to the same pair pool as `p_signal`).
    pub p_feedback: f64,
    /// Probability of a long-range (skip) arc from stage `s` to `s+2`.
    pub p_skip: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetlistParams {
    fn default() -> Self {
        Self {
            num_modules: 4,
            cells_per_module: 50,
            p_intra: 0.10,
            p_signal: 0.06,
            p_feedback: 0.01,
            p_skip: 0.01,
            seed: 0,
        }
    }
}

/// Generates a synthetic pipelined-datapath netlist.
///
/// Returns a [`PlantedGraph`] whose labels are the module indices.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParams`] for empty or out-of-range
/// parameters.
///
/// # Examples
///
/// ```
/// use qsc_graph::generators::{netlist, NetlistParams};
///
/// # fn main() -> Result<(), qsc_graph::GraphError> {
/// let inst = netlist(&NetlistParams { num_modules: 3, cells_per_module: 20, seed: 1,
///                                     ..NetlistParams::default() })?;
/// assert_eq!(inst.graph.num_vertices(), 60);
/// # Ok(())
/// # }
/// ```
pub fn netlist(params: &NetlistParams) -> Result<PlantedGraph, GraphError> {
    if params.num_modules == 0 || params.cells_per_module == 0 {
        return Err(GraphError::InvalidParams {
            context: "num_modules and cells_per_module must be positive".into(),
        });
    }
    for (name, p) in [
        ("p_intra", params.p_intra),
        ("p_signal", params.p_signal),
        ("p_feedback", params.p_feedback),
        ("p_skip", params.p_skip),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidParams {
                context: format!("{name} = {p} outside [0, 1]"),
            });
        }
    }

    let mut rng = StdRng::seed_from_u64(params.seed);
    let k = params.num_modules;
    let c = params.cells_per_module;
    let n = k * c;
    let labels: Vec<usize> = (0..n).map(|i| i / c).collect();
    let mut graph = MixedGraph::new(n);

    // Intra-module coupling (undirected).
    for m in 0..k {
        let base = m * c;
        for i in 0..c {
            for j in i + 1..c {
                if rng.gen::<f64>() < params.p_intra {
                    graph.add_edge(base + i, base + j, 1.0).expect("fresh pair");
                }
            }
        }
    }

    // Inter-module signals: forward, feedback and skip arcs. Each unordered
    // pair is considered once per relation, and the MixedGraph invariant
    // guarantees no pair ends up with two connections.
    let try_arc = |g: &mut MixedGraph, from: usize, to: usize, p: f64, rng: &mut StdRng| {
        if rng.gen::<f64>() < p && !g.are_connected(from, to) {
            g.add_arc(from, to, 1.0).expect("checked fresh");
        }
    };
    for s in 0..k.saturating_sub(1) {
        let (a, b) = (s * c, (s + 1) * c);
        for i in 0..c {
            for j in 0..c {
                try_arc(&mut graph, a + i, b + j, params.p_signal, &mut rng);
                try_arc(&mut graph, b + j, a + i, params.p_feedback, &mut rng);
            }
        }
    }
    for s in 0..k.saturating_sub(2) {
        let (a, b) = (s * c, (s + 2) * c);
        for i in 0..c {
            for j in 0..c {
                try_arc(&mut graph, a + i, b + j, params.p_skip, &mut rng);
            }
        }
    }

    Ok(PlantedGraph { graph, labels })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_labels() {
        let p = NetlistParams {
            num_modules: 5,
            cells_per_module: 10,
            seed: 2,
            ..NetlistParams::default()
        };
        let inst = netlist(&p).unwrap();
        assert_eq!(inst.graph.num_vertices(), 50);
        assert_eq!(inst.labels[0], 0);
        assert_eq!(inst.labels[49], 4);
    }

    #[test]
    fn signals_flow_between_adjacent_stages() {
        let p = NetlistParams {
            num_modules: 3,
            cells_per_module: 15,
            p_feedback: 0.0,
            p_skip: 0.0,
            seed: 3,
            ..NetlistParams::default()
        };
        let inst = netlist(&p).unwrap();
        for a in inst.graph.arcs() {
            let (s, t) = (inst.labels[a.from], inst.labels[a.to]);
            assert_eq!(t, s + 1, "signal arc must go forward one stage");
        }
    }

    #[test]
    fn intra_edges_stay_in_module() {
        let inst = netlist(&NetlistParams {
            seed: 4,
            ..NetlistParams::default()
        })
        .unwrap();
        for e in inst.graph.edges() {
            assert_eq!(inst.labels[e.u], inst.labels[e.v]);
        }
    }

    #[test]
    fn deterministic() {
        let p = NetlistParams {
            seed: 5,
            ..NetlistParams::default()
        };
        assert_eq!(netlist(&p).unwrap().graph, netlist(&p).unwrap().graph);
    }

    #[test]
    fn rejects_empty() {
        assert!(netlist(&NetlistParams {
            num_modules: 0,
            ..NetlistParams::default()
        })
        .is_err());
        assert!(netlist(&NetlistParams {
            p_signal: 2.0,
            ..NetlistParams::default()
        })
        .is_err());
    }
}
