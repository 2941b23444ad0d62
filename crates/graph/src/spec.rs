//! Serializable generator specifications — the `graph` block of an
//! experiment spec file.
//!
//! A [`GraphSpec`] names a generator *family* plus its parameters and can
//! be (de)serialized through `qsc-json` with unknown-field rejection, so a
//! sweep over synthetic workloads is data, not code. The sweep engine
//! assigns a swept field by editing the spec's JSON form and decoding it
//! again, seeds each repetition through [`GraphSpec::set_seed`], then
//! calls [`GraphSpec::generate`].
//!
//! # Examples
//!
//! ```
//! use qsc_graph::spec::GraphSpec;
//! use qsc_json::{FromJson, ToJson, Value};
//!
//! let v = Value::parse(
//!     r#"{"family": "dsbm", "n": 60, "k": 3, "eta_flow": 0.9, "seed": 7}"#,
//! ).unwrap();
//! let mut spec = GraphSpec::from_json(&v).unwrap();
//! spec.set_seed(8);
//! let inst = spec.generate().unwrap();
//! assert_eq!(inst.graph.num_vertices(), 60);
//! assert_eq!(GraphSpec::from_json(&spec.to_json()).unwrap(), spec);
//! ```

use crate::error::GraphError;
use crate::generators::{
    circles, dsbm, netlist, random_mixed, CirclesParams, DsbmParams, MetaGraph, NetlistParams,
    RandomMixedParams,
};
use crate::mixed::MixedGraph;
use crate::similarity::{edge_disagreement, quantum_similarity_graph, similarity_graph};
use qsc_json::{num, obj, s, FromJson, JsonError, ObjReader, ToJson, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated workload instance in the unified form the sweep engine
/// consumes: every family produces a graph; families with planted structure
/// also carry ground-truth labels, point-cloud families their coordinates,
/// and the noisy-comparator family its disagreement against the exact
/// graph.
#[derive(Debug, Clone)]
pub struct GeneratedInstance {
    /// The generated mixed graph.
    pub graph: MixedGraph,
    /// Ground-truth labels (empty for unstructured generators).
    pub labels: Vec<usize>,
    /// 2-D coordinates, for point-cloud families.
    pub points: Option<Vec<[f64; 2]>>,
    /// Fraction of vertex pairs whose connectivity differs from the exact
    /// similarity graph (only the `quantum_circles` family).
    pub edge_disagreement: Option<f64>,
}

/// Serializable specification of a workload generator: family + parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Mixed DSBM with meta-graph flow ([`dsbm`]).
    Dsbm(DsbmParams),
    /// Two concentric circles with a threshold similarity graph
    /// ([`circles`]).
    Circles(CirclesParams),
    /// Synthetic pipelined-datapath netlist ([`netlist`]).
    Netlist(NetlistParams),
    /// Unstructured random mixed graph ([`random_mixed`]).
    RandomMixed(RandomMixedParams),
    /// The quantum-graph-construction workload: the two-circles cloud whose
    /// similarity graph is built by the ε_dist-noisy distance comparator
    /// ([`quantum_similarity_graph`]); ground truth stays the ring labels.
    QuantumCircles {
        /// The underlying point cloud (its own fixed seed).
        circles: CirclesParams,
        /// Additive comparator noise `ε_dist` (0 = exact graph).
        epsilon_dist: f64,
        /// Seed of the comparator's noise stream (this is the seed
        /// [`GraphSpec::set_seed`] drives, *not* the point cloud's).
        comparator_seed: u64,
    },
}

impl GraphSpec {
    /// Generates the instance this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParams`] for out-of-range parameters.
    pub fn generate(&self) -> Result<GeneratedInstance, GraphError> {
        match self {
            GraphSpec::Dsbm(params) => {
                let inst = dsbm(params)?;
                Ok(GeneratedInstance {
                    graph: inst.graph,
                    labels: inst.labels,
                    points: None,
                    edge_disagreement: None,
                })
            }
            GraphSpec::Circles(params) => {
                let inst = circles(params)?;
                Ok(GeneratedInstance {
                    graph: inst.graph,
                    labels: inst.labels,
                    points: Some(inst.points),
                    edge_disagreement: None,
                })
            }
            GraphSpec::Netlist(params) => {
                let inst = netlist(params)?;
                Ok(GeneratedInstance {
                    graph: inst.graph,
                    labels: inst.labels,
                    points: None,
                    edge_disagreement: None,
                })
            }
            GraphSpec::RandomMixed(params) => {
                let graph = random_mixed(params)?;
                Ok(GeneratedInstance {
                    graph,
                    labels: Vec::new(),
                    points: None,
                    edge_disagreement: None,
                })
            }
            GraphSpec::QuantumCircles {
                circles: circ,
                epsilon_dist,
                comparator_seed,
            } => {
                let inst = circles(circ)?;
                let points: Vec<Vec<f64>> = inst.points.iter().map(|p| p.to_vec()).collect();
                let exact = similarity_graph(&points, circ.d_min)?;
                let mut rng = StdRng::seed_from_u64(*comparator_seed);
                let noisy = quantum_similarity_graph(&points, circ.d_min, *epsilon_dist, &mut rng)?;
                let disagreement = edge_disagreement(&exact, &noisy);
                Ok(GeneratedInstance {
                    graph: noisy,
                    labels: inst.labels,
                    points: Some(inst.points),
                    edge_disagreement: Some(disagreement),
                })
            }
        }
    }

    /// Sets the seed a repetition sweep varies: the generator seed, except
    /// for `quantum_circles`, whose swept randomness is the comparator's.
    pub fn set_seed(&mut self, seed: u64) {
        match self {
            GraphSpec::Dsbm(p) => p.seed = seed,
            GraphSpec::Circles(p) => p.seed = seed,
            GraphSpec::Netlist(p) => p.seed = seed,
            GraphSpec::RandomMixed(p) => p.seed = seed,
            GraphSpec::QuantumCircles {
                comparator_seed, ..
            } => *comparator_seed = seed,
        }
    }
}

fn meta_from_json(v: &Value) -> Result<MetaGraph, JsonError> {
    match v.as_str() {
        Some("cycle") => Ok(MetaGraph::Cycle),
        Some("path") => Ok(MetaGraph::Path),
        Some("complete_order") => Ok(MetaGraph::CompleteOrder),
        Some(other) => Err(JsonError::msg(format!(
            "graph.meta: unknown meta-graph `{other}` (expected cycle | path | complete_order)"
        ))),
        None => Err(JsonError::msg("graph.meta: expected a string")),
    }
}

fn meta_name(meta: MetaGraph) -> &'static str {
    match meta {
        MetaGraph::Cycle => "cycle",
        MetaGraph::Path => "path",
        MetaGraph::CompleteOrder => "complete_order",
    }
}

fn circles_from_reader(r: &mut ObjReader<'_>) -> Result<CirclesParams, JsonError> {
    let d = CirclesParams::default();
    Ok(CirclesParams {
        n: r.usize_or("n", d.n)?,
        inner_radius: r.f64_or("inner_radius", d.inner_radius)?,
        noise: r.f64_or("noise", d.noise)?,
        d_min: r.f64_or("d_min", d.d_min)?,
        directed_fraction: r.f64_or("directed_fraction", d.directed_fraction)?,
        seed: r.u64_or("seed", d.seed)?,
    })
}

fn circles_fields(p: &CirclesParams) -> Vec<(&'static str, Value)> {
    vec![
        ("n", num(p.n as f64)),
        ("inner_radius", num(p.inner_radius)),
        ("noise", num(p.noise)),
        ("d_min", num(p.d_min)),
        ("directed_fraction", num(p.directed_fraction)),
        ("seed", num(p.seed as f64)),
    ]
}

impl FromJson for GraphSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("graph")?;
        let family = r.req_str("family")?.to_string();
        let spec = match family.as_str() {
            "dsbm" => {
                let d = DsbmParams::default();
                GraphSpec::Dsbm(DsbmParams {
                    n: r.usize_or("n", d.n)?,
                    k: r.usize_or("k", d.k)?,
                    p_intra: r.f64_or("p_intra", d.p_intra)?,
                    p_inter: r.f64_or("p_inter", d.p_inter)?,
                    p_noise: r.f64_or("p_noise", d.p_noise)?,
                    intra_directed_fraction: r
                        .f64_or("intra_directed_fraction", d.intra_directed_fraction)?,
                    eta_flow: r.f64_or("eta_flow", d.eta_flow)?,
                    meta: match r.take("meta") {
                        Some(v) => meta_from_json(v)?,
                        None => d.meta,
                    },
                    seed: r.u64_or("seed", d.seed)?,
                })
            }
            "circles" => GraphSpec::Circles(circles_from_reader(&mut r)?),
            "netlist" => {
                let d = NetlistParams::default();
                GraphSpec::Netlist(NetlistParams {
                    num_modules: r.usize_or("num_modules", d.num_modules)?,
                    cells_per_module: r.usize_or("cells_per_module", d.cells_per_module)?,
                    p_intra: r.f64_or("p_intra", d.p_intra)?,
                    p_signal: r.f64_or("p_signal", d.p_signal)?,
                    p_feedback: r.f64_or("p_feedback", d.p_feedback)?,
                    p_skip: r.f64_or("p_skip", d.p_skip)?,
                    seed: r.u64_or("seed", d.seed)?,
                })
            }
            "random_mixed" => {
                let d = RandomMixedParams::default();
                let weight_range = match r.take("weight_range") {
                    None => d.weight_range,
                    Some(v) => {
                        let items = v.as_array().ok_or_else(|| {
                            JsonError::msg("graph.weight_range: expected [lo, hi]")
                        })?;
                        match items {
                            [lo, hi] => (
                                lo.as_f64().ok_or_else(|| {
                                    JsonError::msg("graph.weight_range: lo must be a number")
                                })?,
                                hi.as_f64().ok_or_else(|| {
                                    JsonError::msg("graph.weight_range: hi must be a number")
                                })?,
                            ),
                            _ => {
                                return Err(JsonError::msg(
                                    "graph.weight_range: expected exactly [lo, hi]",
                                ))
                            }
                        }
                    }
                };
                GraphSpec::RandomMixed(RandomMixedParams {
                    n: r.usize_or("n", d.n)?,
                    p_undirected: r.f64_or("p_undirected", d.p_undirected)?,
                    p_directed: r.f64_or("p_directed", d.p_directed)?,
                    weight_range,
                    seed: r.u64_or("seed", d.seed)?,
                })
            }
            "quantum_circles" => {
                let circles = match r.take("circles") {
                    Some(v) => {
                        let mut cr = v.reader("graph.circles")?;
                        let params = circles_from_reader(&mut cr)?;
                        cr.finish()?;
                        params
                    }
                    None => CirclesParams::default(),
                };
                GraphSpec::QuantumCircles {
                    circles,
                    epsilon_dist: r.f64_or("epsilon_dist", 0.0)?,
                    comparator_seed: r.u64_or("comparator_seed", 0)?,
                }
            }
            other => {
                return Err(JsonError::msg(format!(
                    "graph.family: unknown family `{other}` (expected dsbm | circles | netlist \
                     | random_mixed | quantum_circles)"
                )))
            }
        };
        r.finish()?;
        Ok(spec)
    }
}

impl ToJson for GraphSpec {
    fn to_json(&self) -> Value {
        match self {
            GraphSpec::Dsbm(p) => obj([
                ("family", s("dsbm")),
                ("n", num(p.n as f64)),
                ("k", num(p.k as f64)),
                ("p_intra", num(p.p_intra)),
                ("p_inter", num(p.p_inter)),
                ("p_noise", num(p.p_noise)),
                ("intra_directed_fraction", num(p.intra_directed_fraction)),
                ("eta_flow", num(p.eta_flow)),
                ("meta", s(meta_name(p.meta))),
                ("seed", num(p.seed as f64)),
            ]),
            GraphSpec::Circles(p) => {
                let mut fields = vec![("family", s("circles"))];
                fields.extend(circles_fields(p));
                obj(fields)
            }
            GraphSpec::Netlist(p) => obj([
                ("family", s("netlist")),
                ("num_modules", num(p.num_modules as f64)),
                ("cells_per_module", num(p.cells_per_module as f64)),
                ("p_intra", num(p.p_intra)),
                ("p_signal", num(p.p_signal)),
                ("p_feedback", num(p.p_feedback)),
                ("p_skip", num(p.p_skip)),
                ("seed", num(p.seed as f64)),
            ]),
            GraphSpec::RandomMixed(p) => obj([
                ("family", s("random_mixed")),
                ("n", num(p.n as f64)),
                ("p_undirected", num(p.p_undirected)),
                ("p_directed", num(p.p_directed)),
                (
                    "weight_range",
                    Value::Arr(vec![num(p.weight_range.0), num(p.weight_range.1)]),
                ),
                ("seed", num(p.seed as f64)),
            ]),
            GraphSpec::QuantumCircles {
                circles,
                epsilon_dist,
                comparator_seed,
            } => obj([
                ("family", s("quantum_circles")),
                ("circles", obj(circles_fields(circles))),
                ("epsilon_dist", num(*epsilon_dist)),
                ("comparator_seed", num(*comparator_seed as f64)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips() {
        let specs = [
            GraphSpec::Dsbm(DsbmParams {
                n: 77,
                eta_flow: 0.8,
                meta: MetaGraph::Path,
                ..DsbmParams::default()
            }),
            GraphSpec::Circles(CirclesParams {
                n: 90,
                seed: 4,
                ..CirclesParams::default()
            }),
            GraphSpec::Netlist(NetlistParams {
                num_modules: 5,
                ..NetlistParams::default()
            }),
            GraphSpec::RandomMixed(RandomMixedParams {
                weight_range: (0.5, 2.0),
                ..RandomMixedParams::default()
            }),
            GraphSpec::QuantumCircles {
                circles: CirclesParams::default(),
                epsilon_dist: 0.05,
                comparator_seed: 11,
            },
        ];
        for spec in specs {
            let v = spec.to_json();
            let back = GraphSpec::from_json(&v).unwrap();
            assert_eq!(back, spec, "{v}");
            // And through text.
            let reparsed = Value::parse(&v.pretty()).unwrap();
            assert_eq!(GraphSpec::from_json(&reparsed).unwrap(), spec);
        }
    }

    #[test]
    fn unknown_fields_and_families_are_rejected() {
        let bad = Value::parse(r#"{"family": "dsbm", "nn": 100}"#).unwrap();
        let err = GraphSpec::from_json(&bad).unwrap_err();
        assert!(err.message.contains("unknown field `nn`"), "{err}");

        let bad = Value::parse(r#"{"family": "dsbmm"}"#).unwrap();
        assert!(GraphSpec::from_json(&bad).is_err());

        let bad = Value::parse(r#"{"family": "quantum_circles", "circles": {"nn": 1}}"#).unwrap();
        assert!(GraphSpec::from_json(&bad).is_err());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let v = Value::parse(r#"{"family": "dsbm"}"#).unwrap();
        assert_eq!(
            GraphSpec::from_json(&v).unwrap(),
            GraphSpec::Dsbm(DsbmParams::default())
        );
    }

    #[test]
    fn generated_instances_match_direct_generator_calls() {
        let params = DsbmParams {
            n: 50,
            k: 3,
            seed: 9,
            ..DsbmParams::default()
        };
        let via_spec = GraphSpec::Dsbm(params.clone()).generate().unwrap();
        let direct = dsbm(&params).unwrap();
        assert_eq!(via_spec.graph, direct.graph);
        assert_eq!(via_spec.labels, direct.labels);
        assert!(via_spec.points.is_none());
    }

    #[test]
    fn quantum_circles_reports_disagreement_and_seeding() {
        let spec = |epsilon_dist| GraphSpec::QuantumCircles {
            circles: CirclesParams {
                n: 60,
                seed: 3,
                ..CirclesParams::default()
            },
            epsilon_dist,
            comparator_seed: 600,
        };
        let exact = spec(0.0).generate().unwrap();
        assert_eq!(exact.edge_disagreement, Some(0.0));

        let noisy_spec = spec(0.2);
        let noisy = noisy_spec.generate().unwrap();
        assert!(noisy.edge_disagreement.unwrap() > 0.0);
        // The swept seed is the comparator's, not the point cloud's.
        let mut reseeded = noisy_spec.clone();
        reseeded.set_seed(601);
        assert_ne!(
            reseeded.generate().unwrap().graph,
            noisy.graph,
            "comparator seed must change the noisy graph"
        );
        assert_eq!(noisy.labels, exact.labels);
    }
}
