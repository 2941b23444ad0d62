//! Pipeline configuration: per-stage configs consumed by
//! [`Pipeline`](crate::Pipeline) and every precision parameter of the
//! quantum simulation.
//!
//! The staged pipeline splits a run's knobs by the stage they drive:
//!
//! * [`LaplacianConfig`] — graph → Hermitian Laplacian (rotation `q`,
//!   optional symmetrization),
//! * [`EmbeddingConfig`] — Laplacian → spectral embedding (`k`, row
//!   normalization),
//! * [`ClusteringConfig`] — embedding → labels (restarts, iteration budget,
//!   tolerance).
//!
//! (The pre-0.3 flat `SpectralConfig` bundle and its `split()` are gone;
//! every consumer configures the stages directly.)
//!
//! [`BackendConfig`] and [`QuantumParams`] additionally serialize through
//! `qsc-json` ([`ToJson`] / [`FromJson`] with unknown-field rejection) —
//! they are the parts of a pipeline recipe that experiment spec files
//! embed.

use qsc_graph::Q_CLASSICAL;
use qsc_json::{num, obj, FromJson, JsonError, ToJson, Value};
use qsc_sim::backend::{Backend, NoisyStatevector, ShotSampler, Statevector};
use qsc_sim::{DensityMatrix, RemoteBackend, ShardedStatevector};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the Laplacian-construction stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaplacianConfig {
    /// Hermitian rotation parameter `q` (`0` = direction-blind,
    /// [`Q_CLASSICAL`] = the `±i` encoding).
    pub q: f64,
    /// Symmetrize the graph first (arcs become undirected edges) — the
    /// direction-blind baseline. Forces the effective encoding to ignore
    /// arc orientation regardless of `q`.
    pub symmetrize: bool,
}

impl Default for LaplacianConfig {
    fn default() -> Self {
        Self {
            q: Q_CLASSICAL,
            symmetrize: false,
        }
    }
}

/// Configuration of the spectral-embedding stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Number of clusters `k` (and baseline embedding dimension).
    pub k: usize,
    /// Row-normalize the spectral embedding (Ng–Jordan–Weiss style) before
    /// clustering.
    pub normalize_rows: bool,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        Self {
            k: 2,
            normalize_rows: false,
        }
    }
}

/// Configuration of the clustering stage shared by every
/// [`Clusterer`](qsc_cluster::Clusterer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusteringConfig {
    /// Independent restarts; the lowest-inertia run wins.
    pub restarts: usize,
    /// Lloyd iteration budget per restart.
    pub max_iter: usize,
    /// Convergence threshold on total centroid movement.
    pub tol: f64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        Self {
            restarts: 8,
            max_iter: 100,
            tol: 1e-9,
        }
    }
}

/// Config-file form of the execution backend the quantum stages run on —
/// the serializable counterpart of the
/// [`Pipeline::backend`](crate::Pipeline::backend) builder call, consumed
/// by [`Pipeline::backend_config`](crate::Pipeline::backend_config).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum BackendConfig {
    /// Exact, noiseless state-vector execution (the default).
    #[default]
    Statevector,
    /// Statevector execution with the gate-fusion compile pass enabled.
    FusedStatevector,
    /// Exact execution sharded over the worker pool by high-qubit blocks
    /// (bit-identical amplitudes to `Statevector`).
    Sharded {
        /// Shard count (a power of two); `None` sizes the shards to the
        /// worker pool.
        shards: Option<usize>,
    },
    /// Depolarizing + readout-error statevector simulation (seeded
    /// Monte-Carlo trajectories).
    Noisy {
        /// Per-gate, per-qubit depolarizing probability.
        depolarizing: f64,
        /// Per-bit readout flip probability.
        readout_flip: f64,
    },
    /// The same noise channels applied **exactly** on the density matrix
    /// (Kraus operators, no trajectory variance; `O(4^n)` memory).
    Density {
        /// Per-gate, per-qubit depolarizing probability.
        depolarizing: f64,
        /// Per-bit readout flip probability.
        readout_flip: f64,
    },
    /// Finite-shot measurement statistics replacing exact probabilities.
    Shots {
        /// Shots behind every probability estimate.
        shots: usize,
    },
    /// Execution delegated to a remote executor service hosting the
    /// `inner` backend (`qsc-serve --backend …`). Results — including
    /// seeded trajectory noise — are bit-identical to running `inner`
    /// in-process; transport failures surface as retryable errors that
    /// never perturb the seed.
    Remote {
        /// Executor address, `host:port`.
        addr: String,
        /// The backend the executor hosts (must not itself be remote).
        inner: Box<BackendConfig>,
    },
}

impl BackendConfig {
    /// The config-file name of this backend kind (the JSON tag).
    pub fn kind_name(&self) -> &'static str {
        match self {
            BackendConfig::Statevector => "statevector",
            BackendConfig::FusedStatevector => "fused_statevector",
            BackendConfig::Sharded { .. } => "sharded",
            BackendConfig::Noisy { .. } => "noisy",
            BackendConfig::Density { .. } => "density",
            BackendConfig::Shots { .. } => "shots",
            BackendConfig::Remote { .. } => "remote",
        }
    }

    /// The kernel tier every backend built from this config executes on
    /// (`scalar` | `portable` | `avx2`) — process-wide runtime dispatch,
    /// overridable via `QSC_KERNELS`. Reported so served sweeps record
    /// which tier produced their bytes; the tiers are bit-identical, so
    /// the field is provenance, not a result discriminator.
    pub fn kernels_tier() -> &'static str {
        qsc_linalg::kernels::active().name()
    }

    /// Instantiates the configured backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`](crate::Error::InvalidRequest) for
    /// out-of-range parameters (noise probabilities outside `[0, 1]`, a
    /// zero shot budget) — config files are deserialized unvalidated, so
    /// the range checks surface here as typed errors rather than panics.
    pub fn build(&self) -> Result<Arc<dyn Backend>, crate::error::Error> {
        let check_noise = |depolarizing: f64, readout_flip: f64| {
            if !(0.0..=1.0).contains(&depolarizing) || !(0.0..=1.0).contains(&readout_flip) {
                return Err(crate::error::Error::InvalidRequest {
                    context: format!(
                        "noise probabilities must lie in [0, 1], got depolarizing = \
                         {depolarizing}, readout_flip = {readout_flip}"
                    ),
                });
            }
            Ok(())
        };
        match *self {
            BackendConfig::Statevector => Ok(Arc::new(Statevector::new())),
            BackendConfig::FusedStatevector => Ok(Arc::new(Statevector::fused())),
            BackendConfig::Sharded { shards } => match shards {
                None => Ok(Arc::new(ShardedStatevector::new())),
                Some(s) => {
                    if s == 0 || !s.is_power_of_two() {
                        return Err(crate::error::Error::InvalidRequest {
                            context: format!("shard count must be a power of two, got {s}"),
                        });
                    }
                    Ok(Arc::new(ShardedStatevector::with_shards(s)))
                }
            },
            BackendConfig::Noisy {
                depolarizing,
                readout_flip,
            } => {
                check_noise(depolarizing, readout_flip)?;
                Ok(Arc::new(NoisyStatevector::new(depolarizing, readout_flip)))
            }
            BackendConfig::Density {
                depolarizing,
                readout_flip,
            } => {
                check_noise(depolarizing, readout_flip)?;
                Ok(Arc::new(DensityMatrix::new(depolarizing, readout_flip)))
            }
            BackendConfig::Shots { shots } => {
                if shots == 0 {
                    return Err(crate::error::Error::InvalidRequest {
                        context: "shot sampler needs a positive shot budget".into(),
                    });
                }
                Ok(Arc::new(ShotSampler::new(shots)))
            }
            BackendConfig::Remote {
                ref addr,
                ref inner,
            } => {
                if matches!(**inner, BackendConfig::Remote { .. }) {
                    return Err(crate::error::Error::InvalidRequest {
                        context: "a remote backend cannot host another remote backend".into(),
                    });
                }
                // Building the inner backend locally validates its
                // parameters up front and exposes the trait surface
                // (exactness, purity, register limit) the remote proxy
                // must mirror; the instance itself is discarded —
                // construction is allocation-free for every kind.
                let hosted = inner.build()?;
                Ok(Arc::new(
                    RemoteBackend::new(addr.clone(), inner.to_json()).with_traits(
                        hosted.exact_statistics(),
                        hosted.pure_state(),
                        hosted.phase_register_limit(),
                    ),
                ))
            }
        }
    }
}

impl ToJson for BackendConfig {
    fn to_json(&self) -> Value {
        let noise_obj = |depolarizing: f64, readout_flip: f64| {
            obj([
                ("depolarizing", num(depolarizing)),
                ("readout_flip", num(readout_flip)),
            ])
        };
        match self {
            BackendConfig::Statevector => Value::Str("statevector".into()),
            BackendConfig::FusedStatevector => Value::Str("fused_statevector".into()),
            BackendConfig::Sharded { shards: None } => Value::Str("sharded".into()),
            BackendConfig::Sharded { shards: Some(s) } => {
                obj([("sharded", obj([("shards", num(*s as f64))]))])
            }
            BackendConfig::Noisy {
                depolarizing,
                readout_flip,
            } => obj([("noisy", noise_obj(*depolarizing, *readout_flip))]),
            BackendConfig::Density {
                depolarizing,
                readout_flip,
            } => obj([("density", noise_obj(*depolarizing, *readout_flip))]),
            BackendConfig::Shots { shots } => obj([("shots", num(*shots as f64))]),
            BackendConfig::Remote { addr, inner } => obj([(
                "remote",
                obj([
                    ("addr", Value::Str(addr.clone())),
                    ("inner", inner.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for BackendConfig {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let noise_fields = |v: &Value, context: &str| -> Result<(f64, f64), JsonError> {
            let mut nr = v.reader(context)?;
            let pair = (
                nr.f64_or("depolarizing", 0.0)?,
                nr.f64_or("readout_flip", 0.0)?,
            );
            nr.finish()?;
            Ok(pair)
        };
        match value {
            Value::Str(name) => match name.as_str() {
                "statevector" => Ok(BackendConfig::Statevector),
                "fused_statevector" => Ok(BackendConfig::FusedStatevector),
                "sharded" => Ok(BackendConfig::Sharded { shards: None }),
                other => Err(JsonError::msg(format!(
                    "backend: unknown backend `{other}` (expected statevector | \
                     fused_statevector | sharded | {{\"sharded\": …}} | {{\"noisy\": …}} | \
                     {{\"density\": …}} | {{\"shots\": …}})"
                ))),
            },
            Value::Obj(_) => {
                let mut r = value.reader("backend")?;
                let config = if let Some(noisy) = r.take("noisy") {
                    let (depolarizing, readout_flip) = noise_fields(noisy, "backend.noisy")?;
                    BackendConfig::Noisy {
                        depolarizing,
                        readout_flip,
                    }
                } else if let Some(density) = r.take("density") {
                    let (depolarizing, readout_flip) = noise_fields(density, "backend.density")?;
                    BackendConfig::Density {
                        depolarizing,
                        readout_flip,
                    }
                } else if let Some(sharded) = r.take("sharded") {
                    let mut sr = sharded.reader("backend.sharded")?;
                    let config = BackendConfig::Sharded {
                        shards: sr.opt_usize("shards")?,
                    };
                    sr.finish()?;
                    config
                } else if let Some(shots) = r.take("shots") {
                    BackendConfig::Shots {
                        shots: shots.as_usize().ok_or_else(|| {
                            JsonError::msg("backend.shots: expected a positive integer")
                        })?,
                    }
                } else if let Some(remote) = r.take("remote") {
                    let mut rr = remote.reader("backend.remote")?;
                    let addr = rr.req_str("addr")?.to_string();
                    let inner = BackendConfig::from_json(rr.required("inner")?)?;
                    rr.finish()?;
                    if matches!(inner, BackendConfig::Remote { .. }) {
                        return Err(JsonError::msg(
                            "backend.remote.inner: a remote backend cannot nest another \
                             remote backend",
                        ));
                    }
                    BackendConfig::Remote {
                        addr,
                        inner: Box::new(inner),
                    }
                } else {
                    return Err(JsonError::msg(
                        "backend: expected a `sharded`, `noisy`, `density`, `shots` or \
                         `remote` variant",
                    ));
                };
                r.finish()?;
                Ok(config)
            }
            other => Err(JsonError::msg(format!(
                "backend: expected a string or object, found {}",
                other.type_name()
            ))),
        }
    }
}

/// Precision parameters of the simulated quantum pipeline. Field names
/// mirror the paper's runtime analysis; `docs/SPECS.md` lists their
/// defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantumParams {
    /// Phase-register bits `t` of the QPE; eigenvalue resolution is
    /// `qpe_scale / 2^t` (this realizes `ε_λ`).
    pub qpe_bits: usize,
    /// Eigenvalue-to-phase scale of the QPE unitary `U = e^{i·2π·𝓛/scale}`;
    /// must exceed the largest eigenvalue (2 for the normalized Laplacian).
    pub qpe_scale: f64,
    /// Shots per row for the tomography readout of the spectral embedding.
    pub tomography_shots: usize,
    /// Amplitude-estimation iterations for row-norm recovery.
    pub norm_estimation_iters: usize,
    /// q-means noise magnitude `δ`.
    pub delta: f64,
    /// Precision of the quantum distance estimation building the graph
    /// (`ε_dist`); enters the cost model. For point-cloud inputs the same
    /// parameter drives the noisy comparator of
    /// `qsc_graph::similarity::quantum_similarity_graph`.
    pub epsilon_dist: f64,
    /// Zero-substitute in the normalized incidence matrix (`ε_B`); enters
    /// the cost model.
    pub epsilon_b: f64,
    /// Cap on the number of spectral dimensions the QPE thresholding may
    /// select, as a multiple of `k` (bin collisions can pull in extra
    /// eigenvectors; this bounds the blow-up).
    pub max_dims_factor: usize,
}

impl Default for QuantumParams {
    fn default() -> Self {
        Self {
            qpe_bits: 6,
            qpe_scale: 4.0,
            tomography_shots: 4096,
            norm_estimation_iters: 256,
            delta: 0.2,
            epsilon_dist: 0.1,
            epsilon_b: 0.1,
            max_dims_factor: 3,
        }
    }
}

impl QuantumParams {
    /// The eigenvalue resolution `ε_λ = qpe_scale / 2^qpe_bits` this
    /// parameter set realizes.
    pub fn epsilon_lambda(&self) -> f64 {
        self.qpe_scale / (1u64 << self.qpe_bits) as f64
    }
}

impl ToJson for QuantumParams {
    fn to_json(&self) -> Value {
        obj([
            ("qpe_bits", num(self.qpe_bits as f64)),
            ("qpe_scale", num(self.qpe_scale)),
            ("tomography_shots", num(self.tomography_shots as f64)),
            (
                "norm_estimation_iters",
                num(self.norm_estimation_iters as f64),
            ),
            ("delta", num(self.delta)),
            ("epsilon_dist", num(self.epsilon_dist)),
            ("epsilon_b", num(self.epsilon_b)),
            ("max_dims_factor", num(self.max_dims_factor as f64)),
        ])
    }
}

impl FromJson for QuantumParams {
    /// Decodes quantum parameters; missing fields take the defaults of
    /// [`QuantumParams::default`], unknown fields are rejected.
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let d = QuantumParams::default();
        let mut r = value.reader("quantum")?;
        let params = QuantumParams {
            qpe_bits: r.usize_or("qpe_bits", d.qpe_bits)?,
            qpe_scale: r.f64_or("qpe_scale", d.qpe_scale)?,
            tomography_shots: r.usize_or("tomography_shots", d.tomography_shots)?,
            norm_estimation_iters: r.usize_or("norm_estimation_iters", d.norm_estimation_iters)?,
            delta: r.f64_or("delta", d.delta)?,
            epsilon_dist: r.f64_or("epsilon_dist", d.epsilon_dist)?,
            epsilon_b: r.f64_or("epsilon_b", d.epsilon_b)?,
            max_dims_factor: r.usize_or("max_dims_factor", d.max_dims_factor)?,
        };
        r.finish()?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let lap = LaplacianConfig::default();
        assert_eq!(lap.q, Q_CLASSICAL);
        assert!(!lap.symmetrize);
        assert!(ClusteringConfig::default().restarts > 0);
        let q = QuantumParams::default();
        assert!(q.qpe_scale > 2.0, "scale must clear the [0,2] spectrum");
        assert!(q.epsilon_lambda() > 0.0);
    }

    #[test]
    fn epsilon_lambda_halves_per_bit() {
        let mut q = QuantumParams {
            qpe_bits: 3,
            ..QuantumParams::default()
        };
        let e3 = q.epsilon_lambda();
        q.qpe_bits = 4;
        assert!((q.epsilon_lambda() - e3 / 2.0).abs() < 1e-15);
    }

    #[test]
    fn backend_config_json_round_trips() {
        let configs = [
            BackendConfig::Statevector,
            BackendConfig::FusedStatevector,
            BackendConfig::Sharded { shards: None },
            BackendConfig::Sharded { shards: Some(4) },
            BackendConfig::Noisy {
                depolarizing: 0.05,
                readout_flip: 0.01,
            },
            BackendConfig::Density {
                depolarizing: 0.05,
                readout_flip: 0.01,
            },
            BackendConfig::Shots { shots: 1024 },
        ];
        for config in configs {
            let v = config.to_json();
            assert_eq!(BackendConfig::from_json(&v).unwrap(), config, "{v}");
            let reparsed = Value::parse(&v.to_string()).unwrap();
            assert_eq!(BackendConfig::from_json(&reparsed).unwrap(), config);
        }
    }

    #[test]
    fn backend_config_json_rejects_unknowns() {
        for bad in [
            r#""statevctor""#,
            r#"{"noisy": {"depolarizing": 0.1, "readout": 0.0}}"#,
            r#"{"density": {"depolarizing": 0.1, "readout": 0.0}}"#,
            r#"{"sharded": {"shard": 4}}"#,
            r#"{"shots": 16, "extra": 1}"#,
            r#"{"unknown_variant": {}}"#,
            "3",
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(BackendConfig::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn remote_backend_config_round_trips_and_rejects_nesting() {
        let config = BackendConfig::Remote {
            addr: "127.0.0.1:8791".into(),
            inner: Box::new(BackendConfig::Noisy {
                depolarizing: 0.05,
                readout_flip: 0.01,
            }),
        };
        let v = config.to_json();
        assert_eq!(BackendConfig::from_json(&v).unwrap(), config, "{v}");
        let reparsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(BackendConfig::from_json(&reparsed).unwrap(), config);

        let nested = Value::parse(
            r#"{"remote": {"addr": "a:1", "inner": {"remote": {"addr": "b:2", "inner": "statevector"}}}}"#,
        )
        .unwrap();
        assert!(BackendConfig::from_json(&nested).is_err());
        let missing_inner = Value::parse(r#"{"remote": {"addr": "a:1"}}"#).unwrap();
        assert!(BackendConfig::from_json(&missing_inner).is_err());
    }

    #[test]
    fn remote_backend_config_builds_and_mirrors_inner_traits() {
        let remote = |inner: BackendConfig| BackendConfig::Remote {
            addr: "127.0.0.1:1".into(),
            inner: Box::new(inner),
        };
        let exact = remote(BackendConfig::Statevector).build().unwrap();
        assert_eq!(exact.name(), "remote");
        assert!(exact.exact_statistics() && exact.pure_state());
        let noisy = remote(BackendConfig::Noisy {
            depolarizing: 0.1,
            readout_flip: 0.0,
        })
        .build()
        .unwrap();
        assert!(!noisy.exact_statistics());
        let density = remote(BackendConfig::Density {
            depolarizing: 0.1,
            readout_flip: 0.0,
        })
        .build()
        .unwrap();
        assert!(!density.pure_state());
        assert!(density.phase_register_limit().is_some());

        // Invalid inner parameters fail at build, before any connection.
        assert!(remote(BackendConfig::Shots { shots: 0 }).build().is_err());
        let nested = BackendConfig::Remote {
            addr: "a:1".into(),
            inner: Box::new(remote(BackendConfig::Statevector)),
        };
        assert!(nested.build().is_err());
    }

    #[test]
    fn quantum_params_json_round_trips_with_defaults() {
        let v = Value::parse(r#"{"qpe_bits": 4, "delta": 0.5}"#).unwrap();
        let params = QuantumParams::from_json(&v).unwrap();
        assert_eq!(params.qpe_bits, 4);
        assert_eq!(params.delta, 0.5);
        assert_eq!(
            params.tomography_shots,
            QuantumParams::default().tomography_shots
        );
        let back = QuantumParams::from_json(&params.to_json()).unwrap();
        assert_eq!(back, params);

        let bad = Value::parse(r#"{"qpe_bitss": 4}"#).unwrap();
        assert!(QuantumParams::from_json(&bad).is_err());
    }

    #[test]
    fn backend_config_builds_named_backends() {
        let name = |cfg: BackendConfig| cfg.build().expect("valid config").name();
        assert_eq!(name(BackendConfig::default()), "statevector");
        assert_eq!(name(BackendConfig::FusedStatevector), "statevector_fused");
        assert_eq!(
            name(BackendConfig::Sharded { shards: Some(2) }),
            "sharded_statevector"
        );
        assert_eq!(
            name(BackendConfig::Sharded { shards: None }),
            "sharded_statevector"
        );
        assert_eq!(
            name(BackendConfig::Noisy {
                depolarizing: 0.1,
                readout_flip: 0.0
            }),
            "noisy_statevector"
        );
        assert_eq!(
            name(BackendConfig::Density {
                depolarizing: 0.1,
                readout_flip: 0.0
            }),
            "density_matrix"
        );
        assert_eq!(name(BackendConfig::Shots { shots: 16 }), "shot_sampler");
    }

    #[test]
    fn backend_config_rejects_out_of_range_values() {
        assert!(BackendConfig::Shots { shots: 0 }.build().is_err());
        assert!(BackendConfig::Sharded { shards: Some(3) }.build().is_err());
        assert!(BackendConfig::Sharded { shards: Some(0) }.build().is_err());
        assert!(BackendConfig::Noisy {
            depolarizing: -0.1,
            readout_flip: 0.0
        }
        .build()
        .is_err());
        assert!(BackendConfig::Noisy {
            depolarizing: 0.0,
            readout_flip: 2.0
        }
        .build()
        .is_err());
        assert!(BackendConfig::Density {
            depolarizing: 1.5,
            readout_flip: 0.0
        }
        .build()
        .is_err());
    }
}
