//! The executor endpoint: `POST /v1/exec` runs one wire-encoded circuit
//! request (`qsc_sim::remote`) on a server-hosted backend.
//!
//! The host keeps a cache of built backends keyed by the *normalized*
//! canonical JSON of their config, so a sweep hammering one executor with
//! thousands of calls builds each backend kind exactly once (backends are
//! stateless between calls, which is what makes reuse safe). The cache
//! holds at most `MAX_HOSTED_BACKENDS` configs; a request naming a config
//! past that runs on a fresh, uncached build. Requests without a `backend`
//! field run on the host's default backend (`--backend`).
//!
//! Execution is confined with `catch_unwind`: a panicking request answers
//! `500` and the service keeps serving. The host counts in-flight and
//! completed executions for `GET /v1/healthz`.

use qsc_core::config::BackendConfig;
use qsc_json::{FromJson, ToJson, Value};
use qsc_sim::backend::Backend;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most backend configs the host keeps built. The cache key is caller
/// JSON, so without a bound every distinct noise level a client sends
/// would stay resident.
const MAX_HOSTED_BACKENDS: usize = 64;

/// Why an exec request was not served.
#[derive(Debug)]
pub enum ExecError {
    /// Malformed request (syntax, unknown fields, bad backend config) —
    /// answered `400`.
    BadRequest(String),
    /// The execution panicked — answered `500`.
    Internal(String),
}

/// The hosted-backend registry behind `POST /v1/exec`.
pub struct ExecHost {
    default_config: BackendConfig,
    backends: Mutex<HashMap<String, Arc<dyn Backend>>>,
    inflight: AtomicU64,
    executed: AtomicU64,
}

impl ExecHost {
    /// A host whose requests default to `default_config` when they carry
    /// no `backend` field.
    pub fn new(default_config: BackendConfig) -> ExecHost {
        ExecHost {
            default_config,
            backends: Mutex::new(HashMap::new()),
            inflight: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    /// Config-file kind name of the default hosted backend (healthz).
    pub fn default_kind(&self) -> &'static str {
        self.default_config.kind_name()
    }

    /// Exec requests currently running.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Exec requests completed (successfully or with an in-band
    /// simulation error) since start.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::SeqCst)
    }

    /// Resolves a request's backend config to a built backend, through
    /// the normalized-key cache (bounded by `MAX_HOSTED_BACKENDS`).
    fn resolve(&self, config_v: Option<&Value>) -> Result<Arc<dyn Backend>, ExecError> {
        let config = match config_v {
            None => self.default_config.clone(),
            Some(v) => BackendConfig::from_json(v)
                .map_err(|e| ExecError::BadRequest(format!("invalid backend config: {e}")))?,
        };
        if matches!(config, BackendConfig::Remote { .. }) {
            return Err(ExecError::BadRequest(
                "an executor cannot host a remote backend (no chaining)".into(),
            ));
        }
        let key = config
            .to_json()
            .to_json_canonical()
            .map_err(|e| ExecError::BadRequest(format!("backend config: {e}")))?;
        let mut backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(backend) = backends.get(&key) {
            return Ok(backend.clone());
        }
        let backend = config
            .build()
            .map_err(|e| ExecError::BadRequest(format!("invalid backend config: {e}")))?;
        if backends.len() < MAX_HOSTED_BACKENDS {
            backends.insert(key, backend.clone());
        }
        Ok(backend)
    }

    /// Serves one exec request body, returning the response body.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadRequest`] for malformed documents (the transport
    /// layer answers `400` — the client maps that to a transport error),
    /// [`ExecError::Internal`] when execution panics.
    pub fn execute(&self, body: &str) -> Result<String, ExecError> {
        let request = Value::parse(body)
            .map_err(|e| ExecError::BadRequest(format!("invalid request: {e}")))?;
        let backend = self.resolve(request.get("backend"))?;
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            qsc_sim::remote::execute(&request, backend.as_ref())
        }));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(Ok(response)) => {
                self.executed.fetch_add(1, Ordering::SeqCst);
                response
                    .to_json_canonical()
                    .map_err(|e| ExecError::Internal(format!("response encoding failed: {e}")))
            }
            Ok(Err(e)) => Err(ExecError::BadRequest(format!("invalid request: {e}"))),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "execution panicked".into());
                Err(ExecError::Internal(format!(
                    "execution panicked: {message}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz;
    use qsc_linalg::CMatrix;
    use qsc_sim::remote::{circuit_to_json, rng_to_json};
    use qsc_sim::{Circuit, Op};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_request(backend: Option<&str>) -> String {
        let rng = StdRng::seed_from_u64(1);
        let mut circuit = Circuit::new(2);
        circuit.push(Op::H(0)).unwrap();
        circuit
            .push(Op::Cnot {
                control: 0,
                target: 1,
            })
            .unwrap();
        let mut fields = vec![
            ("op".to_string(), Value::Str("run".into())),
            ("circuit".to_string(), circuit_to_json(&circuit)),
            (
                "basis".to_string(),
                Value::Obj(vec![
                    ("num_qubits".into(), Value::Num(2.0)),
                    ("index".into(), Value::Num(0.0)),
                ]),
            ),
            ("rng".to_string(), rng_to_json(&rng)),
        ];
        if let Some(b) = backend {
            fields.push(("backend".to_string(), Value::parse(b).unwrap()));
        }
        Value::Obj(fields).to_json_canonical().unwrap()
    }

    #[test]
    fn serves_a_run_request_and_counts_it() {
        let host = ExecHost::new(BackendConfig::default());
        assert_eq!(host.executed(), 0);
        let response = host.execute(&bell_request(None)).unwrap();
        let doc = Value::parse(&response).unwrap();
        assert!(doc.get("amplitudes").is_some(), "{response}");
        assert_eq!(host.executed(), 1);
        assert_eq!(host.inflight(), 0);
    }

    #[test]
    fn caches_backends_by_normalized_config() {
        let host = ExecHost::new(BackendConfig::default());
        host.execute(&bell_request(Some("\"statevector\"")))
            .unwrap();
        host.execute(&bell_request(Some("\"statevector\"")))
            .unwrap();
        host.execute(&bell_request(Some(
            r#"{"noisy": {"depolarizing": 0.1, "readout_flip": 0.0}}"#,
        )))
        .unwrap();
        let backends = host.backends.lock().unwrap();
        assert_eq!(backends.len(), 2, "one build per distinct config");
    }

    #[test]
    fn backend_cache_stops_growing_at_its_bound() {
        let host = ExecHost::new(BackendConfig::default());
        for i in 0..2 * MAX_HOSTED_BACKENDS {
            let config = format!(r#"{{"noisy": {{"depolarizing": {}}}}}"#, i as f64 / 1000.0);
            let response = host.execute(&bell_request(Some(&config))).unwrap();
            assert!(response.contains("\"amplitudes\""), "{response}");
            let cached = host.backends.lock().unwrap().len();
            assert!(cached <= MAX_HOSTED_BACKENDS, "{cached} cached backends");
        }
        assert_eq!(host.executed(), 2 * MAX_HOSTED_BACKENDS as u64);
        assert_eq!(host.backends.lock().unwrap().len(), MAX_HOSTED_BACKENDS);
    }

    #[test]
    fn rejects_malformed_bodies_and_chained_remotes() {
        let host = ExecHost::new(BackendConfig::default());
        assert!(matches!(
            host.execute("{not json"),
            Err(ExecError::BadRequest(_))
        ));
        assert!(matches!(
            host.execute(&bell_request(Some("\"statevctor\""))),
            Err(ExecError::BadRequest(_))
        ));
        let Err(ExecError::BadRequest(message)) =
            host.execute(&bell_request(Some("\"fused_statevector\"")))
        else {
            panic!("a retired backend kind must be a bad request");
        };
        assert!(message.contains("unknown backend"), "{message}");
        for kind in ["statevector", "noisy", "density", "shots", "remote"] {
            assert!(message.contains(kind), "{message} lists {kind}");
        }
        let chained = bell_request(Some(
            r#"{"remote": {"addr": "x:1", "inner": "statevector"}}"#,
        ));
        let err = host.execute(&chained).unwrap_err();
        let ExecError::BadRequest(message) = err else {
            panic!("expected BadRequest");
        };
        assert!(message.contains("chaining"), "{message}");
    }

    /// Valid exec requests: every op, both state forms, every hosted
    /// backend kind, and a circuit covering every op variant.
    fn fuzz_corpus() -> Vec<Value> {
        use std::sync::Arc;

        let mut circuit = Circuit::new(3);
        let h = qsc_sim::gates::h();
        let ops = [
            Op::H(0),
            Op::Cnot {
                control: 0,
                target: 1,
            },
            Op::Phase {
                target: 2,
                theta: 0.7,
            },
            Op::Gate1 {
                target: 1,
                matrix: h,
            },
            Op::BlockUnitary {
                control: Some(2),
                matrix: Arc::new(CMatrix::from_rows(&[h[0].to_vec(), h[1].to_vec()]).unwrap()),
            },
            Op::PhaseCascade {
                block_qubits: 1,
                phases: Arc::new(vec![0.1, 0.4]),
                sign: 1.0,
            },
            Op::Swap(0, 2),
        ];
        for op in ops {
            circuit.push(op).unwrap();
        }
        let rng = rng_to_json(&StdRng::seed_from_u64(9));
        let basis = Value::parse(r#"{"num_qubits": 3, "index": 5}"#).unwrap();
        // An evolved (non-basis) state, in wire form.
        let run = Value::Obj(vec![
            ("op".into(), Value::Str("run".into())),
            ("circuit".into(), circuit_to_json(&circuit)),
            ("basis".into(), basis.clone()),
            ("rng".into(), rng.clone()),
        ]);
        let response = qsc_sim::remote::execute(&run, &qsc_sim::Statevector::new()).unwrap();
        let amps = response.get("amplitudes").unwrap().clone();
        let backends = [
            r#""statevector""#,
            r#"{"noisy": {"depolarizing": 0.05, "readout_flip": 0.02}}"#,
            r#"{"density": {"depolarizing": 0.05, "readout_flip": 0.01}}"#,
            r#"{"shots": 64}"#,
        ];
        let mut corpus = Vec::new();
        for backend in backends {
            let backend = Value::parse(backend).unwrap();
            let with = |fields: Vec<(&str, Value)>| {
                let mut fields: Vec<(String, Value)> = fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                fields.push(("rng".into(), rng.clone()));
                fields.push(("backend".into(), backend.clone()));
                Value::Obj(fields)
            };
            corpus.push(with(vec![
                ("op", Value::Str("run".into())),
                ("circuit", circuit_to_json(&circuit)),
                ("basis", basis.clone()),
            ]));
            corpus.push(with(vec![
                ("op", Value::Str("run".into())),
                ("circuit", circuit_to_json(&circuit)),
                ("amplitudes", amps.clone()),
            ]));
            corpus.push(with(vec![
                ("op", Value::Str("sample".into())),
                ("shots", Value::Num(100.0)),
                ("amplitudes", amps.clone()),
            ]));
            corpus.push(with(vec![
                ("op", Value::Str("phase_distribution".into())),
                ("phi", Value::Num(0.3)),
                ("t", Value::Num(4.0)),
            ]));
            corpus.push(with(vec![
                ("op", Value::Str("estimate_probability".into())),
                ("p", Value::Num(0.25)),
            ]));
        }
        corpus
    }

    /// Op and backend names, one of them misspelt, for the name swaps of
    /// [`fuzz::mutate`].
    const EXEC_NAMES: [&str; 7] = [
        "run",
        "sample",
        "phase_distribution",
        "estimate_probability",
        "statevector",
        "statevctor",
        "noisy",
    ];

    /// Mutated exec requests reach `BackendConfig::from_json`, the build
    /// and `remote::execute` the way an executor serves them, and must come
    /// back as a response or a typed error: no panic, so the host's
    /// `catch_unwind` net never fires. Shot counts reach 2^53 and 1e300:
    /// past the per-request cap they are typed errors, not long loops.
    #[test]
    fn mutated_exec_requests_yield_responses_or_typed_errors_only() {
        let corpus = fuzz_corpus();
        let mut state = 0x4558_4543u64;
        for case in 0..20000 {
            let mut doc = corpus[case % corpus.len()].clone();
            for _ in 0..1 + fuzz::splitmix(&mut state) % 4 {
                fuzz::mutate(&mut doc, &mut state, &EXEC_NAMES);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let config = match doc.get("backend").map(BackendConfig::from_json) {
                    None => BackendConfig::default(),
                    Some(Ok(config)) => config,
                    Some(Err(_)) => return,
                };
                if matches!(config, BackendConfig::Remote { .. }) {
                    return;
                }
                if let Ok(backend) = config.build() {
                    let _ = qsc_sim::remote::execute(&doc, backend.as_ref());
                }
            }));
            assert!(outcome.is_ok(), "case {case} panicked on {doc}");
        }
    }
}
