//! The fault-tolerant execution layer: failure classification, per-instance
//! error reports, and the [`ResiliencePolicy`] that configures retries,
//! deadlines, memory budgets, backend fallback chains and deterministic
//! fault injection.
//!
//! The policy is consumed by the batch runner
//! [`Pipeline::run_many`](crate::Pipeline::run_many), which catches
//! per-instance panics on the worker pool and converts every failure —
//! panic or typed error — into an [`InstanceError`] instead of poisoning
//! the whole batch. The single-graph calls
//! ([`Pipeline::run`](crate::Pipeline::run),
//! [`Pipeline::embed`](crate::Pipeline::embed),
//! [`Pipeline::cluster`](crate::Pipeline::cluster)) are untouched by the
//! policy: same results, same error propagation, bit for bit.
//!
//! Policies serialize through `qsc-json` as the spec-file `"resilience"`
//! block (see `docs/RESILIENCE.md` for the schema and a worked example):
//!
//! ```text
//! "resilience": {
//!   "retries": 2,
//!   "deadline_ms": 60000,
//!   "state_budget_bytes": 1073741824,
//!   "fallbacks": [{"noisy": {"depolarizing": 0.05}}],
//!   "fault_plan": {"seed": 7, "rates": {"task_start": 0.1}}
//! }
//! ```

use crate::config::BackendConfig;
use crate::error::Error;
use qsc_fault::{FaultPlan, FaultPoint};
use qsc_json::{num, obj, FromJson, JsonError, ToJson, Value};
use qsc_linalg::LinalgError;
use qsc_sim::SimError;
use std::fmt;

/// Per-instance results of a batch run: each instance is either
/// its outcome or the typed failure that exhausted the resilience policy.
/// Instance order matches the input batch.
pub type BatchOutcome<T> = Vec<Result<T, InstanceError>>;

/// Coarse classification of a failed pipeline instance — the field the
/// retry/fallback logic dispatches on and the label failed sweep cells
/// carry in tables and CSVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The instance panicked (caught on the worker pool).
    Panic,
    /// An iterative eigensolver gave up
    /// ([`LinalgError::NoConvergence`]).
    NonConvergence,
    /// A pre-allocation memory estimate exceeded the budget
    /// ([`SimError::BudgetExceeded`]).
    Budget,
    /// A numerical guard tripped: NaN/∞ in an embedding or state-norm
    /// drift ([`SimError::NormDrift`]).
    NonFinite,
    /// The [`ResiliencePolicy::deadline_ms`] wall-clock deadline passed
    /// before any attempt succeeded.
    Deadline,
    /// The request itself is inconsistent
    /// ([`Error::InvalidRequest`]) — never retried.
    Invalid,
    /// Any other typed pipeline error.
    Other,
}

impl FailureKind {
    /// Stable short name, used in failed-cell labels and CSVs.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::NonConvergence => "non_convergence",
            FailureKind::Budget => "budget",
            FailureKind::NonFinite => "numeric",
            FailureKind::Deadline => "deadline",
            FailureKind::Invalid => "invalid",
            FailureKind::Other => "error",
        }
    }

    /// Classifies a typed pipeline error.
    pub fn classify(e: &Error) -> FailureKind {
        match e {
            Error::Linalg(LinalgError::NoConvergence { .. }) => FailureKind::NonConvergence,
            Error::Sim(SimError::BudgetExceeded { .. }) => FailureKind::Budget,
            Error::Sim(SimError::NormDrift { .. }) => FailureKind::NonFinite,
            Error::NonFinite { .. } => FailureKind::NonFinite,
            Error::InvalidRequest { .. } => FailureKind::Invalid,
            _ => FailureKind::Other,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The failure report of one batch instance after the resilience policy
/// was exhausted: what kind of failure, the last error message, and how
/// many attempts were made.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceError {
    /// Classification of the final failure.
    pub kind: FailureKind,
    /// Message of the final failure (a typed error's `Display` or a panic
    /// payload).
    pub message: String,
    /// Total pipeline attempts made (including backend fallbacks).
    pub attempts: usize,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} attempt{}: {}",
            self.kind.name(),
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for InstanceError {}

/// Configurable fault tolerance for the isolated batch runners: retry
/// counts, a wall-clock deadline, a state-memory budget, a backend
/// fallback chain and a deterministic fault-injection plan.
///
/// The default policy does nothing: no retries, no deadline, the global
/// state budget, no fallbacks, no injected faults.
///
/// Attached with [`Pipeline::resilience`](crate::Pipeline::resilience);
/// serialized in experiment specs as the `"resilience"` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResiliencePolicy {
    /// Re-runs granted after a retryable failure (panic, non-convergence,
    /// numerical guard); each retry perturbs the instance seed so
    /// trajectory backends take a fresh sample path. `0` = fail fast.
    pub retries: usize,
    /// Wall-clock deadline per instance in milliseconds; when it passes
    /// between attempts the instance fails with
    /// [`FailureKind::Deadline`]. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Per-allocation state-memory budget in bytes, threaded to the
    /// quantum stages through
    /// [`StageContext`](crate::StageContext); `None` = the global budget
    /// of [`qsc_sim::budget`].
    pub state_budget_bytes: Option<u64>,
    /// Backends tried in order when an attempt fails with
    /// [`FailureKind::Budget`] — graceful degradation (e.g. `DensityMatrix`
    /// past its 13-qubit cap falls back to `NoisyStatevector`).
    pub fallbacks: Vec<BackendConfig>,
    /// Deterministic fault-injection plan, active only under the isolated
    /// runners. `None` = no injected faults.
    pub fault_plan: Option<FaultPlan>,
}

impl ResiliencePolicy {
    /// `true` when this policy changes nothing over the default behavior.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

impl ToJson for ResiliencePolicy {
    fn to_json(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        if self.retries != 0 {
            fields.push(("retries".into(), num(self.retries as f64)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), num(ms as f64)));
        }
        if let Some(bytes) = self.state_budget_bytes {
            fields.push(("state_budget_bytes".into(), num(bytes as f64)));
        }
        if !self.fallbacks.is_empty() {
            fields.push((
                "fallbacks".into(),
                Value::Arr(self.fallbacks.iter().map(ToJson::to_json).collect()),
            ));
        }
        if let Some(plan) = &self.fault_plan {
            let mut rates: Vec<(String, Value)> = Vec::new();
            for point in FaultPoint::ALL {
                let rate = plan.rate(point);
                if rate > 0.0 {
                    rates.push((point.name().into(), num(rate)));
                }
            }
            fields.push((
                "fault_plan".into(),
                obj([
                    ("seed", num(plan.seed as f64)),
                    ("rates", Value::Obj(rates)),
                ]),
            ));
        }
        Value::Obj(fields)
    }
}

impl FromJson for ResiliencePolicy {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("resilience")?;
        let mut policy = ResiliencePolicy {
            retries: r.usize_or("retries", 0)?,
            deadline_ms: r
                .take("deadline_ms")
                .map(|v| v.as_u64())
                .map(|v| {
                    v.ok_or_else(|| {
                        JsonError::msg("resilience.deadline_ms: expected a non-negative integer")
                    })
                })
                .transpose()?,
            state_budget_bytes: None,
            fallbacks: Vec::new(),
            fault_plan: None,
        };
        if let Some(v) = r.take("state_budget_bytes") {
            policy.state_budget_bytes = Some(v.as_u64().ok_or_else(|| {
                JsonError::msg("resilience.state_budget_bytes: expected a non-negative integer")
            })?);
        }
        if let Some(v) = r.take("fallbacks") {
            let items = v.as_array().ok_or_else(|| {
                JsonError::msg(format!(
                    "resilience.fallbacks: expected an array, found {}",
                    v.type_name()
                ))
            })?;
            policy.fallbacks = items
                .iter()
                .map(BackendConfig::from_json)
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = r.take("fault_plan") {
            let mut pr = v.reader("resilience.fault_plan")?;
            let mut plan = FaultPlan::seeded(pr.u64_or("seed", 0)?);
            if let Some(rates) = pr.take("rates") {
                let fields = rates.as_object().ok_or_else(|| {
                    JsonError::msg(format!(
                        "resilience.fault_plan.rates: expected an object, found {}",
                        rates.type_name()
                    ))
                })?;
                for (name, rate) in fields {
                    let point = FaultPoint::parse(name).ok_or_else(|| {
                        JsonError::msg(format!(
                            "resilience.fault_plan.rates: unknown fault point `{name}` \
                             (expected task_start | backend_run | lanczos_iteration | \
                             allocation | remote_call)"
                        ))
                    })?;
                    let rate = rate.as_f64().ok_or_else(|| {
                        JsonError::msg(format!(
                            "resilience.fault_plan.rates.{name}: expected a number"
                        ))
                    })?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(JsonError::msg(format!(
                            "resilience.fault_plan.rates.{name}: rate {rate} outside [0, 1]"
                        )));
                    }
                    plan = plan.with_rate(point, rate);
                }
            }
            pr.finish()?;
            policy.fault_plan = Some(plan);
        }
        r.finish()?;
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kind_classification() {
        assert_eq!(
            FailureKind::classify(&Error::Linalg(LinalgError::NoConvergence {
                algorithm: "lanczos",
                iterations: 7,
                residual: Some(1e-3),
            })),
            FailureKind::NonConvergence
        );
        assert_eq!(
            FailureKind::classify(&Error::Sim(SimError::BudgetExceeded {
                requested_bytes: 1 << 40,
                budget_bytes: 1 << 30,
                context: "x".into(),
            })),
            FailureKind::Budget
        );
        assert_eq!(
            FailureKind::classify(&Error::Sim(SimError::NormDrift {
                norm: f64::NAN,
                context: "x".into(),
            })),
            FailureKind::NonFinite
        );
        assert_eq!(
            FailureKind::classify(&Error::NonFinite {
                context: "row".into()
            }),
            FailureKind::NonFinite
        );
        assert_eq!(
            FailureKind::classify(&Error::InvalidRequest {
                context: "k = 0".into()
            }),
            FailureKind::Invalid
        );
        assert_eq!(
            FailureKind::classify(&Error::Sim(SimError::InvalidParameter {
                context: "x".into()
            })),
            FailureKind::Other
        );
        // Transport failures land in the generic `error` bucket — the
        // retry/fallback logic recognizes them structurally (see
        // `guarded`), not by kind.
        assert_eq!(
            FailureKind::classify(&Error::Sim(SimError::Remote {
                addr: "127.0.0.1:1".into(),
                context: "connection refused".into()
            })),
            FailureKind::Other
        );
    }

    #[test]
    fn kind_names_are_stable() {
        // Failed-cell labels and CSVs depend on these exact strings.
        assert_eq!(FailureKind::Panic.name(), "panic");
        assert_eq!(FailureKind::NonConvergence.name(), "non_convergence");
        assert_eq!(FailureKind::Budget.name(), "budget");
        assert_eq!(FailureKind::NonFinite.name(), "numeric");
        assert_eq!(FailureKind::Deadline.name(), "deadline");
        assert_eq!(FailureKind::Invalid.name(), "invalid");
        assert_eq!(FailureKind::Other.name(), "error");
    }

    #[test]
    fn instance_error_displays_kind_and_attempts() {
        let e = InstanceError {
            kind: FailureKind::Panic,
            message: "boom".into(),
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("panic"), "{s}");
        assert!(s.contains("3 attempts"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn policy_json_round_trips() {
        let policy = ResiliencePolicy {
            retries: 2,
            deadline_ms: Some(60_000),
            state_budget_bytes: Some(1 << 30),
            fallbacks: vec![
                BackendConfig::Noisy {
                    depolarizing: 0.05,
                    readout_flip: 0.0,
                },
                BackendConfig::Statevector,
            ],
            fault_plan: Some(
                FaultPlan::seeded(7)
                    .with_rate(FaultPoint::TaskStart, 0.1)
                    .with_rate(FaultPoint::LanczosIteration, 0.02),
            ),
        };
        let v = policy.to_json();
        assert_eq!(ResiliencePolicy::from_json(&v).unwrap(), policy, "{v}");
        let reparsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(ResiliencePolicy::from_json(&reparsed).unwrap(), policy);
    }

    #[test]
    fn default_policy_round_trips_as_empty_object() {
        let policy = ResiliencePolicy::default();
        assert!(policy.is_default());
        let v = policy.to_json();
        assert_eq!(v, Value::Obj(vec![]));
        assert_eq!(ResiliencePolicy::from_json(&v).unwrap(), policy);
    }

    #[test]
    fn policy_json_rejects_malformed_input() {
        for bad in [
            r#"{"retrries": 1}"#,
            r#"{"retries": -1}"#,
            r#"{"deadline_ms": "soon"}"#,
            r#"{"state_budget_bytes": 1.5}"#,
            r#"{"fallbacks": "statevector"}"#,
            r#"{"fallbacks": ["statevctor"]}"#,
            r#"{"fault_plan": {"seed": 1, "rates": {"task_begin": 0.1}}}"#,
            r#"{"fault_plan": {"seed": 1, "rates": {"task_start": 1.5}}}"#,
            r#"{"fault_plan": {"seed": 1, "rate": {}}}"#,
            "3",
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(ResiliencePolicy::from_json(&v).is_err(), "accepted {bad}");
        }
    }
}
