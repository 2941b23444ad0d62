//! Remote circuit execution: a strict-JSON wire codec and a
//! [`RemoteBackend`] that implements the [`Backend`] trait over HTTP.
//!
//! The compile-then-execute split makes a [`Circuit`] a portable document;
//! this module makes it *executable on another host*. The pieces:
//!
//! * **Wire codec** — lossless, bit-exact JSON for circuits, states,
//!   RNG streams and execution requests/responses. Every `f64` is written
//!   in shortest-round-trip form (the `qsc-json` canonical writer), so a
//!   decoded circuit is `==` to the encoded one down to the last mantissa
//!   bit. RNG state travels as four hex strings (a `u64` does not fit a
//!   JSON number losslessly).
//! * **[`execute`]** — the server side: one parsed request plus a hosted
//!   [`Backend`] in, one response document out. The executor service in
//!   `qsc-serve` mounts this behind `POST /v1/exec`.
//! * **[`RemoteBackend`]** — the client side: a [`Backend`] whose four
//!   execution hooks (`run`, `sample`, `phase_distribution`,
//!   `estimate_probability`) are HTTP calls. Seeds travel in the request
//!   and the advanced RNG state travels back, so remote trajectory noise
//!   is **bit-identical** to running the inner backend locally. The
//!   pipeline's hot path reads scalar distributions, so full statevectors
//!   cross the wire only for `run`/`sample` — and `run` is only used by
//!   the gate-level ablation path.
//!
//! Transport failures (connection refused, dropped mid-response, non-2xx,
//! malformed reply) surface as [`SimError::Remote`], which the resilience
//! layer recognizes as *work never started*: it retries without perturbing
//! the seed, then falls back down the backend chain. The
//! `remote_call` fault point ([`qsc_fault::FaultPoint::RemoteCall`])
//! injects those failures deterministically for testing.

use crate::backend::{prepare_pooled, Backend, BufferPool};
use crate::circuit::{Circuit, Mat2, Op};
use crate::error::SimError;
use crate::http;
use crate::state::QuantumState;
use qsc_json::{num, obj, s, JsonError, Value};
use qsc_linalg::{CMatrix, Complex64, C_ONE, C_ZERO};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Duration;

/// The executor endpoint path served by `qsc-serve`.
pub const EXEC_PATH: &str = "/v1/exec";

/// Default per-call socket timeout (connect / read / write).
pub const DEFAULT_TIMEOUT_MS: u64 = 60_000;

// ---------------------------------------------------------------------------
// f64 / complex / matrix codec
// ---------------------------------------------------------------------------

fn complex_to_json(z: Complex64) -> Value {
    Value::Arr(vec![num(z.re), num(z.im)])
}

fn complex_from_json(v: &Value, what: &str) -> Result<Complex64, JsonError> {
    let pair = v
        .as_array()
        .ok_or_else(|| JsonError::msg(format!("{what}: expected [re, im] pair")))?;
    if pair.len() != 2 {
        return Err(JsonError::msg(format!(
            "{what}: expected 2 entries, got {}",
            pair.len()
        )));
    }
    let re = pair[0]
        .as_f64()
        .ok_or_else(|| JsonError::msg(format!("{what}: re must be a number")))?;
    let im = pair[1]
        .as_f64()
        .ok_or_else(|| JsonError::msg(format!("{what}: im must be a number")))?;
    Ok(Complex64 { re, im })
}

fn amplitudes_to_json(amps: &[Complex64]) -> Value {
    Value::Arr(amps.iter().map(|&z| complex_to_json(z)).collect())
}

fn amplitudes_from_json(v: &Value, what: &str) -> Result<Vec<Complex64>, JsonError> {
    let arr = v
        .as_array()
        .ok_or_else(|| JsonError::msg(format!("{what}: expected an array of [re, im] pairs")))?;
    arr.iter()
        .enumerate()
        .map(|(i, e)| complex_from_json(e, &format!("{what}[{i}]")))
        .collect()
}

fn matrix_to_json(m: &CMatrix) -> Value {
    Value::Arr(
        (0..m.nrows())
            .map(|i| Value::Arr(m.row(i).iter().map(|&z| complex_to_json(z)).collect()))
            .collect(),
    )
}

fn matrix_from_json(v: &Value, what: &str) -> Result<CMatrix, JsonError> {
    let rows_v = v
        .as_array()
        .ok_or_else(|| JsonError::msg(format!("{what}: expected an array of rows")))?;
    let mut rows: Vec<Vec<Complex64>> = Vec::with_capacity(rows_v.len());
    for (i, row) in rows_v.iter().enumerate() {
        let entries = row
            .as_array()
            .ok_or_else(|| JsonError::msg(format!("{what}[{i}]: expected a row array")))?;
        let mut out = Vec::with_capacity(entries.len());
        for (j, e) in entries.iter().enumerate() {
            out.push(complex_from_json(e, &format!("{what}[{i}][{j}]"))?);
        }
        rows.push(out);
    }
    CMatrix::from_rows(&rows).map_err(|e| JsonError::msg(format!("{what}: {e}")))
}

// ---------------------------------------------------------------------------
// RNG codec — four hex words of xoshiro256** state
// ---------------------------------------------------------------------------

/// Encodes a generator's full state as four hex strings (lossless: a JSON
/// number cannot carry a `u64`).
pub fn rng_to_json(rng: &StdRng) -> Value {
    Value::Arr(rng.state().iter().map(|w| s(format!("{w:016x}"))).collect())
}

/// Decodes a generator whose stream continues exactly where
/// [`rng_to_json`]'s input left off.
pub fn rng_from_json(v: &Value) -> Result<StdRng, JsonError> {
    let arr = v
        .as_array()
        .ok_or_else(|| JsonError::msg("rng: expected an array of 4 hex words"))?;
    if arr.len() != 4 {
        return Err(JsonError::msg(format!(
            "rng: expected 4 hex words, got {}",
            arr.len()
        )));
    }
    let mut state = [0u64; 4];
    for (i, w) in arr.iter().enumerate() {
        let text = w
            .as_str()
            .ok_or_else(|| JsonError::msg(format!("rng[{i}]: expected a hex string")))?;
        state[i] = u64::from_str_radix(text, 16)
            .map_err(|_| JsonError::msg(format!("rng[{i}]: invalid hex word `{text}`")))?;
    }
    Ok(StdRng::from_state(state))
}

// ---------------------------------------------------------------------------
// Circuit codec
// ---------------------------------------------------------------------------

fn op_to_json(op: &Op) -> Value {
    match *op {
        Op::H(q) => obj([("gate", s("h")), ("q", num(q as f64))]),
        Op::X(q) => obj([("gate", s("x")), ("q", num(q as f64))]),
        Op::Y(q) => obj([("gate", s("y")), ("q", num(q as f64))]),
        Op::Z(q) => obj([("gate", s("z")), ("q", num(q as f64))]),
        Op::S(q) => obj([("gate", s("s")), ("q", num(q as f64))]),
        Op::T(q) => obj([("gate", s("t")), ("q", num(q as f64))]),
        Op::Phase { target, theta } => obj([
            ("gate", s("phase")),
            ("target", num(target as f64)),
            ("theta", num(theta)),
        ]),
        Op::Rz { target, theta } => obj([
            ("gate", s("rz")),
            ("target", num(target as f64)),
            ("theta", num(theta)),
        ]),
        Op::Ry { target, theta } => obj([
            ("gate", s("ry")),
            ("target", num(target as f64)),
            ("theta", num(theta)),
        ]),
        Op::Cnot { control, target } => obj([
            ("gate", s("cnot")),
            ("control", num(control as f64)),
            ("target", num(target as f64)),
        ]),
        Op::CPhase {
            control,
            target,
            theta,
        } => obj([
            ("gate", s("cphase")),
            ("control", num(control as f64)),
            ("target", num(target as f64)),
            ("theta", num(theta)),
        ]),
        Op::Swap(a, b) => obj([
            ("gate", s("swap")),
            ("a", num(a as f64)),
            ("b", num(b as f64)),
        ]),
        Op::Gate1 { target, ref matrix } => obj([
            ("gate", s("gate1")),
            ("target", num(target as f64)),
            (
                "matrix",
                Value::Arr(
                    matrix
                        .iter()
                        .flat_map(|row| row.iter())
                        .map(|&z| complex_to_json(z))
                        .collect(),
                ),
            ),
        ]),
        Op::BlockUnitary {
            control,
            ref matrix,
        } => {
            let mut fields = vec![("gate", s("block_unitary"))];
            if let Some(c) = control {
                fields.push(("control", num(c as f64)));
            }
            fields.push(("matrix", matrix_to_json(matrix)));
            obj(fields)
        }
        Op::PhaseCascade {
            block_qubits,
            ref phases,
            sign,
        } => obj([
            ("gate", s("phase_cascade")),
            ("block_qubits", num(block_qubits as f64)),
            (
                "phases",
                Value::Arr(phases.iter().map(|&p| num(p)).collect()),
            ),
            ("sign", num(sign)),
        ]),
    }
}

fn op_from_json(v: &Value, what: &str) -> Result<Op, JsonError> {
    let mut r = v.reader(what)?;
    let gate = r.req_str("gate")?.to_string();
    let op =
        match gate.as_str() {
            "h" | "x" | "y" | "z" | "s" | "t" => {
                let q = r
                    .required("q")?
                    .as_usize()
                    .ok_or_else(|| JsonError::msg(format!("{what}: q must be a qubit index")))?;
                match gate.as_str() {
                    "h" => Op::H(q),
                    "x" => Op::X(q),
                    "y" => Op::Y(q),
                    "z" => Op::Z(q),
                    "s" => Op::S(q),
                    _ => Op::T(q),
                }
            }
            "phase" | "rz" | "ry" => {
                let target = r.required("target")?.as_usize().ok_or_else(|| {
                    JsonError::msg(format!("{what}: target must be a qubit index"))
                })?;
                let theta = r
                    .required("theta")?
                    .as_f64()
                    .ok_or_else(|| JsonError::msg(format!("{what}: theta must be a number")))?;
                match gate.as_str() {
                    "phase" => Op::Phase { target, theta },
                    "rz" => Op::Rz { target, theta },
                    _ => Op::Ry { target, theta },
                }
            }
            "cnot" | "cphase" => {
                let control = r.required("control")?.as_usize().ok_or_else(|| {
                    JsonError::msg(format!("{what}: control must be a qubit index"))
                })?;
                let target = r.required("target")?.as_usize().ok_or_else(|| {
                    JsonError::msg(format!("{what}: target must be a qubit index"))
                })?;
                if gate == "cnot" {
                    Op::Cnot { control, target }
                } else {
                    let theta = r
                        .required("theta")?
                        .as_f64()
                        .ok_or_else(|| JsonError::msg(format!("{what}: theta must be a number")))?;
                    Op::CPhase {
                        control,
                        target,
                        theta,
                    }
                }
            }
            "swap" => {
                let a = r
                    .required("a")?
                    .as_usize()
                    .ok_or_else(|| JsonError::msg(format!("{what}: a must be a qubit index")))?;
                let b = r
                    .required("b")?
                    .as_usize()
                    .ok_or_else(|| JsonError::msg(format!("{what}: b must be a qubit index")))?;
                Op::Swap(a, b)
            }
            "gate1" => {
                let target = r.required("target")?.as_usize().ok_or_else(|| {
                    JsonError::msg(format!("{what}: target must be a qubit index"))
                })?;
                let flat = amplitudes_from_json(r.required("matrix")?, &format!("{what}.matrix"))?;
                if flat.len() != 4 {
                    return Err(JsonError::msg(format!(
                        "{what}.matrix: a gate1 matrix has 4 entries, got {}",
                        flat.len()
                    )));
                }
                let matrix: Mat2 = [[flat[0], flat[1]], [flat[2], flat[3]]];
                Op::Gate1 { target, matrix }
            }
            "block_unitary" => {
                let control = match r.take("control") {
                    Some(c) => Some(c.as_usize().ok_or_else(|| {
                        JsonError::msg(format!("{what}: control must be a qubit index"))
                    })?),
                    None => None,
                };
                let matrix = matrix_from_json(r.required("matrix")?, &format!("{what}.matrix"))?;
                Op::BlockUnitary {
                    control,
                    matrix: Arc::new(matrix),
                }
            }
            "phase_cascade" => {
                let block_qubits = r.required("block_qubits")?.as_usize().ok_or_else(|| {
                    JsonError::msg(format!("{what}: block_qubits must be a qubit count"))
                })?;
                let phases_v = r
                    .required("phases")?
                    .as_array()
                    .ok_or_else(|| JsonError::msg(format!("{what}: phases must be an array")))?;
                let mut phases = Vec::with_capacity(phases_v.len());
                for (i, p) in phases_v.iter().enumerate() {
                    phases.push(p.as_f64().ok_or_else(|| {
                        JsonError::msg(format!("{what}.phases[{i}]: expected a number"))
                    })?);
                }
                let sign = r
                    .required("sign")?
                    .as_f64()
                    .ok_or_else(|| JsonError::msg(format!("{what}: sign must be a number")))?;
                Op::PhaseCascade {
                    block_qubits,
                    phases: Arc::new(phases),
                    sign,
                }
            }
            other => return Err(JsonError::msg(format!("{what}: unknown gate `{other}`"))),
        };
    r.finish()?;
    Ok(op)
}

/// Encodes a circuit as a strict-JSON document
/// (`{"num_qubits": n, "ops": [...]}`): lossless down to every `f64` bit
/// of every gate parameter.
pub fn circuit_to_json(circuit: &Circuit) -> Value {
    obj([
        ("num_qubits", num(circuit.num_qubits() as f64)),
        (
            "ops",
            Value::Arr(circuit.ops().iter().map(op_to_json).collect()),
        ),
    ])
}

/// Decodes a circuit, re-validating every op through [`Circuit::push`]
/// (so a hostile document cannot smuggle out-of-range qubits or malformed
/// block payloads past the executor).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending field for unknown gates,
/// unknown/missing fields and type mismatches, and for ops
/// [`Circuit::push`] rejects.
pub fn circuit_from_json(v: &Value) -> Result<Circuit, JsonError> {
    let mut r = v.reader("circuit")?;
    let num_qubits = r
        .required("num_qubits")?
        .as_usize()
        .ok_or_else(|| JsonError::msg("circuit: num_qubits must be a qubit count"))?;
    let ops = r
        .required("ops")?
        .as_array()
        .ok_or_else(|| JsonError::msg("circuit: ops must be an array"))?;
    let mut circuit = Circuit::new(num_qubits);
    for (i, op_v) in ops.iter().enumerate() {
        let op = op_from_json(op_v, &format!("circuit.ops[{i}]"))?;
        circuit
            .push(op)
            .map_err(|e| JsonError::msg(format!("circuit.ops[{i}]: {e}")))?;
    }
    r.finish()?;
    Ok(circuit)
}

// ---------------------------------------------------------------------------
// SimError codec — errors cross the wire as typed documents, so the
// client-side failure taxonomy matches local execution exactly.
// ---------------------------------------------------------------------------

fn sim_error_to_json(e: &SimError) -> Value {
    match e {
        SimError::NotPowerOfTwo { len } => {
            obj([("kind", s("not_power_of_two")), ("len", num(*len as f64))])
        }
        SimError::ZeroNorm => obj([("kind", s("zero_norm"))]),
        SimError::QubitOutOfRange { qubit, num_qubits } => obj([
            ("kind", s("qubit_out_of_range")),
            ("qubit", num(*qubit as f64)),
            ("num_qubits", num(*num_qubits as f64)),
        ]),
        SimError::DimensionMismatch { context } => obj([
            ("kind", s("dimension_mismatch")),
            ("context", s(context.clone())),
        ]),
        SimError::NotUnitary { deviation } => {
            obj([("kind", s("not_unitary")), ("deviation", num(*deviation))])
        }
        SimError::InvalidParameter { context } => obj([
            ("kind", s("invalid_parameter")),
            ("context", s(context.clone())),
        ]),
        SimError::BudgetExceeded {
            requested_bytes,
            budget_bytes,
            context,
        } => obj([
            ("kind", s("budget_exceeded")),
            ("requested_bytes", s(format!("{requested_bytes:x}"))),
            ("budget_bytes", s(format!("{budget_bytes:x}"))),
            ("context", s(context.clone())),
        ]),
        SimError::NormDrift { norm, context } => obj([
            ("kind", s("norm_drift")),
            ("norm", num(*norm)),
            ("context", s(context.clone())),
        ]),
        SimError::Injected { point } => obj([("kind", s("injected")), ("point", s(*point))]),
        SimError::Remote { addr, context } => obj([
            ("kind", s("remote")),
            ("addr", s(addr.clone())),
            ("context", s(context.clone())),
        ]),
    }
}

fn u128_from_hex(v: &Value, what: &str) -> Result<u128, JsonError> {
    let text = v
        .as_str()
        .ok_or_else(|| JsonError::msg(format!("{what}: expected a hex string")))?;
    u128::from_str_radix(text, 16)
        .map_err(|_| JsonError::msg(format!("{what}: invalid hex value `{text}`")))
}

fn sim_error_from_json(v: &Value) -> Result<SimError, JsonError> {
    let mut r = v.reader("sim_error")?;
    let kind = r.req_str("kind")?.to_string();
    let err = match kind.as_str() {
        "not_power_of_two" => SimError::NotPowerOfTwo {
            len: r
                .required("len")?
                .as_usize()
                .ok_or_else(|| JsonError::msg("sim_error: len must be a length"))?,
        },
        "zero_norm" => SimError::ZeroNorm,
        "qubit_out_of_range" => SimError::QubitOutOfRange {
            qubit: r
                .required("qubit")?
                .as_usize()
                .ok_or_else(|| JsonError::msg("sim_error: qubit must be an index"))?,
            num_qubits: r
                .required("num_qubits")?
                .as_usize()
                .ok_or_else(|| JsonError::msg("sim_error: num_qubits must be a count"))?,
        },
        "dimension_mismatch" => SimError::DimensionMismatch {
            context: r.req_str("context")?.to_string(),
        },
        "not_unitary" => SimError::NotUnitary {
            deviation: r
                .required("deviation")?
                .as_f64()
                .ok_or_else(|| JsonError::msg("sim_error: deviation must be a number"))?,
        },
        "invalid_parameter" => SimError::InvalidParameter {
            context: r.req_str("context")?.to_string(),
        },
        "budget_exceeded" => SimError::BudgetExceeded {
            requested_bytes: u128_from_hex(
                r.required("requested_bytes")?,
                "sim_error.requested_bytes",
            )?,
            budget_bytes: u128_from_hex(r.required("budget_bytes")?, "sim_error.budget_bytes")?,
            context: r.req_str("context")?.to_string(),
        },
        "norm_drift" => {
            // The canonical writer encodes non-finite numbers as `null`,
            // and a NaN norm is precisely what this error reports.
            let norm_v = r.required("norm")?;
            let norm = match norm_v {
                Value::Null => f64::NAN,
                other => other
                    .as_f64()
                    .ok_or_else(|| JsonError::msg("sim_error: norm must be a number"))?,
            };
            SimError::NormDrift {
                norm,
                context: r.req_str("context")?.to_string(),
            }
        }
        "injected" => {
            let point = r.req_str("point")?;
            let point = qsc_fault::FaultPoint::parse(point)
                .ok_or_else(|| JsonError::msg(format!("sim_error: unknown fault point `{point}`")))?
                .name();
            SimError::Injected { point }
        }
        "remote" => SimError::Remote {
            addr: r.req_str("addr")?.to_string(),
            context: r.req_str("context")?.to_string(),
        },
        other => return Err(JsonError::msg(format!("sim_error: unknown kind `{other}`"))),
    };
    r.finish()?;
    Ok(err)
}

// ---------------------------------------------------------------------------
// Server side: execute one request document on a hosted backend
// ---------------------------------------------------------------------------

/// Detects a pristine basis state (exactly one bit-exact `1+0i` amplitude,
/// all others bit-exact zero), letting `run` requests ship an index instead
/// of `2^n` amplitudes.
fn as_basis_index(state: &QuantumState) -> Option<usize> {
    let mut found = None;
    for (i, &a) in state.amplitudes().iter().enumerate() {
        if a == C_ZERO {
            continue;
        }
        if a == C_ONE && found.is_none() {
            found = Some(i);
        } else {
            return None;
        }
    }
    found
}

fn state_from_wire(
    basis: Option<(usize, usize)>,
    amps: Option<Vec<Complex64>>,
    backend: &dyn Backend,
) -> Result<Result<QuantumState, SimError>, JsonError> {
    match (basis, amps) {
        (Some((num_qubits, index)), None) => {
            if num_qubits >= usize::BITS as usize || index >= (1usize << num_qubits) {
                return Err(JsonError::msg(format!(
                    "state: basis index {index} out of range for {num_qubits} qubits"
                )));
            }
            Ok(backend.try_prepare(num_qubits, index))
        }
        (None, Some(amps)) => {
            if amps.is_empty() || !amps.len().is_power_of_two() {
                return Err(JsonError::msg(format!(
                    "state: amplitude count {} is not a power of two",
                    amps.len()
                )));
            }
            Ok(Ok(QuantumState::from_raw(amps)))
        }
        _ => Err(JsonError::msg(
            "state: exactly one of `basis`/`amplitudes` is required",
        )),
    }
}

/// Executes one wire request against a hosted backend and builds the
/// response document.
///
/// The response always carries the advanced `rng` state. Simulator errors
/// are **part of the response** (`{"sim_error": ...}`), not a transport
/// failure: the client re-raises them as the same typed [`SimError`] local
/// execution would produce. The `backend` request field is the caller's
/// concern (the executor service resolves it to the `backend` argument
/// before calling here) and is ignored if present.
///
/// # Errors
///
/// Returns a [`JsonError`] (the service answers 400) only for malformed
/// requests: unknown ops, unknown or missing fields, type mismatches.
pub fn execute(request: &Value, backend: &dyn Backend) -> Result<Value, JsonError> {
    let mut r = request.reader("exec request")?;
    let op = r.req_str("op")?.to_string();
    let mut rng = rng_from_json(r.required("rng")?)?;
    let _ = r.take("backend"); // resolved by the service before dispatch

    let read_basis = |r: &mut qsc_json::ObjReader| -> Result<Option<(usize, usize)>, JsonError> {
        match r.take("basis") {
            None => Ok(None),
            Some(v) => {
                let mut br = v.reader("state.basis")?;
                let num_qubits = br
                    .required("num_qubits")?
                    .as_usize()
                    .ok_or_else(|| JsonError::msg("state.basis: num_qubits must be a count"))?;
                let index = br
                    .required("index")?
                    .as_usize()
                    .ok_or_else(|| JsonError::msg("state.basis: index must be an index"))?;
                br.finish()?;
                Ok(Some((num_qubits, index)))
            }
        }
    };
    let read_amps = |r: &mut qsc_json::ObjReader| -> Result<Option<Vec<Complex64>>, JsonError> {
        match r.take("amplitudes") {
            None => Ok(None),
            Some(v) => Ok(Some(amplitudes_from_json(v, "amplitudes")?)),
        }
    };

    let outcome: Result<Value, SimError> = match op.as_str() {
        "run" => {
            let circuit = circuit_from_json(r.required("circuit")?)?;
            let basis = read_basis(&mut r)?;
            let amps = read_amps(&mut r)?;
            r.finish()?;
            match state_from_wire(basis, amps, backend)? {
                Err(e) => Err(e),
                Ok(mut state) => match backend.run(&circuit, &mut state, &mut rng) {
                    Err(e) => Err(e),
                    Ok(()) => {
                        let payload = amplitudes_to_json(state.amplitudes());
                        backend.recycle(state);
                        Ok(obj([("amplitudes", payload)]))
                    }
                },
            }
        }
        "sample" => {
            let shots = r
                .required("shots")?
                .as_usize()
                .ok_or_else(|| JsonError::msg("exec request: shots must be a count"))?;
            let amps = read_amps(&mut r)?
                .ok_or_else(|| JsonError::msg("exec request: sample needs `amplitudes`"))?;
            r.finish()?;
            match state_from_wire(None, Some(amps), backend)? {
                Err(e) => Err(e),
                Ok(state) => backend.sample(&state, shots, &mut rng).map(|counts| {
                    obj([(
                        "counts",
                        Value::Arr(
                            counts
                                .iter()
                                .map(|&(m, c)| Value::Arr(vec![num(m as f64), num(c as f64)]))
                                .collect(),
                        ),
                    )])
                }),
            }
        }
        "phase_distribution" => {
            let phi = r
                .required("phi")?
                .as_f64()
                .ok_or_else(|| JsonError::msg("exec request: phi must be a number"))?;
            let t = r
                .required("t")?
                .as_usize()
                .ok_or_else(|| JsonError::msg("exec request: t must be a bit count"))?;
            r.finish()?;
            backend
                .phase_distribution(phi, t, &mut rng)
                .map(|probs| obj([("probs", Value::Arr(probs.iter().map(|&p| num(p)).collect()))]))
        }
        "estimate_probability" => {
            let p = r
                .required("p")?
                .as_f64()
                .ok_or_else(|| JsonError::msg("exec request: p must be a number"))?;
            r.finish()?;
            backend
                .estimate_probability(p, &mut rng)
                .map(|value| obj([("value", num(value))]))
        }
        other => {
            return Err(JsonError::msg(format!(
                "exec request: unknown op `{other}`"
            )))
        }
    };

    let rng_v = rng_to_json(&rng);
    Ok(match outcome {
        Ok(Value::Obj(mut fields)) => {
            fields.insert(0, ("rng".to_string(), rng_v));
            Value::Obj(fields)
        }
        Ok(other) => obj([("rng", rng_v), ("payload", other)]),
        Err(e) => obj([("rng", rng_v), ("sim_error", sim_error_to_json(&e))]),
    })
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

fn transport_err(addr: &str, context: impl Into<String>) -> SimError {
    SimError::Remote {
        addr: addr.to_string(),
        context: context.into(),
    }
}

// ---------------------------------------------------------------------------
// RemoteBackend
// ---------------------------------------------------------------------------

/// A [`Backend`] whose execution hooks run on a remote executor service.
///
/// `prepare`/`recycle` stay local (a basis state is cheaper to describe
/// than to transfer); `run`, `sample`, `phase_distribution` and
/// `estimate_probability` POST wire documents to `/v1/exec` on the
/// configured executor, which hosts the *inner* backend. The caller's RNG
/// state travels with every request and the advanced state replaces it on
/// return, so results — including Monte-Carlo trajectory noise — are
/// bit-identical to executing the inner backend in-process.
///
/// The backend reports the inner backend's `exact_statistics` /
/// `pure_state` / `phase_register_limit` traits (set via
/// [`RemoteBackend::with_traits`]), so bit-exact fast paths, the
/// gate-level-path guard and the phase-register budget check all behave
/// exactly as they would against the inner backend locally.
#[derive(Debug)]
pub struct RemoteBackend {
    addr: String,
    inner: Value,
    pool: BufferPool,
    timeout: Duration,
    exact: bool,
    pure: bool,
    register_limit: Option<usize>,
}

impl RemoteBackend {
    /// A remote backend executing on `addr` (`host:port`), hosting the
    /// inner backend described by `inner` (a `BackendConfig` JSON
    /// document, e.g. `{"statevector": {}}`). Traits default to the exact
    /// statevector's; see [`RemoteBackend::with_traits`].
    pub fn new(addr: impl Into<String>, inner: Value) -> Self {
        Self {
            addr: addr.into(),
            inner,
            pool: BufferPool::default(),
            timeout: Duration::from_millis(DEFAULT_TIMEOUT_MS),
            exact: true,
            pure: true,
            register_limit: None,
        }
    }

    /// Sets the trait surface mirrored from the inner backend.
    pub fn with_traits(
        mut self,
        exact_statistics: bool,
        pure_state: bool,
        register_limit: Option<usize>,
    ) -> Self {
        self.exact = exact_statistics;
        self.pure = pure_state;
        self.register_limit = register_limit;
        self
    }

    /// Sets the per-call socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The executor address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The deterministic `remote_call` fault hook: inside an armed fault
    /// scope this simulates a dropped connection *before* any bytes move.
    fn injected_drop(&self) -> Result<(), SimError> {
        if qsc_fault::should_fire(qsc_fault::FaultPoint::RemoteCall) {
            Err(transport_err(
                &self.addr,
                "injected connection drop (remote_call)",
            ))
        } else {
            Ok(())
        }
    }

    /// One `/v1/exec` round trip. Every way the exchange can fail —
    /// transport, framing, a non-UTF-8 body, a non-200 status, a malformed
    /// document — is [`SimError::Remote`]; in-band simulator errors come
    /// back as themselves.
    fn call(
        &self,
        mut fields: Vec<(&'static str, Value)>,
        rng: &mut StdRng,
    ) -> Result<Value, SimError> {
        self.injected_drop()?;
        fields.push(("backend", self.inner.clone()));
        fields.push(("rng", rng_to_json(rng)));
        let body = obj(fields)
            .to_json_canonical()
            .map_err(|e| transport_err(&self.addr, format!("request encoding failed: {e}")))?;
        let response = http::request(&self.addr, "POST", EXEC_PATH, Some(&body), self.timeout)
            .map_err(|e| transport_err(&self.addr, e.to_string()))?;
        let text = String::from_utf8(response.body)
            .map_err(|_| transport_err(&self.addr, "response is not UTF-8"))?;
        if response.status != 200 {
            // Surface the server's error message if the body carries one.
            let detail = Value::parse(&text)
                .ok()
                .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)))
                .unwrap_or_else(|| text.chars().take(200).collect());
            let context = format!("status {}: {detail}", response.status);
            return Err(transport_err(&self.addr, context));
        }
        let doc = Value::parse(&text)
            .map_err(|e| transport_err(&self.addr, format!("malformed response: {e}")))?;
        let rng_v = doc
            .get("rng")
            .ok_or_else(|| transport_err(&self.addr, "response missing rng state"))?;
        *rng = rng_from_json(rng_v)
            .map_err(|e| transport_err(&self.addr, format!("malformed response rng: {e}")))?;
        if let Some(err_v) = doc.get("sim_error") {
            return Err(sim_error_from_json(err_v).unwrap_or_else(|e| {
                transport_err(&self.addr, format!("malformed sim_error: {e}"))
            }));
        }
        Ok(doc)
    }
}

impl Backend for RemoteBackend {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn prepare(&self, num_qubits: usize, basis_index: usize) -> QuantumState {
        prepare_pooled(&self.pool, num_qubits, basis_index)
    }

    fn run(
        &self,
        circuit: &Circuit,
        state: &mut QuantumState,
        rng: &mut StdRng,
    ) -> Result<(), SimError> {
        let mut fields = vec![("op", s("run")), ("circuit", circuit_to_json(circuit))];
        match as_basis_index(state) {
            Some(index) if state.num_qubits() == circuit.num_qubits() => fields.push((
                "basis",
                obj([
                    ("num_qubits", num(circuit.num_qubits() as f64)),
                    ("index", num(index as f64)),
                ]),
            )),
            _ => fields.push(("amplitudes", amplitudes_to_json(state.amplitudes()))),
        }
        let doc = self.call(fields, rng)?;
        let amps_v = doc
            .get("amplitudes")
            .ok_or_else(|| transport_err(&self.addr, "run response missing amplitudes"))?;
        let amps = amplitudes_from_json(amps_v, "amplitudes")
            .map_err(|e| transport_err(&self.addr, format!("malformed amplitudes: {e}")))?;
        if amps.is_empty() || !amps.len().is_power_of_two() {
            return Err(transport_err(
                &self.addr,
                format!("run response has {} amplitudes", amps.len()),
            ));
        }
        // The evolved state replaces the local one wholesale: for a
        // density-matrix inner backend it is a vectorized ρ wider than the
        // circuit register, exactly as the inner backend's own `run` would
        // leave it.
        *state = QuantumState::from_raw(amps);
        Ok(())
    }

    fn sample(
        &self,
        state: &QuantumState,
        shots: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        let fields = vec![
            ("op", s("sample")),
            ("shots", num(shots as f64)),
            ("amplitudes", amplitudes_to_json(state.amplitudes())),
        ];
        let doc = self.call(fields, rng)?;
        let counts_v = doc
            .get("counts")
            .and_then(|v| v.as_array())
            .ok_or_else(|| transport_err(&self.addr, "sample response missing counts"))?;
        let mut counts = Vec::with_capacity(counts_v.len());
        for pair in counts_v {
            let entry = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                transport_err(&self.addr, "sample response has a malformed count pair")
            })?;
            let m = entry[0].as_usize();
            let c = entry[1].as_usize();
            match (m, c) {
                (Some(m), Some(c)) => counts.push((m, c)),
                _ => {
                    return Err(transport_err(
                        &self.addr,
                        "sample response has a non-integer count",
                    ))
                }
            }
        }
        Ok(counts)
    }

    fn recycle(&self, state: QuantumState) {
        self.pool.release(state.into_amplitudes());
    }

    fn exact_statistics(&self) -> bool {
        self.exact
    }

    fn pure_state(&self) -> bool {
        self.pure
    }

    fn phase_register_limit(&self) -> Option<usize> {
        self.register_limit
    }

    fn phase_distribution(
        &self,
        phi: f64,
        t: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, SimError> {
        let fields = vec![
            ("op", s("phase_distribution")),
            ("phi", num(phi)),
            ("t", num(t as f64)),
        ];
        let doc = self.call(fields, rng)?;
        let probs_v = doc
            .get("probs")
            .and_then(|v| v.as_array())
            .ok_or_else(|| transport_err(&self.addr, "response missing probs"))?;
        probs_v
            .iter()
            .map(|p| {
                p.as_f64().ok_or_else(|| {
                    transport_err(&self.addr, "response has a non-numeric probability")
                })
            })
            .collect()
    }

    fn estimate_probability(&self, p: f64, rng: &mut StdRng) -> Result<f64, SimError> {
        let fields = vec![("op", s("estimate_probability")), ("p", num(p))];
        let doc = self.call(fields, rng)?;
        doc.get("value")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| transport_err(&self.addr, "response missing value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoisyStatevector, Statevector};
    use rand::{Rng, SeedableRng};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Op::H(0)).unwrap();
        c.push(Op::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        c
    }

    #[test]
    fn circuit_round_trips_every_op_variant() {
        let mut c = Circuit::new(3);
        let ops = vec![
            Op::H(0),
            Op::X(0),
            Op::Y(1),
            Op::Z(2),
            Op::S(0),
            Op::T(1),
            Op::Phase {
                target: 0,
                theta: 0.25,
            },
            Op::Rz {
                target: 1,
                theta: -0.5,
            },
            Op::Ry {
                target: 2,
                theta: 0.75,
            },
            Op::Cnot {
                control: 0,
                target: 1,
            },
            Op::CPhase {
                control: 1,
                target: 2,
                theta: 0.1,
            },
            Op::Swap(0, 2),
            Op::Gate1 {
                target: 1,
                matrix: crate::gates::ry(0.3),
            },
            Op::BlockUnitary {
                control: None,
                matrix: Arc::new(CMatrix::identity(2)),
            },
            Op::BlockUnitary {
                control: Some(2),
                matrix: Arc::new(CMatrix::identity(2)),
            },
            Op::PhaseCascade {
                block_qubits: 1,
                phases: Arc::new(vec![0.0, 0.5]),
                sign: -1.0,
            },
        ];
        for op in ops {
            c.push(op).unwrap();
        }
        let doc = circuit_to_json(&c);
        let text = doc.to_json_canonical().unwrap();
        let back = circuit_from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(c, back);
    }

    /// Tiny splitmix64 step, mirroring the `canonical_preserves_f64_bits`
    /// property test in `qsc-json` (no `proptest` in the tree).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn codec_preserves_every_f64_bit_pattern() {
        // 2000 random bit patterns through gate parameters, matrix entries
        // and amplitude payloads: the wire must be bit-lossless for all of
        // them, and the op sequence must come back in order.
        let mut state = 0xD1CEu64;
        let mut thetas = Vec::new();
        while thetas.len() < 2000 {
            let x = f64::from_bits(splitmix(&mut state));
            if x.is_finite() {
                thetas.push(x);
            }
        }
        for chunk in thetas.chunks(40) {
            let mut c = Circuit::new(2);
            for (i, &theta) in chunk.iter().enumerate() {
                let target = i % 2;
                match i % 3 {
                    0 => c.push(Op::Phase { target, theta }).unwrap(),
                    1 => c.push(Op::Rz { target, theta }).unwrap(),
                    _ => c.push(Op::Ry { target, theta }).unwrap(),
                }
            }
            let text = circuit_to_json(&c).to_json_canonical().unwrap();
            let back = circuit_from_json(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back.ops().len(), c.ops().len());
            for (a, b) in c.ops().iter().zip(back.ops()) {
                let (ta, tb) = match (a, b) {
                    (Op::Phase { theta: ta, .. }, Op::Phase { theta: tb, .. })
                    | (Op::Rz { theta: ta, .. }, Op::Rz { theta: tb, .. })
                    | (Op::Ry { theta: ta, .. }, Op::Ry { theta: tb, .. }) => (ta, tb),
                    other => panic!("op variant changed across the wire: {other:?}"),
                };
                assert_eq!(ta.to_bits(), tb.to_bits(), "{ta} vs {tb}");
            }
        }

        // The same patterns as amplitude components.
        let amps: Vec<Complex64> = thetas[..128]
            .chunks(2)
            .map(|p| Complex64 { re: p[0], im: p[1] })
            .collect();
        let text = amplitudes_to_json(&amps).to_json_canonical().unwrap();
        let back = amplitudes_from_json(&Value::parse(&text).unwrap(), "amps").unwrap();
        for (a, b) in amps.iter().zip(&back) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn truncated_payload_rejected_with_position() {
        let full = circuit_to_json(&bell()).to_json_canonical().unwrap();
        let cut = &full[..full.len() - 7];
        let err = Value::parse(cut).unwrap_err();
        assert!(
            err.line >= 1 && err.col >= 1,
            "truncation error should carry a position: {err:?}"
        );
    }

    #[test]
    fn rng_state_round_trips_mid_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..13 {
            let _: u64 = rng.gen();
        }
        let doc = rng_to_json(&rng);
        let text = doc.to_json_canonical().unwrap();
        let mut back = rng_from_json(&Value::parse(&text).unwrap()).unwrap();
        for _ in 0..50 {
            assert_eq!(rng.gen::<u64>(), back.gen::<u64>());
        }
    }

    #[test]
    fn unknown_gate_and_unknown_field_rejected() {
        let bad_gate =
            Value::parse(r#"{"num_qubits":1,"ops":[{"gate":"frobnicate","q":0}]}"#).unwrap();
        let err = circuit_from_json(&bad_gate).unwrap_err();
        assert!(err.to_string().contains("frobnicate"), "{err}");

        let extra = Value::parse(r#"{"num_qubits":1,"ops":[{"gate":"h","q":0,"zap":1}]}"#).unwrap();
        let err = circuit_from_json(&extra).unwrap_err();
        assert!(err.to_string().contains("zap"), "{err}");
    }

    #[test]
    fn decode_revalidates_through_push() {
        // Qubit out of range must be rejected by the decoder, not at run
        // time on the executor.
        let doc = Value::parse(r#"{"num_qubits":1,"ops":[{"gate":"h","q":7}]}"#).unwrap();
        let err = circuit_from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn sim_errors_round_trip() {
        let cases = vec![
            SimError::NotPowerOfTwo { len: 3 },
            SimError::ZeroNorm,
            SimError::QubitOutOfRange {
                qubit: 9,
                num_qubits: 4,
            },
            SimError::DimensionMismatch {
                context: "x".into(),
            },
            SimError::NotUnitary { deviation: 0.25 },
            SimError::InvalidParameter {
                context: "y".into(),
            },
            SimError::BudgetExceeded {
                requested_bytes: u128::MAX,
                budget_bytes: 1 << 70,
                context: "z".into(),
            },
            SimError::NormDrift {
                norm: f64::NAN,
                context: "w".into(),
            },
            SimError::Injected {
                point: "backend_run",
            },
            SimError::Remote {
                addr: "127.0.0.1:1".into(),
                context: "refused".into(),
            },
        ];
        for e in cases {
            let text = sim_error_to_json(&e).to_json_canonical().unwrap();
            let back = sim_error_from_json(&Value::parse(&text).unwrap()).unwrap();
            match (&e, &back) {
                // NaN breaks PartialEq; compare the bits through Display.
                (SimError::NormDrift { .. }, SimError::NormDrift { .. }) => {
                    assert_eq!(e.to_string(), back.to_string());
                }
                _ => assert_eq!(e, back),
            }
        }
    }

    #[test]
    fn execute_runs_a_circuit_from_a_basis_request() {
        let backend = Statevector::new();
        let mut rng = StdRng::seed_from_u64(1);
        let request = obj([
            ("op", s("run")),
            ("circuit", circuit_to_json(&bell())),
            (
                "basis",
                obj([("num_qubits", num(2.0)), ("index", num(0.0))]),
            ),
            ("rng", rng_to_json(&rng)),
        ]);
        let response = execute(&request, &backend).unwrap();
        let amps = amplitudes_from_json(response.get("amplitudes").unwrap(), "amps").unwrap();
        let expected = backend.execute(&bell(), 0, &mut rng).unwrap();
        assert_eq!(amps, expected.amplitudes());
    }

    #[test]
    fn execute_reports_sim_errors_in_band() {
        // A 2-qubit circuit against a 1-qubit amplitude state: a typed
        // dimension mismatch, not a transport failure.
        let backend = Statevector::new();
        let rng = StdRng::seed_from_u64(2);
        let request = obj([
            ("op", s("run")),
            ("circuit", circuit_to_json(&bell())),
            ("amplitudes", amplitudes_to_json(&[C_ONE, C_ZERO])),
            ("rng", rng_to_json(&rng)),
        ]);
        let response = execute(&request, &backend).unwrap();
        let err = sim_error_from_json(response.get("sim_error").unwrap()).unwrap();
        assert!(matches!(err, SimError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn execute_rejects_malformed_requests() {
        let backend = Statevector::new();
        let rng = StdRng::seed_from_u64(3);
        let unknown_op = obj([("op", s("teleport")), ("rng", rng_to_json(&rng))]);
        assert!(execute(&unknown_op, &backend).is_err());
        let extra_field = obj([
            ("op", s("estimate_probability")),
            ("p", num(0.5)),
            ("rng", rng_to_json(&rng)),
            ("surprise", num(1.0)),
        ]);
        assert!(execute(&extra_field, &backend).is_err());
    }

    #[test]
    fn execute_advances_and_returns_the_rng_state() {
        // The noisy backend draws during `run`; the response rng must equal
        // the post-run local stream.
        let backend = NoisyStatevector::new(0.2, 0.0);
        let rng0 = StdRng::seed_from_u64(7);
        let request = obj([
            ("op", s("run")),
            ("circuit", circuit_to_json(&bell())),
            (
                "basis",
                obj([("num_qubits", num(2.0)), ("index", num(0.0))]),
            ),
            ("rng", rng_to_json(&rng0)),
        ]);
        let response = execute(&request, &backend).unwrap();
        let remote_rng = rng_from_json(response.get("rng").unwrap()).unwrap();
        let mut local_rng = rng0;
        backend.execute(&bell(), 0, &mut local_rng).unwrap();
        assert_eq!(local_rng, remote_rng);
    }

    #[test]
    fn basis_detection_matches_fresh_preparations_only() {
        let backend = Statevector::new();
        let state = backend.prepare(3, 5);
        assert_eq!(as_basis_index(&state), Some(5));
        let mut rng = StdRng::seed_from_u64(4);
        let evolved = backend.execute(&bell(), 0, &mut rng).unwrap();
        assert_eq!(as_basis_index(&evolved), None);
    }

    #[test]
    fn remote_backend_maps_connection_failures_to_remote_errors() {
        // Nothing listens on this port: every hook must fail with the typed
        // transport error, not panic or hang.
        let backend = RemoteBackend::new("127.0.0.1:9", obj([("statevector", obj([]))]))
            .with_timeout(Duration::from_millis(200));
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = backend.prepare(2, 0);
        let err = backend.run(&bell(), &mut state, &mut rng).unwrap_err();
        assert!(matches!(err, SimError::Remote { .. }), "{err}");
        let err = backend.estimate_probability(0.5, &mut rng).unwrap_err();
        assert!(matches!(err, SimError::Remote { .. }), "{err}");
    }

    /// A fake executor that answers one connection with `reply`, then
    /// drains the request so closing never resets the client.
    fn one_shot(reply: &'static [u8]) -> String {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let _ = conn.write_all(reply);
                let _ = conn.shutdown(std::net::Shutdown::Write);
                let _ = std::io::copy(&mut conn, &mut std::io::sink());
            }
        });
        addr
    }

    fn remote_context(reply: &'static [u8]) -> String {
        let backend = RemoteBackend::new(one_shot(reply), obj([("statevector", obj([]))]))
            .with_timeout(Duration::from_secs(10));
        let mut rng = StdRng::seed_from_u64(1);
        match backend.estimate_probability(0.5, &mut rng) {
            Err(SimError::Remote { context, .. }) => context,
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn remote_backend_classifies_bad_replies_as_transport_errors() {
        // The resilience layer retries `Remote` errors with the seed
        // unchanged, so every way a reply can be unusable must land here.
        let context = remote_context(
            b"HTTP/1.1 400 Bad Request\r\nContent-Length: 22\r\n\r\n{\"error\":\"no such op\"}",
        );
        assert!(
            context.contains("400") && context.contains("no such op"),
            "{context}"
        );
        remote_context(b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{\"rng\":");
        remote_context(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe");
    }

    #[test]
    fn remote_backend_survives_a_content_length_inside_a_character() {
        // One declared byte of the two-byte `é`: a typed transport error,
        // not a panic on a char boundary.
        remote_context(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xc3\xa9");
    }

    #[test]
    fn remote_call_fault_point_fires_without_touching_the_network() {
        use qsc_fault::{scope, FaultPlan, FaultPoint};
        let backend = RemoteBackend::new("203.0.113.1:1", obj([("statevector", obj([]))]));
        let plan = FaultPlan::seeded(1).with_rate(FaultPoint::RemoteCall, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let err = scope(plan, 0, || {
            backend.estimate_probability(0.5, &mut rng).unwrap_err()
        });
        assert!(
            err.to_string().contains("injected connection drop"),
            "{err}"
        );
    }
}
