//! Pre-allocation memory budgets for simulated registers.
//!
//! Statevector registers cost `2^n · 16` bytes and vectorized density
//! matrices `4^n · 16` bytes, so an over-wide request aborts the process
//! with an OOM long after the mistake was made. The checks here estimate
//! the footprint *first* and return [`SimError::BudgetExceeded`] while the
//! request is still recoverable. Backends route allocation through
//! [`Backend::try_prepare`](crate::backend::Backend::try_prepare); the
//! pipeline's quantum stage checks its phase register up front.
//!
//! The budget defaults to [`DEFAULT_STATE_BUDGET_BYTES`] and can be
//! overridden per process with the `QSC_STATE_BUDGET_BYTES` environment
//! variable, or per call via [`check_allocation_within`] (how a
//! `ResiliencePolicy` threads a stricter budget through the pipeline).
//!
//! These checks double as the `allocation` fault-injection point: inside
//! an armed [`qsc_fault::scope`], a firing plan makes them return the same
//! typed error deterministically.
//!
//! # Examples
//!
//! ```
//! use qsc_sim::budget::{check_allocation_within, register_amplitudes};
//!
//! // A 10-qubit register fits a 1 MiB budget; a 20-qubit one does not.
//! assert!(check_allocation_within(Some(1 << 20), register_amplitudes(10), "qpe").is_ok());
//! let err = check_allocation_within(Some(1 << 20), register_amplitudes(20), "qpe");
//! assert!(err.unwrap_err().to_string().contains("budget"));
//! ```

use crate::error::SimError;

/// Bytes per stored amplitude (`Complex64`).
pub const AMP_BYTES: u128 = 16;

/// Default per-register budget: 4 GiB (a 28-qubit statevector or a
/// 14-qubit density matrix).
pub const DEFAULT_STATE_BUDGET_BYTES: u64 = 1 << 32;

/// The process-wide budget: `QSC_STATE_BUDGET_BYTES` when set to a valid
/// integer, [`DEFAULT_STATE_BUDGET_BYTES`] otherwise (binaries reject an
/// invalid value first via [`validate_state_budget`]).
pub fn state_budget_bytes() -> u64 {
    validate_state_budget().unwrap_or(DEFAULT_STATE_BUDGET_BYTES)
}

/// Resolves the process-wide budget, rejecting bad configuration.
///
/// Binaries call this at startup so a `QSC_STATE_BUDGET_BYTES` that is set
/// but is not a byte count (`4GiB`, `-1`) is a named error instead of a
/// silent fall-back to the default.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] naming the variable and its
/// value when the value is not an unsigned integer.
pub fn validate_state_budget() -> Result<u64, SimError> {
    let Some(raw) = std::env::var_os("QSC_STATE_BUDGET_BYTES") else {
        return Ok(DEFAULT_STATE_BUDGET_BYTES);
    };
    raw.to_str()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| SimError::InvalidParameter {
            context: format!(
                "QSC_STATE_BUDGET_BYTES={raw:?} is not a byte count (an unsigned integer)"
            ),
        })
}

/// Amplitude count of an `n`-qubit register (`2^n`, saturating).
pub fn register_amplitudes(num_qubits: usize) -> u128 {
    u32::try_from(num_qubits)
        .ok()
        .and_then(|n| 1u128.checked_shl(n))
        .unwrap_or(u128::MAX)
}

/// Checks `num_amps` amplitudes against the process-wide budget.
///
/// # Errors
///
/// Returns [`SimError::BudgetExceeded`] if the estimated footprint
/// exceeds the budget, or when an armed fault plan fires the
/// `allocation` point.
pub fn check_allocation(num_amps: u128, context: &str) -> Result<(), SimError> {
    check_allocation_within(None, num_amps, context)
}

/// [`check_allocation`] against an explicit budget (`None` = the
/// process-wide one).
///
/// # Errors
///
/// Same contract as [`check_allocation`].
pub fn check_allocation_within(
    budget_bytes: Option<u64>,
    num_amps: u128,
    context: &str,
) -> Result<(), SimError> {
    let budget = u128::from(budget_bytes.unwrap_or_else(state_budget_bytes));
    let requested = num_amps.saturating_mul(AMP_BYTES);
    if qsc_fault::should_fire(qsc_fault::FaultPoint::Allocation) {
        return Err(SimError::BudgetExceeded {
            requested_bytes: requested,
            budget_bytes: budget,
            context: format!("{context} (injected fault)"),
        });
    }
    if requested > budget {
        return Err(SimError::BudgetExceeded {
            requested_bytes: requested,
            budget_bytes: budget,
            context: context.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_fault::{scope, FaultPlan, FaultPoint};

    #[test]
    fn small_registers_pass_the_default_budget() {
        assert!(check_allocation(register_amplitudes(12), "test").is_ok());
    }

    #[test]
    fn oversized_registers_return_budget_exceeded() {
        let err = check_allocation_within(Some(1024), register_amplitudes(10), "register")
            .expect_err("16 KiB > 1 KiB budget");
        match err {
            SimError::BudgetExceeded {
                requested_bytes,
                budget_bytes,
                ..
            } => {
                assert_eq!(requested_bytes, 1024 * 16);
                assert_eq!(budget_bytes, 1024);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn huge_qubit_counts_saturate_instead_of_overflowing() {
        assert!(check_allocation(register_amplitudes(1000), "huge").is_err());
        // Widths past `u32` must not wrap to a tiny shift.
        assert_eq!(register_amplitudes(1 << 32), u128::MAX);
        assert_eq!(register_amplitudes(1 << 53), u128::MAX);
    }

    #[test]
    fn injected_allocation_fault_fires_deterministically() {
        let plan = FaultPlan::seeded(9).with_rate(FaultPoint::Allocation, 1.0);
        let err = scope(plan, 0, || check_allocation(16, "tiny")).expect_err("must fire");
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The identical request outside the scope passes.
        assert!(check_allocation(16, "tiny").is_ok());
    }
}
