//! The typed failure surfaces that gate misuse before any computation:
//! backend capability checks, configuration range validation, and the
//! strict-JSON layer surfacing malformed specs through the experiment
//! engine as errors (never panics).

use qsc_bench::ExperimentSpec;
use qsc_suite::core::config::BackendConfig;
use qsc_suite::core::{gate_level_projected_row_on, Error};
use qsc_suite::graph::generators::{dsbm, DsbmParams};
use qsc_suite::graph::normalized_hermitian_laplacian;
use qsc_suite::linalg::CMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_laplacian() -> CMatrix {
    let inst = dsbm(&DsbmParams {
        n: 8,
        k: 2,
        p_intra: 0.9,
        p_inter: 0.9,
        eta_flow: 1.0,
        seed: 21,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    normalized_hermitian_laplacian(&inst.graph, 0.25)
}

#[test]
fn gate_level_projection_rejects_density_backend() {
    // The mid-circuit post-selection reads amplitudes directly; a
    // vectorized-ρ buffer cannot support it, so the request must be
    // refused up front with a typed error.
    let backend = BackendConfig::Density {
        depolarizing: 0.0,
        readout_flip: 0.0,
    }
    .build()
    .expect("density backend builds");
    let l = small_laplacian();
    let mut rng = StdRng::seed_from_u64(0);
    let err = gate_level_projected_row_on(backend.as_ref(), &mut rng, &l, 0, 3, 4.0, 0.5)
        .expect_err("density backend must be rejected");
    match err {
        Error::InvalidRequest { context } => {
            assert!(context.contains("pure-state"), "context: {context}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
}

#[test]
fn noise_probabilities_outside_unit_interval_are_rejected() {
    let err = match (BackendConfig::Noisy {
        depolarizing: 1.5,
        readout_flip: 0.0,
    })
    .build()
    {
        Err(e) => e,
        Ok(_) => panic!("p > 1 must be rejected"),
    };
    assert!(err.to_string().contains("[0, 1]"), "message: {err}");
}

/// A minimal pipeline spec that parses cleanly; the strict-JSON tests
/// below mutate it into the failure cases.
fn minimal_spec(resilience: &str) -> String {
    format!(
        r#"{{
  "name": "tiny",
  "title": "minimal",
  "kind": "pipeline",
  "graph": {{"family": "dsbm", "k": 2, "p_intra": 0.3, "p_inter": 0.1, "eta_flow": 0.8, "meta": "cycle"}},
  "reps": 1,
  "base": {{"k": 2}},{resilience}
  "variants": [{{"name": "classical"}}],
  "axes": [{{"name": "n", "path": "graph.n", "values": [32]}}],
  "columns": [
    {{"header": "n", "axis": "n"}},
    {{"header": "acc", "metric": "matched_accuracy", "mean_std": 3}}
  ]
}}"#
    )
}

#[test]
fn minimal_spec_parses() {
    ExperimentSpec::parse(&minimal_spec("")).expect("the template itself must be valid");
}

#[test]
fn duplicate_keys_are_rejected_by_the_strict_json_layer() {
    let text = minimal_spec("").replacen(r#""reps": 1,"#, r#""reps": 1, "reps": 2,"#, 1);
    let err = ExperimentSpec::parse(&text).expect_err("duplicate key must be rejected");
    assert!(err.message.contains("duplicate key `reps`"), "{err}");
}

#[test]
fn unknown_spec_fields_are_rejected() {
    let text = minimal_spec("").replacen(r#""reps": 1,"#, r#""reps": 1, "repss": 2,"#, 1);
    let err = ExperimentSpec::parse(&text).expect_err("unknown field must be rejected");
    assert!(err.message.contains("unknown field `repss`"), "{err}");
}

#[test]
fn resilience_block_rejects_unknown_fault_points() {
    let text = minimal_spec(
        r#"
  "resilience": {"fault_plan": {"seed": 1, "rates": {"task_strat": 0.5}}},"#,
    );
    let err = ExperimentSpec::parse(&text).expect_err("typo'd fault point must be rejected");
    assert!(
        err.message.contains("unknown fault point `task_strat`"),
        "{err}"
    );
}

#[test]
fn resilience_block_rejects_rates_outside_unit_interval() {
    let text = minimal_spec(
        r#"
  "resilience": {"fault_plan": {"seed": 1, "rates": {"task_start": 1.5}}},"#,
    );
    let err = ExperimentSpec::parse(&text).expect_err("rate > 1 must be rejected");
    assert!(err.message.contains("outside [0, 1]"), "{err}");
}

#[test]
fn resilience_block_round_trips_through_spec_json() {
    let text = minimal_spec(
        r#"
  "resilience": {
    "retries": 2,
    "deadline_ms": 5000,
    "state_budget_bytes": 1048576,
    "fallbacks": ["statevector", {"density": {"depolarizing": 0.01}}],
    "fault_plan": {"seed": 7, "rates": {"task_start": 0.5, "allocation": 0.1}}
  },"#,
    );
    let spec = ExperimentSpec::parse(&text).expect("resilience block parses");
    let reserialized = {
        use qsc_json::ToJson;
        spec.to_json().pretty()
    };
    let back = ExperimentSpec::parse(&reserialized).expect("reserialized spec parses");
    assert_eq!(back, spec, "resilience block does not round-trip");
}
