//! The deterministic fault-injection harness end to end: panic isolation
//! on the worker pool, seeded fault plans that reproduce bit-identically
//! regardless of worker count, retry/fallback policies, and typed failure
//! kinds for Lanczos non-convergence and budget exhaustion.
//!
//! CI's test matrix runs this file under `RAYON_NUM_THREADS` 1, 2 and 4;
//! every assertion here is derived from the fault plan's pure decision
//! function, so the expected pattern is the same at any worker count.

use qsc_suite::core::config::BackendConfig;
use qsc_suite::core::{
    ClusteringOutcome, Error, FailureKind, FaultPlan, FaultPoint, GraphInstance, LanczosCsr,
    Pipeline, QuantumParams, ResiliencePolicy,
};
use qsc_suite::graph::generators::{dsbm, DsbmParams, MetaGraph, PlantedGraph};

/// An outcome with the (inherently non-deterministic) wall-time diagnostic
/// zeroed, so runs can be compared bit for bit on everything that matters.
fn timeless(out: &ClusteringOutcome) -> ClusteringOutcome {
    let mut out = out.clone();
    out.diagnostics.wall_seconds = 0.0;
    out
}

fn flow_instance(n: usize, seed: u64) -> PlantedGraph {
    dsbm(&DsbmParams {
        n,
        k: 2,
        p_intra: 0.3,
        p_inter: 0.1,
        eta_flow: 0.8,
        meta: MetaGraph::Cycle,
        seed,
        ..DsbmParams::default()
    })
    .expect("valid params")
}

/// The seed perturbation `Pipeline::guarded` applies per retry attempt
/// (attempt 0 runs the unmodified seed).
fn attempt_seed(seed: u64, attempt: u64) -> u64 {
    seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[test]
fn isolated_runner_matches_plain_runner_without_faults() {
    let insts: Vec<PlantedGraph> = (0..4).map(|i| flow_instance(40, 10 + i)).collect();
    let batch: Vec<GraphInstance<'_>> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let pl = Pipeline::hermitian(2).seed(3);
    let plain = pl.run_many(&batch).expect("plain batch");
    let isolated = pl.run_many_isolated(&batch);
    assert_eq!(isolated.len(), plain.len());
    for (iso, exp) in isolated.iter().zip(&plain) {
        let out = iso.as_ref().expect("no faults injected");
        assert_eq!(
            timeless(out),
            timeless(exp),
            "isolated runner must be bit-identical"
        );
    }
}

#[test]
fn injected_panics_are_isolated_and_deterministic() {
    let plan = FaultPlan::seeded(7).with_rate(FaultPoint::TaskStart, 0.5);
    let insts: Vec<PlantedGraph> = (0..8).map(|i| flow_instance(30, 20 + i)).collect();
    let batch: Vec<GraphInstance<'_>> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let pl = Pipeline::hermitian(2)
        .resilience(ResiliencePolicy {
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");

    // Ground truth from the plan's pure decision function: instance seed
    // `s` panics at task start iff the plan decides so at site 0. This is
    // what makes the pattern identical at any worker count.
    let expected: Vec<bool> = (0..batch.len() as u64)
        .map(|s| plan.decides(FaultPoint::TaskStart, s, 0))
        .collect();
    assert!(
        expected.iter().any(|&f| f) && expected.iter().any(|&f| !f),
        "plan seed must mix failures and survivors for this test"
    );

    let first = pl.run_many_isolated(&batch);
    for (slot, &fails) in first.iter().zip(&expected) {
        match slot {
            Ok(_) => assert!(!fails, "survivor where the plan decides a panic"),
            Err(e) => {
                assert!(fails, "failure where the plan decides none");
                assert_eq!(e.kind, FailureKind::Panic);
                assert_eq!(e.attempts, 1);
                assert!(e.message.contains("task_start"), "message: {}", e.message);
            }
        }
    }

    // Same plan, same batch → byte-identical reports; and the worker pool
    // survived the panics (a plain batch still runs afterwards).
    let second = pl.run_many_isolated(&batch);
    for (a, b) in first.iter().zip(&second) {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(timeless(x), timeless(y)),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("run-to-run failure pattern diverged"),
        }
    }
    let plain = Pipeline::hermitian(2)
        .seed(3)
        .run_many(&batch)
        .expect("pool usable after isolated panics");
    assert_eq!(plain.len(), batch.len());
}

#[test]
fn retries_rerun_with_perturbed_seeds() {
    let plan = FaultPlan::seeded(11).with_rate(FaultPoint::TaskStart, 0.5);
    // Find an instance seed whose first attempt panics but whose retry
    // (perturbed seed) survives — pure plan arithmetic, no execution.
    let seed = (0..200u64)
        .find(|&s| {
            plan.decides(FaultPoint::TaskStart, attempt_seed(s, 0), 0)
                && !plan.decides(FaultPoint::TaskStart, attempt_seed(s, 1), 0)
        })
        .expect("some seed fails then recovers");
    let inst = flow_instance(30, 1);
    let batch = [GraphInstance::with_seed(&inst.graph, seed)];

    let fail_fast = Pipeline::hermitian(2)
        .resilience(ResiliencePolicy {
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let err = fail_fast.run_many_isolated(&batch)[0]
        .as_ref()
        .expect_err("no retries → the injected panic is final")
        .clone();
    assert_eq!(err.kind, FailureKind::Panic);

    let with_retry = Pipeline::hermitian(2)
        .resilience(ResiliencePolicy {
            retries: 1,
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let out = with_retry.run_many_isolated(&batch);
    assert!(
        out[0].is_ok(),
        "retry with perturbed seed must survive: {:?}",
        out[0].as_ref().err()
    );
}

#[test]
fn lanczos_iteration_fault_reports_non_convergence() {
    let plan = FaultPlan::seeded(5).with_rate(FaultPoint::LanczosIteration, 1.0);
    let inst = flow_instance(40, 2);
    let batch = [GraphInstance::with_seed(&inst.graph, 0)];
    let pl = Pipeline::hermitian(2)
        .embedder(LanczosCsr)
        .resilience(ResiliencePolicy {
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let err = pl.run_many_isolated(&batch)[0]
        .as_ref()
        .expect_err("every Lanczos iteration is sabotaged")
        .clone();
    assert_eq!(err.kind, FailureKind::NonConvergence);
}

#[test]
fn policy_budget_fails_quantum_stage_with_budget_kind() {
    let inst = flow_instance(30, 3);
    let batch = [GraphInstance::with_seed(&inst.graph, 0)];
    let pl = Pipeline::hermitian(2)
        .quantum(&QuantumParams::default())
        .resilience(ResiliencePolicy {
            // Far below the 2^qpe_bits phase-register estimate.
            state_budget_bytes: Some(512),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let err = pl.run_many_isolated(&batch)[0]
        .as_ref()
        .expect_err("512-byte budget cannot hold a phase register")
        .clone();
    assert_eq!(err.kind, FailureKind::Budget);
    assert!(
        err.message.contains("qpe phase register"),
        "message: {}",
        err.message
    );
}

#[test]
fn budget_failure_degrades_through_fallback_chain() {
    // qpe_bits = 14 exceeds the density-matrix backend's phase-register
    // cap → a budget failure; the fallback chain degrades to the exact
    // statevector backend, which handles it.
    let inst = flow_instance(8, 4);
    let qp = QuantumParams {
        qpe_bits: 14,
        ..QuantumParams::default()
    };
    let batch = [GraphInstance::with_seed(&inst.graph, 0)];

    let no_fallback = Pipeline::hermitian(2)
        .quantum(&qp)
        .backend_config(&BackendConfig::Density {
            depolarizing: 0.01,
            readout_flip: 0.0,
        })
        .expect("backend")
        .resilience(ResiliencePolicy::default())
        .expect("policy");
    let err = no_fallback.run_many_isolated(&batch)[0]
        .as_ref()
        .expect_err("no fallbacks → the budget failure is final")
        .clone();
    assert_eq!(err.kind, FailureKind::Budget);

    let degraded = Pipeline::hermitian(2)
        .quantum(&qp)
        .backend_config(&BackendConfig::Density {
            depolarizing: 0.01,
            readout_flip: 0.0,
        })
        .expect("backend")
        .resilience(ResiliencePolicy {
            fallbacks: vec![BackendConfig::Statevector],
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let out = degraded.run_many_isolated(&batch);
    assert!(
        out[0].is_ok(),
        "fallback to statevector must succeed: {:?}",
        out[0].as_ref().err()
    );
}

#[test]
fn invalid_requests_fail_immediately_without_retries() {
    // k = 0 is inconsistent on every backend and every retry: the policy
    // must not burn attempts on it.
    let inst = flow_instance(20, 5);
    let batch = [GraphInstance::with_seed(&inst.graph, 0)];
    let pl = Pipeline::hermitian(0)
        .resilience(ResiliencePolicy {
            retries: 3,
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let err = pl.run_many_isolated(&batch)[0]
        .as_ref()
        .expect_err("k = 0 is invalid")
        .clone();
    assert_eq!(err.kind, FailureKind::Invalid);
    assert_eq!(err.attempts, 1, "invalid requests must not be retried");
}

#[test]
fn nan_guard_classifies_as_numeric_failure() {
    // The embedding NaN/∞ guard maps to Error::NonFinite, whose kind is
    // `numeric` — checked here through the public classifier so the chaos
    // taxonomy stays covered end to end.
    let e = Error::NonFinite {
        context: "embedding row 0 from the `dense_eig` stage".into(),
    };
    assert_eq!(FailureKind::classify(&e), FailureKind::NonFinite);
    assert_eq!(FailureKind::NonFinite.name(), "numeric");
}

/// A remote backend hosting a plain statevector at `addr`.
fn remote_config(addr: &str) -> BackendConfig {
    BackendConfig::Remote {
        addr: addr.into(),
        inner: Box::new(BackendConfig::Statevector),
    }
}

#[test]
fn remote_call_drops_classify_as_transport_errors() {
    // Rate 1.0 drops every remote call *before* it touches the network,
    // so the (dead) address below is never actually contacted.
    let plan = FaultPlan::seeded(13).with_rate(FaultPoint::RemoteCall, 1.0);
    let inst = flow_instance(20, 6);
    let batch = [GraphInstance::with_seed(&inst.graph, 0)];
    let pl = Pipeline::hermitian(2)
        .quantum(&QuantumParams::default())
        .backend_config(&remote_config("127.0.0.1:1"))
        .expect("backend")
        .resilience(ResiliencePolicy {
            retries: 2,
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let err = pl.run_many_isolated(&batch)[0]
        .as_ref()
        .expect_err("every remote call drops and there is no fallback")
        .clone();
    assert_eq!(err.kind, FailureKind::Other);
    assert_eq!(err.kind.name(), "error");
    assert_eq!(
        err.attempts, 3,
        "transport failures retry the same executor before giving up"
    );
    assert!(
        err.message.contains("remote_call"),
        "message: {}",
        err.message
    );
}

#[test]
fn remote_drops_fall_back_to_local_without_perturbing_the_seed() {
    // Transport failures never start the work, so they must not advance
    // the retry seed perturbation: once the fallback chain degrades to the
    // local inner backend, the outcome is bit-identical to a plain local
    // run — the strongest observable proof that attempt 0's seed survived
    // the dead executor.
    let plan = FaultPlan::seeded(21).with_rate(FaultPoint::RemoteCall, 1.0);
    let insts: Vec<PlantedGraph> = (0..3).map(|i| flow_instance(20, 60 + i)).collect();
    let batch: Vec<GraphInstance<'_>> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let qp = QuantumParams::default();
    let expected = Pipeline::hermitian(2)
        .quantum(&qp)
        .run_many(&batch)
        .expect("local ground truth");
    let remote = Pipeline::hermitian(2)
        .quantum(&qp)
        .backend_config(&remote_config("127.0.0.1:1"))
        .expect("backend")
        .resilience(ResiliencePolicy {
            fallbacks: vec![BackendConfig::Statevector],
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let out = remote.run_many_isolated(&batch);
    for (got, exp) in out.iter().zip(&expected) {
        let got = got.as_ref().expect("the fallback chain must engage");
        assert_eq!(
            timeless(got),
            timeless(exp),
            "fallback outcome must be bit-identical to a local run"
        );
    }
}

#[test]
fn remote_fault_pattern_is_worker_count_invariant() {
    // A real loopback executor serves the calls the plan lets through;
    // dropped calls (rate 0.5, decided by the pure plan hash) exhaust the
    // retry and degrade to the local inner. Either way every instance must
    // be bit-identical to a plain local run — at any worker count, which
    // is what CI's test matrix re-checks over this file.
    let cache_dir = std::env::temp_dir().join(format!("qsc-fault-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = qsc_serve::Server::start(qsc_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0, // exec requests are served by connection threads
        cache_dir,
        ..qsc_serve::ServeConfig::default()
    })
    .expect("executor starts");
    let addr = server.local_addr().to_string();

    let plan = FaultPlan::seeded(31).with_rate(FaultPoint::RemoteCall, 0.5);
    let insts: Vec<PlantedGraph> = (0..4).map(|i| flow_instance(16, 80 + i)).collect();
    let batch: Vec<GraphInstance<'_>> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let qp = QuantumParams::default();
    let expected = Pipeline::hermitian(2)
        .quantum(&qp)
        .run_many(&batch)
        .expect("local ground truth");
    let remote = Pipeline::hermitian(2)
        .quantum(&qp)
        .backend_config(&remote_config(&addr))
        .expect("backend")
        .resilience(ResiliencePolicy {
            retries: 1,
            fallbacks: vec![BackendConfig::Statevector],
            fault_plan: Some(plan),
            ..ResiliencePolicy::default()
        })
        .expect("policy");
    let first = remote.run_many_isolated(&batch);
    let second = remote.run_many_isolated(&batch);
    for ((a, b), exp) in first.iter().zip(&second).zip(&expected) {
        let a = a.as_ref().expect("fallback covers every injected drop");
        let b = b.as_ref().expect("fallback covers every injected drop");
        assert_eq!(timeless(a), timeless(b), "run-to-run divergence");
        assert_eq!(
            timeless(a),
            timeless(exp),
            "remote/fallback mix must equal the local run bit for bit"
        );
    }
}

#[test]
fn clusterer_sweep_isolation_matches_plain_sweep() {
    use qsc_suite::core::{Clusterer, KMeans};
    use std::sync::Arc;

    let insts: Vec<PlantedGraph> = (0..3).map(|i| flow_instance(30, 40 + i)).collect();
    let batch: Vec<GraphInstance<'_>> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let clusterers: Vec<Arc<dyn Clusterer>> = vec![Arc::new(KMeans), Arc::new(KMeans)];
    let pl = Pipeline::hermitian(2).seed(9);
    let plain = pl
        .run_many_clusterers(&batch, &clusterers)
        .expect("plain sweep");
    let isolated = pl.run_many_clusterers_isolated(&batch, &clusterers);
    for (iso, exp) in isolated.iter().zip(&plain) {
        let iso = iso.as_ref().expect("no faults injected");
        assert_eq!(iso.len(), exp.len());
        for (a, b) in iso.iter().zip(exp) {
            assert_eq!(timeless(a), timeless(b));
        }
    }
}

/// `specs/chaos.json` at quick scale: failed cells and failure counts
/// follow from the fault plan alone, so the table is pinned byte for byte
/// (at every worker count of CI's test matrix). The sweep is only a chaos
/// test if something actually failed: the table must show both
/// whole-cell failure kinds and a non-zero `failed/total` count.
#[test]
fn chaos_spec_quick_csv_matches_golden() {
    use qsc_bench::{ExperimentSpec, Scale, SweepRunner};
    let spec = ExperimentSpec::parse(include_str!("../specs/chaos.json")).expect("spec parses");
    let output = SweepRunner::new(Scale::Quick)
        .run(&spec)
        .expect("chaos sweep runs");
    let csv = output.primary.to_csv();
    assert_eq!(
        csv,
        include_str!("../crates/bench/goldens/chaos_quick.csv"),
        "chaos table drifted from its golden"
    );
    for kind in ["non_convergence", "budget"] {
        assert!(
            csv.contains(&format!("failed({kind})")),
            "no failed({kind}) cell in the chaos CSV"
        );
    }
    // A `failed/total` cell with `failed > 0`.
    let nonzero_count = |cell: &str| {
        cell.split_once('/').is_some_and(|(failed, total)| {
            total.parse::<usize>().is_ok() && failed.parse::<usize>().is_ok_and(|n| n > 0)
        })
    };
    assert!(
        csv.lines()
            .flat_map(|row| row.split(','))
            .any(nonzero_count),
        "no non-zero failure count in the chaos CSV"
    );
}
