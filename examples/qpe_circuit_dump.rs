//! What would actually run on hardware: build the QPE phase-register
//! circuitry gate by gate through the circuit IR, synthesize the
//! Laplacian's evolution unitary into two-level factors, and report
//! derived vs modeled gate counts — plus an OpenQASM dump of the register
//! circuitry.
//!
//! ```text
//! cargo run --release --example qpe_circuit_dump
//! ```

use qsc_suite::graph::generators::{dsbm, DsbmParams, MetaGraph};
use qsc_suite::graph::normalized_hermitian_laplacian;
use qsc_suite::linalg::eig::eig_unitary;
use qsc_suite::linalg::expm::expi;
use qsc_suite::sim::backend::{Backend, Statevector};
use qsc_suite::sim::circuit::{Circuit, Op};
use qsc_suite::sim::qpe::qpe_circuit;
use qsc_suite::sim::resources::{qpe_resources, qubits_for_dimension};
use qsc_suite::sim::synthesis::{derived_two_qubit_count, two_level_decompose, zyz_decompose};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-vertex mixed graph: 4 system qubits.
    let inst = dsbm(&DsbmParams {
        n: 16,
        k: 2,
        p_intra: 0.6,
        p_inter: 0.6,
        eta_flow: 1.0,
        meta: MetaGraph::Cycle,
        seed: 5,
        ..DsbmParams::default()
    })?;
    let laplacian = normalized_hermitian_laplacian(&inst.graph, 0.25);
    let s = qubits_for_dimension(16);
    let t = 4; // phase-register bits for the dump

    // --- Synthesize U = e^{i·2π·𝓛/4} into two-level factors. ---
    let u = expi(&laplacian, TAU / 4.0)?;
    let factors = two_level_decompose(&u)?;
    let derived = derived_two_qubit_count(&factors, 16);
    println!(
        "evolution unitary on {s} qubits: {} two-level factors, derived ≈ {derived} two-qubit gates per application",
        factors.len()
    );
    let modeled = qpe_resources(16, t);
    println!(
        "modeled QPE pass (t = {t} bits): {} qubits, {} two-qubit gates, depth {}",
        modeled.qubits, modeled.two_qubit_gates, modeled.depth
    );

    // One factor, decomposed down to elementary rotations.
    if let Some(f) = factors.first() {
        let (alpha, beta, gamma, delta) = zyz_decompose(&f.block)?;
        println!(
            "first factor acts on basis states |{}⟩↔|{}⟩ (Hamming distance {}), block ZYZ: α={alpha:.3} β={beta:.3} γ={gamma:.3} δ={delta:.3}",
            f.i,
            f.j,
            f.hamming_distance()
        );
    }

    // --- The phase-register circuitry (Hadamards + inverse QFT), built
    // with the circuit IR's range helpers, with depth accounting and a
    // QASM dump. ---
    let mut register = Circuit::new(t);
    for q in 0..t {
        register.push(Op::H(q))?;
    }
    register.push_inverse_qft(0..t)?;
    println!(
        "\nphase-register circuitry: {} gates ({} two-qubit), depth {}",
        register.gate_count(),
        register.two_qubit_count(),
        register.depth()
    );
    std::fs::create_dir_all("results")?;
    std::fs::write("results/qpe_register.qasm", register.to_qasm())?;
    println!("wrote results/qpe_register.qasm");

    // --- The full compiled QPE circuit (what a Backend executes): the
    // cascade appears in its diagonalized form as block-operator ops, and
    // the QASM export declares them as opaque gates — nothing is dropped. ---
    let ueig = eig_unitary(&u)?;
    let compiled = qpe_circuit(&ueig, t)?;
    println!(
        "\ncompiled QPE circuit on {} qubits: {} ops, depth {}",
        compiled.num_qubits(),
        compiled.gate_count(),
        compiled.depth(),
    );
    std::fs::write("results/qpe_full.qasm", compiled.to_qasm())?;
    println!("wrote results/qpe_full.qasm");

    // Execute the compiled circuit on the statevector backend and check
    // the register against the analytic outcome distribution.
    let backend = Statevector::new();
    let mut rng = StdRng::seed_from_u64(1);
    let state = backend.execute(&compiled, 0, &mut rng)?;
    let probs = state.marginal_high(t);
    let mode = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(m, _)| m)
        .unwrap_or(0);
    println!(
        "executed on backend `{}`: modal phase-register outcome {mode}/{}",
        backend.name(),
        1 << t
    );
    Ok(())
}
