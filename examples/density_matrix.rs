//! Exact noise channels on the density-matrix backend — the worked
//! example behind `docs/BACKENDS.md`.
//!
//! Part 1 shows the relationship between the two noise backends on one
//! circuit: `NoisyStatevector` samples Monte-Carlo *trajectories* of the
//! depolarizing channel, so its averaged outcome distribution wanders
//! toward the truth at `O(1/√N)`; `DensityMatrix` evolves `ρ` under the
//! same channel's Kraus operators and lands on the expectation value
//! directly. Part 2 runs the full clustering pipeline on the exact
//! backend: the noise-degradation curve comes out smooth with **zero**
//! run-to-run variance — no repetitions needed to average anything out.
//!
//! ```text
//! cargo run --release --example density_matrix
//! ```

use qsc_suite::cluster::metrics::matched_accuracy;
use qsc_suite::core::{DensityMatrix, Pipeline, QuantumParams};
use qsc_suite::graph::generators::{dsbm, DsbmParams, MetaGraph};
use qsc_suite::sim::backend::{Backend, NoisyStatevector};
use qsc_suite::sim::circuit::{Circuit, Op};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: one GHZ-style circuit, two views of the same channel. ---
    let mut circuit = Circuit::new(3);
    circuit.push(Op::H(0))?;
    circuit.push(Op::Cnot {
        control: 0,
        target: 1,
    })?;
    circuit.push(Op::Cnot {
        control: 1,
        target: 2,
    })?;
    let p = 0.1;

    let exact_backend = DensityMatrix::new(p, 0.0);
    let mut rng = StdRng::seed_from_u64(0);
    let rho = exact_backend.execute(&circuit, 0, &mut rng)?;
    let exact = exact_backend.outcome_distribution(&rho);
    println!("GHZ under {p:.0e}-per-gate depolarizing (exact Kraus channel):");
    println!(
        "  P(000) = {:.6}   P(111) = {:.6}   purity tr(ρ²) = {:.4}",
        exact[0b000],
        exact[0b111],
        exact_backend.purity(&rho)
    );

    println!("\ntrajectory averages of the same channel (NoisyStatevector):");
    let trajectory_backend = NoisyStatevector::new(p, 0.0);
    for trajectories in [8usize, 64, 512] {
        let mut mean = [0.0f64; 8];
        for seed in 0..trajectories as u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let state = trajectory_backend.execute(&circuit, 0, &mut rng)?;
            for (slot, a) in mean.iter_mut().zip(state.amplitudes()) {
                *slot += a.norm_sqr();
            }
        }
        let l1: f64 = mean
            .iter()
            .map(|m| m / trajectories as f64)
            .zip(&exact)
            .map(|(a, b)| (a - b).abs())
            .sum();
        println!("  {trajectories:>4} trajectories: L1 distance to exact = {l1:.4}");
    }

    // --- Part 2: the clustering pipeline on the exact channel. ---
    let inst = dsbm(&DsbmParams {
        n: 120,
        k: 3,
        p_intra: 0.15,
        p_inter: 0.15,
        eta_flow: 0.8,
        meta: MetaGraph::Cycle,
        seed: 7,
        ..DsbmParams::default()
    })?;
    let params = QuantumParams::default();
    println!("\nquantum pipeline accuracy under exact depolarizing + readout noise:");
    for eps in [0.0, 0.05, 0.1, 0.2] {
        let out = Pipeline::hermitian(3)
            .seed(11)
            .quantum(&params)
            .backend(DensityMatrix::new(eps, eps))
            .run(&inst.graph)?;
        let acc = matched_accuracy(&inst.labels, &out.labels);
        println!(
            "  ε = {eps:<4}: accuracy {acc:.3} (expectation value — rerun and it repeats exactly)"
        );
    }
    Ok(())
}
