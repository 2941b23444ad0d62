//! # qsc-bench — the declarative experiment engine
//!
//! The evaluation layer of the suite: every table/figure of the
//! reconstructed paper (and any scenario you can describe) is a
//! serializable [`ExperimentSpec`] — workload generator, sweep axes,
//! pipeline variants, metrics and output columns as *data* — interpreted
//! by a generic [`SweepRunner`]. The shipped suite lives as JSON files
//! under `specs/` (embedded in [`builtin`]); adding a scenario means
//! writing a spec file, not a Rust function.
//!
//! ```text
//! cargo run -p qsc-bench --release --bin experiments                  # quick suite
//! cargo run -p qsc-bench --release --bin experiments -- --scale full  # paper scale
//! cargo run -p qsc-bench --release --bin experiments -- --only table1
//! cargo run -p qsc-bench --release --bin experiments -- --spec specs/noise_shots.json
//! cargo run -p qsc-bench --release --bin experiments -- --list
//! cargo bench                                                          # micro-benches
//! ```
//!
//! The runner batches repetitions through `Pipeline::run_many`
//! (panic-isolated per repetition, failed grid points become explicit
//! `failed(<kind>)` cells): runs whose workload, seeds and resolved recipe
//! differ only in the clustering stage (q-means `δ`, `refine`) are one
//! batch of pipeline variants, one per run, so a δ sweep stages each
//! QPE embedding once. Specs can attach a `"resilience"` block
//! (retries, deadlines, budgets, backend fallbacks, fault injection) —
//! see `docs/RESILIENCE.md`. Quick-scale output of the spec suite is
//! pinned bit-identical to the retired hand-written experiment functions
//! by the golden files under `goldens/`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod builtin;
pub mod client;
pub mod runner;
mod search_runner;
pub mod spec;

pub use runner::{BenchError, ExperimentOutput, Progress, SweepRunner};
pub use spec::{ExperimentSpec, Scale};
