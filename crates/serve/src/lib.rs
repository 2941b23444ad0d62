//! `qsc-serve` — a dependency-free sweep service over the experiment
//! engine.
//!
//! The service turns the local [`SweepRunner`](qsc_bench::SweepRunner)
//! into a shared, cached endpoint: clients `POST` the same
//! `ExperimentSpec` JSON documents the `experiments` binary reads, the
//! server validates them with the strict `qsc-json` parser (syntax
//! errors answer `400` with the parser's line/col message), executes
//! them through the existing batch runner — so served tables are
//! **bit-identical** to local runs — and keys every finished result in a
//! content-addressed cache (`SHA-256`, [`qsc_json::sha256`], of canonical spec JSON + code
//! version + scale). Re-submitting a spec anyone has run before answers
//! from disk without invoking the simulator.
//!
//! Built entirely on `std::net` (HTTP/1.1, `Connection: close`, chunked
//! transfer for row streaming): no framework, no async runtime, no new
//! dependencies — matching the workspace's offline discipline.
//!
//! # Layers
//!
//! | Module | Role |
//! |---|---|
//! | [`cache`] | checksummed on-disk result cache; corrupt entries evicted, never served |
//! | [`job`] | bounded backpressure queue, worker pool, per-job progress |
//! | [`http`] | the request as routing sees it (framing is `qsc_sim::http`) |
//! | [`exec`] | the executor endpoint: hosted backends behind `POST /v1/exec` |
//! | [`server`] | routing, the endpoints, the accept loop |
//!
//! See `docs/SERVICE.md` for the HTTP API reference, and
//! `qsc_bench::client` for the matching client (`experiments --submit`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod exec;
pub mod http;
pub mod job;
pub mod server;

pub use cache::{cache_key, code_version, CachedResult, ResultCache, CACHE_EPOCH};
pub use exec::{ExecError, ExecHost};
pub use job::{Job, JobSnapshot, JobSystem, Phase, SubmitError};
pub use server::{ServeConfig, ServeError, Server};

#[cfg(test)]
mod fuzz;
