//! Service throughput (PR: "Sweep service with content-addressed cache").
//!
//! One in-process server, exercised over real TCP through the same
//! `qsc_bench::client` the `--submit` mode uses. Three angles:
//!
//! * `submit_hit` — latency of a submission answered from the
//!   content-addressed cache (no simulator).
//! * `submit_miss` — full miss round trip: validate, queue, execute the
//!   (tiny) sweep, persist, poll to done (each iteration gets a fresh
//!   key via a counter-stamped title, so every one is a true miss).
//! * `concurrent` — eight client threads submitting the same cached
//!   spec at once: the accept-loop + per-connection-thread path under
//!   contention.

use criterion::{criterion_group, criterion_main, Criterion};
use qsc_bench::client::{fetch_result, submit, wait_done};
use qsc_serve::{ServeConfig, Server};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A deliberately tiny sweep (one grid point, classical variant only, one
/// repetition) so miss timings measure the service path, not the solver.
fn tiny_spec(tag: &str) -> String {
    format!(
        r#"{{
  "name": "bench_tiny",
  "title": "serve bench {tag}",
  "kind": "pipeline",
  "graph": {{"family": "dsbm", "k": 2, "p_intra": 0.4, "p_inter": 0.05}},
  "reps": 1,
  "base": {{"k": 2}},
  "variants": [{{"name": "classical"}}],
  "axes": [{{"name": "n", "path": "graph.n", "values": [32]}}],
  "columns": [
    {{"header": "n", "axis": "n"}},
    {{"header": "acc", "variant": "classical", "metric": "matched_accuracy"}}
  ]
}}"#
    )
}

fn start_server() -> Server {
    let dir = std::env::temp_dir().join(format!("qsc-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 256,
        cache_dir: dir,
        ..ServeConfig::default()
    })
    .expect("start bench server")
}

fn bench_serve(c: &mut Criterion) {
    let server = start_server();
    let base = server.base_url();
    let timeout = Duration::from_secs(60);

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);

    // Prime the cache so the hit path is actually a hit.
    let primed = tiny_spec("hot");
    let ticket = submit(&base, &primed, "quick", timeout).expect("prime submit");
    wait_done(&base, &ticket.id, timeout).expect("prime run");

    group.bench_function("submit_hit", |b| {
        b.iter(|| {
            let ticket = submit(&base, black_box(&primed), "quick", timeout).expect("hit submit");
            assert_eq!(ticket.cache, "hit");
            black_box(fetch_result(&base, &ticket.id, "csv").expect("hit result"))
        })
    });

    let counter = AtomicU64::new(0);
    group.bench_function("submit_miss", |b| {
        b.iter(|| {
            let unique = tiny_spec(&format!("miss-{}", counter.fetch_add(1, Ordering::Relaxed)));
            let ticket = submit(&base, &unique, "quick", timeout).expect("miss submit");
            assert_eq!(ticket.cache, "miss");
            wait_done(&base, &ticket.id, timeout).expect("miss run");
            black_box(fetch_result(&base, &ticket.id, "csv").expect("miss result"))
        })
    });

    group.bench_function("concurrent_hit_x8", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        let ticket =
                            submit(&base, &primed, "quick", timeout).expect("concurrent submit");
                        assert_eq!(ticket.cache, "hit");
                    });
                }
            })
        })
    });

    group.finish();
    drop(server);
}

/// Loopback executor round trips per `Backend` op next to the in-process
/// baseline the wire path reproduces bit-identically — the gap is the whole
/// cost of offloading (canonical-JSON encode, HTTP/1.1, decode). The
/// `estimate_probability` pair is the floor: one scalar in, one scalar out,
/// so its remote timing is essentially the bare round trip.
fn bench_remote_roundtrip(c: &mut Criterion) {
    use qsc_core::config::BackendConfig;
    use qsc_sim::{Circuit, Op};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let dir = std::env::temp_dir().join(format!("qsc-exec-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0, // exec requests are served by connection threads
        cache_dir: dir,
        ..ServeConfig::default()
    })
    .expect("start executor");

    let local = BackendConfig::Statevector.build().expect("local backend");
    let remote = BackendConfig::Remote {
        addr: server.local_addr().to_string(),
        inner: Box::new(BackendConfig::Statevector),
    }
    .build()
    .expect("remote backend");

    let mut ghz = Circuit::new(4);
    ghz.push(Op::H(0)).expect("op");
    for q in 0..3 {
        ghz.push(Op::Cnot {
            control: q,
            target: q + 1,
        })
        .expect("op");
    }

    let mut group = c.benchmark_group("remote_roundtrip");
    group.sample_size(10);
    for (label, backend) in [("run_local", &local), ("run_remote", &remote)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(11);
                black_box(
                    backend
                        .execute(black_box(&ghz), 0, &mut rng)
                        .expect("ghz runs"),
                )
            })
        });
    }
    for (label, backend) in [("sample_local", &local), ("sample_remote", &remote)] {
        let mut rng = StdRng::seed_from_u64(11);
        let state = backend.execute(&ghz, 0, &mut rng).expect("ghz runs");
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(23);
                black_box(
                    backend
                        .sample(black_box(&state), 256, &mut rng)
                        .expect("sampling succeeds"),
                )
            })
        });
    }
    for (label, backend) in [
        ("estimate_probability_local", &local),
        ("estimate_probability_remote", &remote),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(37);
                black_box(
                    backend
                        .estimate_probability(black_box(0.375), &mut rng)
                        .expect("scalar estimate succeeds"),
                )
            })
        });
    }
    group.finish();
    drop(server);
}

criterion_group!(serve, bench_serve, bench_remote_roundtrip);
criterion_main!(serve);
