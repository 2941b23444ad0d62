//! The graph workloads: flow-DSBM instances clustered in-process, one
//! graph at a time, through `Pipeline::run`.

use crate::trace::Tracer;
use crate::{median, mix, quantile, Run, Settings, SETUP_INTERVAL_S};
use qsc_cluster::kmeans::{kmeans, KMeansConfig};
use qsc_cluster::metrics::matched_accuracy;
use qsc_core::config::{ClusteringConfig, QuantumParams};
use qsc_core::{ClusteringOutcome, LanczosCsr, Pipeline, StagedEmbedding};
use qsc_graph::generators::{dsbm, DsbmParams, MetaGraph, PlantedGraph};
use qsc_graph::{normalized_hermitian_laplacian_csr, Q_CLASSICAL};
use qsc_linalg::eig::{tql_implicit, tridiagonalize};
use qsc_linalg::lanczos::lanczos_lowest_k_csr;
use qsc_linalg::{eigh, Complex64, CsrMatrix};
use qsc_sim::amplitude::estimate_norm;
use qsc_sim::backend::{Backend, Statevector};
use qsc_sim::tomography::tomography_complex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Vertices of the `dense_dsbm` graphs.
pub const DENSE_N: usize = 128;

/// Vertices of the `sparse_dsbm` graphs.
pub const SPARSE_N: usize = 500;

/// Lowest matched accuracy an operation may reach (1.000 on every seed
/// when the benchmark was defined, for both pipelines).
pub const ACCURACY_FLOOR: f64 = 0.99;

/// Clusters per graph.
const K: usize = 3;

/// Mean degree of the sparse-workload graphs.
const SPARSE_DEGREE: f64 = 30.0;

/// Distinct graphs generated per set-up; operations cycle through them.
const POOL: usize = 4;

/// Set-ups before the operations start; the last one's graphs are used.
const SETUPS: usize = 3;

/// `CsrMatrix::matvec` calls timed per operation in the traced run.
const MATVEC_REPS: usize = 64;

/// Which pipeline the workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Dense `eigh` + k-means at [`DENSE_N`]; the traced run also runs the
    /// quantum pipeline on every graph.
    Dense,
    /// Lanczos on the CSR Laplacian + k-means at [`SPARSE_N`].
    Sparse,
}

fn graph_params(flavor: Flavor, seed: u64, index: usize) -> DsbmParams {
    let (n, p) = match flavor {
        Flavor::Dense => (DENSE_N, 0.25),
        Flavor::Sparse => (SPARSE_N, SPARSE_DEGREE / SPARSE_N as f64),
    };
    DsbmParams {
        n,
        k: K,
        p_intra: p,
        p_inter: p,
        eta_flow: 0.9,
        meta: MetaGraph::Cycle,
        seed: mix(seed, index as u64),
        ..DsbmParams::default()
    }
}

fn pipeline(flavor: Flavor, seed: u64) -> Pipeline {
    let base = Pipeline::hermitian(K).seed(seed);
    match flavor {
        Flavor::Dense => base,
        Flavor::Sparse => base.embedder(LanczosCsr),
    }
}

/// Runs one graph workload.
///
/// # Errors
///
/// Returns a message when a graph cannot be generated.
pub fn run(flavor: Flavor, settings: &Settings) -> Result<Run, String> {
    let tracer = Tracer::new(settings.trace);
    let mut run = Run::default();
    let mut dsbm_s = Vec::new();

    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        pool = set_up(flavor, settings.seed, &mut run, &mut dsbm_s)?;
    }
    let mut last_setup = Instant::now();
    run.n = Some(pool[0].0.graph.num_vertices());

    let start = Instant::now();
    let mut op = 0usize;
    while op == 0 || start.elapsed().as_secs_f64() < settings.seconds {
        let (instance, seed) = &pool[op % POOL];
        let pl = pipeline(flavor, *seed);
        let t = Instant::now();
        let outcome = tracer.span(op, "op", || {
            if tracer.enabled() {
                // `run` is exactly `embed` followed by `cluster`.
                let staged = tracer.span(op, "pipeline.embed", || pl.embed(&instance.graph))?;
                let out = tracer.span(op, "pipeline.cluster", || pl.cluster(&staged))?;
                Ok((out, Some(staged)))
            } else {
                pl.run(&instance.graph).map(|out| (out, None))
            }
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let checked = outcome
            .map_err(|e: qsc_core::Error| format!("op {op}: pipeline failed: {e}"))
            .and_then(|(out, staged)| {
                check_accuracy(op, "classical", instance, &out)?;
                Ok((out, staged))
            });
        match checked {
            Ok((out, staged)) => {
                run.record(ms, Ok(()));
                if op == 0 {
                    run.layer(
                        "cluster.kmeans_iterations",
                        out.diagnostics.kmeans_iterations as f64,
                    );
                }
                if let Some(staged) = staged {
                    let probe = Probe {
                        op,
                        instance,
                        seed: *seed,
                        tracer: &tracer,
                    };
                    if let Err(e) = probe.layers(flavor, &staged, &out, &mut run) {
                        run.fail(format!("op {op}: layer probe failed: {e}"));
                    }
                }
            }
            Err(e) => run.record(ms, Err(e)),
        }
        if last_setup.elapsed().as_secs_f64() >= SETUP_INTERVAL_S {
            // Regenerates the pool (same seeds, same graphs) only to time it.
            set_up(flavor, settings.seed, &mut run, &mut dsbm_s)?;
            last_setup = Instant::now();
        }
        op += 1;
    }

    if tracer.enabled() {
        let per_op = |name: &str| median(&tracer.per_op_seconds(name));
        run.layer("e2e.latency_ms_p10", quantile(&run.latency_ms, 0.1));
        run.layer("e2e.latency_ms_p50", median(&run.latency_ms));
        run.layer("e2e.latency_ms_p99", quantile(&run.latency_ms, 0.99));
        run.layer("graph.dsbm_s", median(&dsbm_s));
        for (metric, span) in [
            ("graph.laplacian_s", "graph.laplacian"),
            ("eig.to_dense_s", "eig.to_dense"),
            ("eig.tridiagonalize_s", "eig.tridiagonalize"),
            ("eig.tql_s", "eig.tql"),
            ("eig.eigh_s", "eig.eigh"),
            ("lanczos.csr_s", "lanczos.csr"),
            ("qsim.phase_distribution_s", "qsim.phase_distribution"),
            ("qsim.tomography_s", "qsim.tomography"),
            ("qsim.estimate_norm_s", "qsim.estimate_norm"),
            ("pipeline.embed_s", "pipeline.embed"),
            ("pipeline.cluster_s", "pipeline.cluster"),
            ("cluster.kmeans_s", "cluster.kmeans"),
            ("quantum.embed_s", "quantum.embed"),
            ("cluster.qmeans_s", "cluster.qmeans"),
        ] {
            run.layer(metric, per_op(span));
        }
        run.layer(
            "csr.matvec_us",
            median(&tracer.durations("csr.matvec")) * 1e6,
        );
        run.spans_json = Some(tracer.to_json());
    }
    Ok(run)
}

/// One set-up: generates the pool's graphs and runs each through its
/// pipeline once (the warm-up, so work moved into a first call shows here),
/// timing the whole as one set-up and each `dsbm` call on its own. Returns
/// the graphs with the seeds their pipelines run under.
fn set_up(
    flavor: Flavor,
    seed: u64,
    run: &mut Run,
    dsbm_s: &mut Vec<f64>,
) -> Result<Vec<(PlantedGraph, u64)>, String> {
    let t = Instant::now();
    let mut pool = Vec::with_capacity(POOL);
    for index in 0..POOL {
        let params = graph_params(flavor, seed, index);
        let t_graph = Instant::now();
        let graph = dsbm(&params).map_err(|e| format!("dsbm generation failed: {e}"))?;
        dsbm_s.push(t_graph.elapsed().as_secs_f64());
        pipeline(flavor, params.seed)
            .run(&graph.graph)
            .map_err(|e| format!("warm-up run failed: {e}"))?;
        pool.push((graph, params.seed));
    }
    run.setup_s.push(t.elapsed().as_secs_f64());
    Ok(pool)
}

fn check_accuracy(
    op: usize,
    pipeline: &str,
    instance: &PlantedGraph,
    out: &ClusteringOutcome,
) -> Result<(), String> {
    let accuracy = matched_accuracy(&instance.labels, &out.labels);
    if accuracy >= ACCURACY_FLOOR {
        Ok(())
    } else {
        Err(format!(
            "op {op}: {pipeline} matched accuracy {accuracy} is below the floor {ACCURACY_FLOOR}"
        ))
    }
}

/// Times the layer functions under one operation, each on the operation's
/// own input, after the operation (the traced run only).
struct Probe<'a> {
    op: usize,
    instance: &'a PlantedGraph,
    seed: u64,
    tracer: &'a Tracer,
}

impl Probe<'_> {
    fn layers(
        &self,
        flavor: Flavor,
        staged: &StagedEmbedding,
        out: &ClusteringOutcome,
        run: &mut Run,
    ) -> Result<(), String> {
        let (op, tracer) = (self.op, self.tracer);
        let laplacian = tracer.span(op, "graph.laplacian", || {
            normalized_hermitian_laplacian_csr(&self.instance.graph, Q_CLASSICAL)
        });
        self.kmeans(staged, out)?;
        match flavor {
            Flavor::Dense => {
                let dense = tracer.span(op, "eig.to_dense", || laplacian.to_dense());
                let tri = tracer.span(op, "eig.tridiagonalize", || tridiagonalize(&dense));
                let (mut d, mut e, mut z) = (tri.d, tri.e, tri.q);
                tracer
                    .span(op, "eig.tql", || tql_implicit(&mut d, &mut e, &mut z))
                    .map_err(|e| format!("tql: {e}"))?;
                tracer
                    .span(op, "eig.eigh", || eigh(&dense))
                    .map_err(|e| format!("eigh: {e}"))?;
                self.quantum(run)
            }
            Flavor::Sparse => {
                // `LanczosCsr` mixes the seed this way; the eigenvalue check
                // below confirms the probe repeated the pipeline's own run.
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0x2d99_787a_66dd_12b3);
                let partial = tracer
                    .span(op, "lanczos.csr", || {
                        lanczos_lowest_k_csr(&laplacian, K, 1e-8, &mut rng)
                    })
                    .map_err(|e| format!("lanczos: {e}"))?;
                let same = partial.eigenvalues.len() == staged.embedding.spectrum.len()
                    && partial
                        .eigenvalues
                        .iter()
                        .zip(&staged.embedding.spectrum)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err("the Lanczos probe's eigenvalues differ from the pipeline's".into());
                }
                if op == 0 {
                    run.layer("lanczos.iterations", partial.iterations as f64);
                }
                self.matvec(&laplacian);
                Ok(())
            }
        }
    }

    /// `kmeans` on the staged rows with the pipeline's clustering
    /// configuration; it must reproduce the pipeline's clustering.
    fn kmeans(&self, staged: &StagedEmbedding, out: &ClusteringOutcome) -> Result<(), String> {
        let clustering = ClusteringConfig::default();
        let config = KMeansConfig {
            k: K,
            max_iter: clustering.max_iter,
            tol: clustering.tol,
            restarts: clustering.restarts,
            seed: self.seed,
        };
        let result = self
            .tracer
            .span(self.op, "cluster.kmeans", || {
                kmeans(&staged.embedding.rows, &config)
            })
            .map_err(|e| format!("kmeans: {e}"))?;
        if result.labels != out.labels || result.iterations != out.diagnostics.kmeans_iterations {
            return Err("kmeans on the staged rows differs from the pipeline's clustering".into());
        }
        Ok(())
    }

    fn matvec(&self, laplacian: &CsrMatrix) {
        let n = laplacian.nrows();
        let x = vec![Complex64::real(1.0 / (n as f64).sqrt()); n];
        for _ in 0..MATVEC_REPS {
            self.tracer.span(self.op, "csr.matvec", || {
                black_box(laplacian.matvec(black_box(&x)))
            });
        }
    }

    /// The paper's quantum pipeline (`QpeTomography` embedding plus
    /// q-means) on the operation's graph, then the simulator calls under
    /// its readout on the inputs the embedding worked on:
    /// `phase_distribution` for every eigenvalue of its spectrum, and
    /// `estimate_norm` plus `tomography_complex` for every embedding row
    /// (scaled into the unit ball).
    fn quantum(&self, run: &mut Run) -> Result<(), String> {
        let (op, tracer) = (self.op, self.tracer);
        let params = QuantumParams::default();
        let pl = Pipeline::hermitian(K).seed(self.seed).quantum(&params);
        let staged = tracer
            .span(op, "quantum.embed", || pl.embed(&self.instance.graph))
            .map_err(|e| format!("quantum embed: {e}"))?;
        let out = tracer
            .span(op, "cluster.qmeans", || pl.cluster(&staged))
            .map_err(|e| format!("quantum cluster: {e}"))?;
        check_accuracy(op, "quantum", self.instance, &out)?;
        let embedding = &staged.embedding;
        let dims = out.diagnostics.dims_used;
        if embedding.spectrum.len() != staged.n
            || embedding.rows.iter().any(|r| r.len() != 2 * dims)
        {
            return Err(format!(
                "quantum embedding is not {} rows of {dims} complex dimensions over the full spectrum",
                staged.n
            ));
        }
        if op == 0 {
            run.layer("quantum.dims_used", dims as f64);
        }

        let backend = Statevector::new();
        let mut rng = StdRng::seed_from_u64(self.seed);
        tracer
            .span(op, "qsim.phase_distribution", || {
                embedding.spectrum.iter().try_for_each(|&l| {
                    backend
                        .phase_distribution(l / params.qpe_scale, params.qpe_bits, &mut rng)
                        .map(|dist| {
                            black_box(dist);
                        })
                })
            })
            .map_err(|e| format!("phase distribution: {e}"))?;

        let rows: Vec<Vec<Complex64>> = embedding
            .rows
            .iter()
            .map(|row| {
                row.chunks_exact(2)
                    .map(|pair| Complex64::new(pair[0], pair[1]))
                    .collect()
            })
            .collect();
        let norm = |row: &[Complex64]| row.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let largest = rows.iter().map(|r| norm(r)).fold(0.0, f64::max);
        for row in &rows {
            let row: Vec<Complex64> = row.iter().map(|z| z.scale(1.0 / largest)).collect();
            let row_norm = norm(&row);
            if row_norm <= f64::EPSILON {
                continue;
            }
            tracer
                .span(op, "qsim.estimate_norm", || {
                    estimate_norm(
                        row_norm.min(1.0),
                        1.0,
                        params.norm_estimation_iters,
                        &mut rng,
                    )
                })
                .map_err(|e| format!("estimate_norm: {e}"))?;
            tracer
                .span(op, "qsim.tomography", || {
                    tomography_complex(&row, params.tomography_shots, &mut rng)
                })
                .map_err(|e| format!("tomography: {e}"))?;
        }
        Ok(())
    }
}
