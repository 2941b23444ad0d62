//! The generic sweep engine: interprets an [`ExperimentSpec`] and produces
//! the tables the old hand-written experiment functions used to build.
//!
//! One [`SweepRunner`] executes any spec at a [`Scale`]:
//!
//! * grid layouts expand the cartesian product of the axes; stacked
//!   layouts sweep each axis independently around the defaults,
//! * every repetition batch fans through [`Pipeline::run_many`]
//!   (rayon-parallel over instances, results identical to a sequential
//!   loop; panics and errors are confined to their repetition, so a
//!   failing grid point becomes an explicit `failed(<kind>)` cell and the
//!   sweep keeps going — see `docs/RESILIENCE.md`),
//! * one rule, applied by `run_shared` to sweeps and searches alike,
//!   decides which runs share a batch: runs whose workload, seeds and
//!   resolved recipe agree apart from the clusterer `δ` and `refine` (the
//!   recipe's stage key) are one `run_many` batch, one pipeline variant
//!   per run, which stages each graph's embedding once. Resolved rows
//!   form windows of consecutive rows with equal keys (a stacked layout's
//!   windows stay within one axis), so a q-means `δ` axis is one batch per
//!   graph,
//! * metrics aggregate through the registry
//!   ([`qsc_cluster::registry::MetricKind`]) into formatted columns.

use crate::spec::{
    AggFormat, Analysis, Axis, AxisPoint, ColumnSource, ColumnSpec, EmbedderChoice, EmbeddingSpec,
    ExperimentKind, ExperimentSpec, PipelineSpec, QpeResolutionSpec, RecipePatch, ResourcesSpec,
    RowLayout, Scale, SeedPolicy, SweepLayout, TrotterSpec,
};
use qsc_cluster::clusterability::{measure_clusterability, Clusterability};
use qsc_cluster::registry::MetricKind;
use qsc_core::config::{BackendConfig, QuantumParams};
use qsc_core::refine::{refine_partition, RefineConfig};
use qsc_core::report::{fmt, fmt_mean_std, mean, SinkFormat, Table};
use qsc_core::{
    BatchOutcome, Clusterer, ClusteringOutcome, FailureKind, GraphInstance, KMeans, LanczosCsr,
    LanczosDense, Pipeline, QMeans, ResiliencePolicy, SpectrumCache,
};
use qsc_graph::normalized_hermitian_laplacian;
use qsc_graph::spec::{GeneratedInstance, GraphSpec};
use qsc_json::{FromJson, JsonError, ToJson, Value};
use qsc_linalg::eigvalsh;
use qsc_linalg::expm::expi;
use qsc_linalg::parallel::map_indexed;
use qsc_sim::resources::{pipeline_resources, qpe_resources, qubits_for_dimension};
use qsc_sim::synthesis::{derived_two_qubit_count, two_level_decompose};
use qsc_sim::PhaseEstimator;
use std::cell::OnceCell;
use std::fmt as stdfmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Errors of the sweep engine: spec-level mistakes plus propagated
/// pipeline/generator failures.
#[derive(Debug)]
pub enum BenchError {
    /// The spec is malformed or internally inconsistent.
    Spec(JsonError),
    /// A workload generator rejected its parameters.
    Graph(qsc_graph::GraphError),
    /// A pipeline stage failed.
    Pipeline(qsc_core::Error),
}

impl stdfmt::Display for BenchError {
    fn fmt(&self, f: &mut stdfmt::Formatter<'_>) -> stdfmt::Result {
        match self {
            BenchError::Spec(e) => write!(f, "spec: {e}"),
            BenchError::Graph(e) => write!(f, "graph generation: {e}"),
            BenchError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<JsonError> for BenchError {
    fn from(e: JsonError) -> Self {
        BenchError::Spec(e)
    }
}

impl From<qsc_graph::GraphError> for BenchError {
    fn from(e: qsc_graph::GraphError) -> Self {
        BenchError::Graph(e)
    }
}

impl From<qsc_core::Error> for BenchError {
    fn from(e: qsc_core::Error) -> Self {
        BenchError::Pipeline(e)
    }
}

pub(crate) fn spec_err(message: impl Into<String>) -> BenchError {
    BenchError::Spec(JsonError::msg(message))
}

/// The result of interpreting one spec: a display table, the primary
/// machine-readable table (they differ only for coordinate-dump
/// experiments, where the display is a summary and the primary the long
/// series), and analysis notes.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Spec name (output file stem).
    pub name: String,
    /// Spec title.
    pub title: String,
    /// Table to print.
    pub display: Table,
    /// Table the sinks write.
    pub primary: Table,
    /// Analysis notes to print after the table.
    pub notes: Vec<String>,
    /// Sinks the spec requests.
    pub sinks: Vec<SinkFormat>,
}

/// Interprets [`ExperimentSpec`]s at a fixed scale.
///
/// With [`SweepRunner::with_fleet`] the runner fans grid points across a
/// set of remote executor services round-robin: each point's resolved
/// backend is wrapped as a remote backend targeting one host, with the
/// remaining hosts and finally the local backend as the fallback chain —
/// so an executor dying mid-sweep costs retries, never result cells, and
/// the produced tables stay byte-identical to a local run.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    scale: Scale,
    fleet: Vec<String>,
    /// Round-robin cursor over `fleet`, shared across clones so nested
    /// runs (searches) keep rotating instead of restarting at host 0.
    next_host: Arc<AtomicUsize>,
    /// The running job's spectrum cache, shared by every pipeline the job
    /// builds; set for the duration of one [`SweepRunner::run_with_cache`].
    spectrum_cache: Option<Arc<SpectrumCache>>,
}

/// Incremental completion event fired by
/// [`SweepRunner::run_with_progress`] as the primary table materializes:
/// the column headers once up front, then each completed row (one grid
/// point's worth at a time for pipeline sweeps). The sweep service's
/// chunked row streaming is built on these events.
#[derive(Debug)]
pub enum Progress<'a> {
    /// The primary table's column headers (fired once, before any row).
    Columns(&'a [String]),
    /// A completed row, in emission order.
    Row {
        /// 0-based row index.
        index: usize,
        /// The row's rendered cells.
        cells: &'a [String],
    },
}

/// Fires `Row` events for every row appended since the last flush.
fn flush_rows(table: &Table, sent: &mut usize, on_progress: &mut dyn FnMut(Progress<'_>)) {
    for index in *sent..table.len() {
        on_progress(Progress::Row {
            index,
            cells: &table.rows()[index],
        });
    }
    *sent = table.len();
}

/// Replays a fully-built table as progress events (the analytic experiment
/// kinds compute their tables in one step).
fn replay_table(table: &Table, on_progress: &mut dyn FnMut(Progress<'_>)) {
    on_progress(Progress::Columns(table.columns()));
    let mut sent = 0;
    flush_rows(table, &mut sent, on_progress);
}

// ---------------------------------------------------------------------------
// Recipe resolution
// ---------------------------------------------------------------------------

/// A fully resolved pipeline recipe (patches merged, axis assignments
/// applied).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Recipe {
    pub(crate) k: usize,
    pub(crate) q: Option<f64>,
    pub(crate) symmetrize: bool,
    pub(crate) normalize_rows: bool,
    pub(crate) embedder: Option<EmbedderChoice>,
    pub(crate) quantum: Option<QuantumParams>,
    pub(crate) delta: Option<f64>,
    pub(crate) backend: Option<BackendConfig>,
    pub(crate) refine: bool,
}

impl Recipe {
    pub(crate) fn from_patch(patch: &RecipePatch) -> Recipe {
        Recipe {
            k: patch.k.unwrap_or(2),
            q: patch.q,
            symmetrize: patch.symmetrize.unwrap_or(false),
            normalize_rows: patch.normalize_rows.unwrap_or(false),
            embedder: patch.embedder,
            quantum: patch.quantum.clone(),
            delta: patch.delta,
            backend: patch.backend.clone(),
            refine: patch.refine.unwrap_or(false),
        }
    }

    /// The patch [`Recipe::from_patch`] turns back into this recipe.
    fn to_patch(&self) -> RecipePatch {
        RecipePatch {
            k: Some(self.k),
            q: self.q,
            symmetrize: Some(self.symmetrize),
            normalize_rows: Some(self.normalize_rows),
            embedder: self.embedder,
            quantum: self.quantum.clone(),
            delta: self.delta,
            backend: self.backend.clone(),
            refine: Some(self.refine),
        }
    }

    /// Builds the configured [`Pipeline`] (matching exactly what the
    /// hand-written experiments used to construct).
    pub(crate) fn build(&self) -> Result<Pipeline, BenchError> {
        let mut pl = Pipeline::hermitian(self.k);
        if self.symmetrize {
            pl = pl.symmetrize();
        }
        if let Some(q) = self.q {
            pl = pl.q(q);
        }
        pl = pl.normalize_rows(self.normalize_rows);
        match self.embedder {
            None | Some(EmbedderChoice::DenseEig) => {}
            Some(EmbedderChoice::LanczosCsr) => pl = pl.embedder(LanczosCsr),
            Some(EmbedderChoice::LanczosDense) => pl = pl.embedder(LanczosDense),
        }
        if let Some(params) = &self.quantum {
            pl = pl.quantum(params);
        }
        pl = pl.clusterer_shared(self.clusterer());
        if let Some(backend) = &self.backend {
            pl = pl.backend_config(backend)?;
        }
        Ok(pl)
    }

    /// The clustering stage: q-means at `clusterer.delta` when set, else
    /// at the quantum parameters' `δ`, else classical k-means.
    pub(crate) fn clusterer(&self) -> Arc<dyn Clusterer> {
        match (self.delta, &self.quantum) {
            (Some(delta), _) => Arc::new(QMeans::new(delta)),
            (None, Some(params)) => Arc::new(QMeans::new(params.delta)),
            (None, None) => Arc::new(KMeans),
        }
    }

    /// The recipe without the two fields the staged embedding never reads:
    /// the clusterer `δ` and the `refine` post-step.
    pub(crate) fn stage_key(&self) -> Recipe {
        Recipe {
            delta: None,
            refine: false,
            ..self.clone()
        }
    }
}

/// One run: a workload, its seeding and a resolved recipe.
pub(crate) struct Run {
    pub(crate) graph: GraphSpec,
    pub(crate) seeds: SeedPolicy,
    pub(crate) recipe: Recipe,
}

impl Run {
    /// What the run's staged embedding depends on: runs with equal keys
    /// share one.
    fn key(&self) -> (&GraphSpec, SeedPolicy, Recipe) {
        (&self.graph, self.seeds, self.recipe.stage_key())
    }
}

// ---------------------------------------------------------------------------
// Assignments
// ---------------------------------------------------------------------------

/// Applies one sweep assignment — an axis point's, a `scale_set` entry's
/// or a search candidate's — to the workload `graph` (`graph.<field>`) or
/// the `recipe` (every other path). The target is encoded with its
/// [`ToJson`], `value` is written at the path's JSON location, and the
/// result is decoded by the target's own decoder, so any field a decoder
/// accepts is sweepable and every rejection is the decoder's.
pub(crate) fn assign(
    graph: &mut GraphSpec,
    recipe: &mut Recipe,
    path: &str,
    value: &Value,
) -> Result<(), BenchError> {
    let at_path = |message: String| {
        BenchError::Spec(JsonError::msg(
            if message.starts_with(&format!("{path}:")) {
                message
            } else {
                format!("{path}: {message}")
            },
        ))
    };
    if let Some(key) = path.strip_prefix("graph.") {
        if key == "family" {
            return Err(at_path(
                "the family is not an assignable field (give the variant its own `graph`)".into(),
            ));
        }
        let mut json = graph.to_json();
        *field(&mut json, key) = value.clone();
        *graph = GraphSpec::from_json(&json).map_err(|e| at_path(e.message))?;
        return Ok(());
    }
    let mut json = recipe.to_patch().to_json();
    *recipe_slot(recipe, &mut json, path).map_err(at_path)? = value.clone();
    let patch = RecipePatch::from_json(&json).map_err(|e| at_path(e.message))?;
    *recipe = Recipe::from_patch(&patch);
    Ok(())
}

/// The location a non-graph sweep path addresses in `json`, the patch
/// form of `recipe`.
fn recipe_slot<'v>(
    recipe: &Recipe,
    json: &'v mut Value,
    path: &str,
) -> Result<&'v mut Value, String> {
    if let Some(key) = path.strip_prefix("quantum.") {
        return Ok(field(field(json, "quantum"), key));
    }
    if let Some(key) = path.strip_prefix("backend.") {
        // A field of the already-selected backend kind, so one axis can
        // drive e.g. `depolarizing` through a trajectory variant and an
        // exact-channel variant simultaneously.
        let config = recipe.backend.as_ref().ok_or(
            "no backend kind set (select one in `base` or the variant before sweeping its fields)",
        )?;
        return Ok(field(backend_fields(config, field(json, "backend"))?, key));
    }
    let key = match path {
        "pipeline.k" => "k",
        "pipeline.q" => "q",
        "pipeline.symmetrize" => "symmetrize",
        "pipeline.normalize_rows" => "normalize_rows",
        "clusterer.delta" => "delta",
        "backend" => "backend",
        _ => {
            return Err(
                "unknown sweep path (expected graph.* | quantum.* | pipeline.* | \
                        clusterer.delta | backend | backend.*)"
                    .into(),
            )
        }
    };
    Ok(field(json, key))
}

/// The object holding the fields of `config`'s kind in its JSON form
/// `json`: the kind's inner object, the top level for `{"shots": n}`, and
/// the hosted backend's for a remote one — the field travels to the
/// executor.
fn backend_fields<'v>(
    config: &BackendConfig,
    json: &'v mut Value,
) -> Result<&'v mut Value, String> {
    match config {
        BackendConfig::Remote { inner, .. } => {
            backend_fields(inner, field(field(json, "remote"), "inner"))
        }
        BackendConfig::Shots { .. } => Ok(json),
        BackendConfig::Statevector => Err(format!(
            "the configured `{}` backend has no fields",
            config.kind_name()
        )),
        _ => Ok(field(json, config.kind_name())),
    }
}

/// Field `key` of the object `json`, inserted as `null` when absent; a
/// non-object (the `null` of an absent block) becomes `{}` first.
fn field<'v>(json: &'v mut Value, key: &str) -> &'v mut Value {
    if !matches!(json, Value::Obj(_)) {
        *json = Value::Obj(Vec::new());
    }
    let Value::Obj(fields) = json else {
        unreachable!("`json` was made an object above")
    };
    let i = match fields.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            fields.push((key.to_string(), Value::Null));
            fields.len() - 1
        }
    };
    &mut fields[i].1
}

// ---------------------------------------------------------------------------
// Run records
// ---------------------------------------------------------------------------

/// One executed repetition: the outcome plus the labels metrics score
/// (refined when the variant requests refinement).
pub(crate) struct RunRecord {
    outcome: ClusteringOutcome,
    labels: Vec<usize>,
    /// Lazily measured clusterability, shared by every clusterability
    /// metric column of the row (the measurement is O(n·d) + a sort; a
    /// Table-V row reads four metrics from one measurement).
    clusterability: OnceCell<Option<Clusterability>>,
}

/// One repetition slot of a run: the executed record, or the failure
/// that exhausted the variant's [`ResiliencePolicy`]. Failed slots stay
/// in place so surviving records keep their per-rep instance alignment.
///
/// [`ResiliencePolicy`]: qsc_core::ResiliencePolicy
pub(crate) enum RunSlot {
    Ok(Box<RunRecord>),
    Failed(FailureKind),
}

impl RunSlot {
    fn record(&self) -> Option<&RunRecord> {
        match self {
            RunSlot::Ok(record) => Some(record.as_ref()),
            RunSlot::Failed(_) => None,
        }
    }

    /// The failure that emptied this slot, if it failed.
    pub(crate) fn failure(&self) -> Option<FailureKind> {
        match self {
            RunSlot::Ok(_) => None,
            RunSlot::Failed(kind) => Some(*kind),
        }
    }
}

/// Aggregated values of `metric` over a repetition batch's slots: one
/// value per surviving repetition whose inputs were available. Shared by
/// the sweep columns and the search engine's objective/cost evaluation.
pub(crate) fn slot_metric_values(
    slots: &[RunSlot],
    instances: &[GeneratedInstance],
    k: usize,
    metric: MetricKind,
) -> Vec<f64> {
    slots
        .iter()
        .zip(instances)
        .filter_map(|(slot, inst)| {
            let run = slot.record()?;
            let mut ctx = run.outcome.metric_context(
                k,
                Some(&inst.graph),
                (!inst.labels.is_empty()).then_some(inst.labels.as_slice()),
            );
            ctx.labels = &run.labels;
            ctx.edge_disagreement = inst.edge_disagreement;
            if metric.uses_clusterability() {
                ctx.clusterability = *run
                    .clusterability
                    .get_or_init(|| measure_clusterability(&run.outcome.embedding, &run.labels));
            }
            metric.compute(&ctx)
        })
        .collect()
}

/// All executed repetitions of one variant at one sweep row.
struct VariantRuns<'a> {
    name: &'a str,
    k: usize,
    instances: Rc<Vec<GeneratedInstance>>,
    slots: Vec<RunSlot>,
}

impl VariantRuns<'_> {
    /// Aggregated values of `metric` (one per surviving rep whose inputs
    /// were available).
    fn metric_values(&self, metric: MetricKind) -> Vec<f64> {
        slot_metric_values(&self.slots, &self.instances, self.k, metric)
    }

    /// `Some(kind)` when **every** repetition failed — the cell has no
    /// data at all and renders as an explicit `failed(<kind>)` marker.
    /// With mixed kinds the most frequent wins (ties: earliest repetition).
    fn all_failed_kind(&self) -> Option<FailureKind> {
        let mut counts: Vec<(FailureKind, usize)> = Vec::new();
        for slot in &self.slots {
            match slot {
                RunSlot::Ok(_) => return None,
                RunSlot::Failed(kind) => match counts.iter_mut().find(|(k, _)| k == kind) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((*kind, 1)),
                },
            }
        }
        let mut best: Option<(FailureKind, usize)> = None;
        for &(kind, n) in &counts {
            // Strict `>` keeps the earliest kind on ties.
            if best.is_none_or(|(_, m)| n > m) {
                best = Some((kind, n));
            }
        }
        best.map(|(kind, _)| kind)
    }

    /// `(failed, total)` repetition counts.
    fn failure_counts(&self) -> (usize, usize) {
        let failed = self
            .slots
            .iter()
            .filter(|slot| matches!(slot, RunSlot::Failed(_)))
            .count();
        (failed, self.slots.len())
    }
}

fn format_metric(values: &[f64], format: AggFormat) -> String {
    match format {
        AggFormat::MeanStd(d) => fmt_mean_std(values, d),
        AggFormat::Mean(d) => {
            if values.is_empty() {
                "n/a".into()
            } else {
                fmt(mean(values), d)
            }
        }
        AggFormat::Sci(d) => {
            if values.is_empty() {
                "n/a".into()
            } else {
                format!("{:.d$e}", mean(values), d = d)
            }
        }
        AggFormat::Bool => {
            if !values.is_empty() && values.iter().all(|&v| v != 0.0) {
                "true".into()
            } else {
                "false".into()
            }
        }
    }
}

/// Everything a row's columns can reference.
#[derive(Clone)]
struct RowCtx<'a> {
    /// `(key, label)` pairs contributed by the active axis points.
    labels: Vec<(&'a str, &'a str)>,
    /// The sweeping axis name (stacked layouts).
    axis_name: Option<&'a str>,
    /// The sweeping axis's current point label (stacked layouts).
    axis_value: Option<&'a str>,
    /// The row's variant (variant-rows layouts).
    row_variant: Option<&'a str>,
}

/// The [`VariantRuns`] a metric/failures column refers to: its explicit
/// `variant`, else the row's variant, else the only variant.
fn resolve_variant<'v, 'a>(
    col: &ColumnSpec,
    variant: Option<&str>,
    ctx: &RowCtx<'_>,
    variants: &'v [VariantRuns<'a>],
) -> Result<&'v VariantRuns<'a>, BenchError> {
    let name = variant
        .or(ctx.row_variant)
        .or_else(|| (variants.len() == 1).then(|| variants[0].name))
        .ok_or_else(|| {
            spec_err(format!(
                "column `{}`: ambiguous variant (name one explicitly)",
                col.header
            ))
        })?;
    variants
        .iter()
        .find(|v| v.name == name)
        .ok_or_else(|| spec_err(format!("column `{}`: unknown variant `{name}`", col.header)))
}

fn eval_columns(
    columns: &[ColumnSpec],
    ctx: &RowCtx<'_>,
    variants: &[VariantRuns<'_>],
) -> Result<Vec<String>, BenchError> {
    columns
        .iter()
        .map(|col| -> Result<String, BenchError> {
            match &col.source {
                ColumnSource::AxisLabel(key) => ctx
                    .labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, l)| l.to_string())
                    .ok_or_else(|| {
                        spec_err(format!(
                            "column `{}`: no axis label `{key}` on this row",
                            col.header
                        ))
                    }),
                ColumnSource::AxisName => ctx
                    .axis_name
                    .map(str::to_string)
                    .ok_or_else(|| spec_err("axis_name column outside a stacked layout")),
                ColumnSource::AxisValue => ctx
                    .axis_value
                    .map(str::to_string)
                    .ok_or_else(|| spec_err("axis_value column outside a stacked layout")),
                ColumnSource::VariantName => ctx
                    .row_variant
                    .map(str::to_string)
                    .ok_or_else(|| spec_err("variant_name column outside a variants layout")),
                ColumnSource::Metric {
                    variant,
                    metric,
                    format,
                } => {
                    let runs = resolve_variant(col, variant.as_deref(), ctx, variants)?;
                    if let Some(kind) = runs.all_failed_kind() {
                        // Every repetition failed: an explicit failed cell
                        // instead of an indistinguishable "n/a".
                        Ok(format!("failed({})", kind.name()))
                    } else {
                        Ok(format_metric(&runs.metric_values(*metric), *format))
                    }
                }
                ColumnSource::Failures { variant } => {
                    let runs = resolve_variant(col, variant.as_deref(), ctx, variants)?;
                    let (failed, total) = runs.failure_counts();
                    Ok(format!("{failed}/{total}"))
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

impl SweepRunner {
    /// A runner at the given scale preset.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            fleet: Vec::new(),
            next_host: Arc::new(AtomicUsize::new(0)),
            spectrum_cache: None,
        }
    }

    /// Fans grid points across the given executor addresses (round-robin,
    /// with the other hosts and then local execution as per-point
    /// fallbacks). An empty list keeps execution local.
    pub fn with_fleet(mut self, hosts: impl IntoIterator<Item = String>) -> Self {
        self.fleet = hosts.into_iter().collect();
        self
    }

    /// The runner's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Wraps one grid point's resolved backend for fleet execution: the
    /// next host round-robin carries the point, the remaining hosts and
    /// finally the local backend line up as fallbacks ahead of the spec's
    /// own chain. A spec that already targets a remote backend explicitly
    /// is left untouched.
    fn fleet_wrap(&self, recipe: &Recipe, policy: &ResiliencePolicy) -> (Recipe, ResiliencePolicy) {
        let inner = recipe.backend.clone().unwrap_or_default();
        if self.fleet.is_empty() || matches!(inner, BackendConfig::Remote { .. }) {
            return (recipe.clone(), policy.clone());
        }
        let remote_to = |addr: &String| BackendConfig::Remote {
            addr: addr.clone(),
            inner: Box::new(inner.clone()),
        };
        let n = self.fleet.len();
        let first = self.next_host.fetch_add(1, Ordering::Relaxed) % n;
        let mut recipe = recipe.clone();
        recipe.backend = Some(remote_to(&self.fleet[first]));
        let mut policy = policy.clone();
        let mut chain: Vec<BackendConfig> = (1..n)
            .map(|offset| remote_to(&self.fleet[(first + offset) % n]))
            .collect();
        chain.push(inner);
        chain.append(&mut policy.fallbacks);
        policy.fallbacks = chain;
        (recipe, policy)
    }

    /// Interprets one spec.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] for inconsistent specs and propagated
    /// generator/pipeline failures.
    pub fn run(&self, spec: &ExperimentSpec) -> Result<ExperimentOutput, BenchError> {
        self.run_with_progress(spec, &mut |_| {})
    }

    /// Interprets one spec, firing a [`Progress`] event for the column
    /// headers and for each completed row of the primary table. Pipeline
    /// sweeps report rows incrementally as each grid point's repetition
    /// batch finishes (the per-cell completion hook the sweep service
    /// streams from); the analytic kinds report all rows on completion.
    ///
    /// The produced output is identical to [`SweepRunner::run`] — the
    /// callback only observes.
    ///
    /// The call is one job: it creates one [`SpectrumCache`], so each
    /// distinct Laplacian of the job is Householder-reduced once, and drops
    /// it on return.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] for inconsistent specs and propagated
    /// generator/pipeline failures.
    pub fn run_with_progress(
        &self,
        spec: &ExperimentSpec,
        on_progress: &mut dyn FnMut(Progress<'_>),
    ) -> Result<ExperimentOutput, BenchError> {
        self.run_with_cache(spec, Some(Arc::new(SpectrumCache::new())), on_progress)
    }

    /// [`SweepRunner::run_with_progress`] with the caller's spectrum cache
    /// (`None` runs every pipeline without one). The output is identical
    /// either way; the cache's [`SpectrumCache::stats`] show the reuse.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run_with_progress`].
    pub fn run_with_cache(
        &self,
        spec: &ExperimentSpec,
        spectrum_cache: Option<Arc<SpectrumCache>>,
        on_progress: &mut dyn FnMut(Progress<'_>),
    ) -> Result<ExperimentOutput, BenchError> {
        let job = SweepRunner {
            spectrum_cache,
            ..self.clone()
        };
        job.run_job(spec, on_progress)
    }

    fn run_job(
        &self,
        spec: &ExperimentSpec,
        on_progress: &mut dyn FnMut(Progress<'_>),
    ) -> Result<ExperimentOutput, BenchError> {
        let (display, primary, mut notes) = match &spec.kind {
            ExperimentKind::Pipeline(p) => {
                let table = self.run_pipeline(spec, p, on_progress)?;
                (table.clone(), table, Vec::new())
            }
            ExperimentKind::Embedding(e) => {
                let (summary, series) = self.run_embedding(spec, e)?;
                replay_table(&series, on_progress);
                (summary, series, Vec::new())
            }
            ExperimentKind::QpeResolution(q) => {
                let table = self.run_qpe_resolution(spec, q)?;
                replay_table(&table, on_progress);
                (table.clone(), table, Vec::new())
            }
            ExperimentKind::Resources(r) => {
                let table = self.run_resources(r)?;
                replay_table(&table, on_progress);
                (table.clone(), table, Vec::new())
            }
            ExperimentKind::Trotter(t) => {
                let table = self.run_trotter(spec, t)?;
                replay_table(&table, on_progress);
                (table.clone(), table, Vec::new())
            }
            ExperimentKind::Search(se) => {
                let (table, notes) = crate::search_runner::run_search(self, spec, se)?;
                replay_table(&table, on_progress);
                (table.clone(), table, notes)
            }
        };
        for analysis in &spec.analyses {
            notes.push(run_analysis(analysis, &primary)?);
        }
        Ok(ExperimentOutput {
            name: spec.name.clone(),
            title: spec.title.clone(),
            display,
            primary,
            notes,
            sinks: spec.sinks.clone(),
        })
    }

    /// `recipe`'s pipeline, sharing the job's spectrum cache.
    pub(crate) fn pipeline(&self, recipe: &Recipe) -> Result<Pipeline, BenchError> {
        let pl = recipe.build()?;
        Ok(match &self.spectrum_cache {
            Some(cache) => pl.spectrum_cache(Arc::clone(cache)),
            None => pl,
        })
    }

    /// `graph` and `recipe` with this scale's `scale_set` assignments
    /// applied.
    pub(crate) fn scaled(
        &self,
        spec: &ExperimentSpec,
        graph: &GraphSpec,
        mut recipe: Recipe,
    ) -> Result<(GraphSpec, Recipe), BenchError> {
        let mut graph = graph.clone();
        for (path, value) in spec.scale_assignments(self.scale) {
            assign(&mut graph, &mut recipe, path, value)?;
        }
        Ok((graph, recipe))
    }

    // -- pipeline sweeps ---------------------------------------------------

    fn run_pipeline(
        &self,
        spec: &ExperimentSpec,
        p: &PipelineSpec,
        on_progress: &mut dyn FnMut(Progress<'_>),
    ) -> Result<Table, BenchError> {
        let reps = *p.reps.get(self.scale);
        let mut table = Table::new(p.columns.iter().map(|c| c.header.clone()));
        on_progress(Progress::Columns(table.columns()));
        let mut sent = 0usize;

        // The sweep rows as `(segment, context, points)`: a grid's rows are
        // the cartesian product of its axes, a stacked layout's each axis's
        // points in turn, one segment per axis.
        let rows: Vec<(usize, RowCtx<'_>, Vec<&AxisPoint>)> = match p.layout {
            SweepLayout::Grid => cartesian(&p.axes, self.scale)
                .into_iter()
                .map(|points| {
                    let ctx = RowCtx {
                        labels: point_labels(&points),
                        axis_name: None,
                        axis_value: None,
                        row_variant: None,
                    };
                    (0, ctx, points)
                })
                .collect(),
            SweepLayout::Stacked => p
                .axes
                .iter()
                .enumerate()
                .flat_map(|(segment, axis)| {
                    axis.points.get(self.scale).iter().map(move |pt| {
                        let ctx = RowCtx {
                            labels: point_labels(&[pt]),
                            axis_name: Some(axis.name.as_str()),
                            axis_value: pt
                                .label(&axis.name)
                                .or(pt.labels.first().map(|(_, l)| l.as_str())),
                            row_variant: None,
                        };
                        (segment, ctx, vec![pt])
                    })
                })
                .collect(),
        };

        // Resolve every row first: a spec that cannot finish does no work.
        let rows: Vec<(usize, RowCtx<'_>, Vec<Run>)> = rows
            .into_iter()
            .map(|(segment, ctx, points)| Ok((segment, ctx, self.resolve_row(spec, p, &points)?)))
            .collect::<Result<_, BenchError>>()?;

        // Consecutive rows of one segment whose runs have pairwise-equal
        // keys form a window, executed as one `run_shared` call.
        // Each window keeps the instance sets the one before generated.
        let mut window: Vec<(RowCtx<'_>, Vec<Run>)> = Vec::new();
        let mut window_segment = 0;
        let mut sets = InstanceSets::default();
        for (segment, ctx, runs) in rows {
            let joins = segment == window_segment
                && window.last().is_some_and(|(_, last)| {
                    last.iter().zip(&runs).all(|(a, b)| a.key() == b.key())
                });
            if !joins {
                self.run_window(p, reps, &window, &mut sets, &mut table)?;
                flush_rows(&table, &mut sent, on_progress);
                window.clear();
                window_segment = segment;
            }
            window.push((ctx, runs));
        }
        self.run_window(p, reps, &window, &mut sets, &mut table)?;
        flush_rows(&table, &mut sent, on_progress);
        Ok(table)
    }

    /// Each variant's run at the sweep row that applies `points`. The
    /// workload is the spec graph unless the variant brings its own; the
    /// recipe is defaults ← base ← variant. The scale_set, then the points'
    /// assignments, apply to both.
    fn resolve_row(
        &self,
        spec: &ExperimentSpec,
        p: &PipelineSpec,
        points: &[&AxisPoint],
    ) -> Result<Vec<Run>, BenchError> {
        p.variants
            .iter()
            .map(|variant| {
                let (mut graph, mut recipe) = self.scaled(
                    spec,
                    variant.graph.as_ref().unwrap_or(&p.graph),
                    Recipe::from_patch(&p.base.merged_with(&variant.patch)),
                )?;
                for (path, value) in points.iter().flat_map(|pt| &pt.set) {
                    assign(&mut graph, &mut recipe, path, value)?;
                }
                Ok(Run {
                    graph,
                    seeds: variant.seeds.unwrap_or(p.seeds),
                    recipe,
                })
            })
            .collect()
    }

    /// Executes one window of sweep rows through [`run_shared`], each
    /// group's pipeline fleet-wrapped, and appends the rows to `table`.
    fn run_window(
        &self,
        p: &PipelineSpec,
        reps: usize,
        window: &[(RowCtx<'_>, Vec<Run>)],
        sets: &mut InstanceSets,
        table: &mut Table,
    ) -> Result<(), BenchError> {
        let runs: Vec<&Run> = window.iter().flat_map(|(_, runs)| runs).collect();
        let mut batches = run_shared(sets, &runs, 0..reps, |recipe| {
            let (recipe, policy) = self.fleet_wrap(recipe, &p.resilience);
            Ok(self.pipeline(&recipe)?.resilience(policy)?)
        })?
        .into_iter();
        for (ctx, runs) in window {
            let variants: Vec<VariantRuns<'_>> = p
                .variants
                .iter()
                .zip(runs)
                .zip(batches.by_ref())
                .map(|((variant, run), (instances, slots))| VariantRuns {
                    name: &variant.name,
                    k: run.recipe.k,
                    instances,
                    slots,
                })
                .collect();
            match p.rows {
                RowLayout::Points => table.push_row(eval_columns(&p.columns, ctx, &variants)?),
                RowLayout::Variants => {
                    for variant in &variants {
                        let ctx = RowCtx {
                            row_variant: Some(variant.name),
                            ..ctx.clone()
                        };
                        table.push_row(eval_columns(&p.columns, &ctx, &variants)?);
                    }
                }
            }
        }
        Ok(())
    }

    // -- coordinate dump (Fig. 1) -----------------------------------------

    fn run_embedding(
        &self,
        spec: &ExperimentSpec,
        e: &EmbeddingSpec,
    ) -> Result<(Table, Table), BenchError> {
        let mut series = Table::new(["method", "x", "y", "spec0", "spec1", "truth", "predicted"]);
        let mut summary = Table::new(["method", "accuracy", "points", "misclassified"]);
        for variant in &e.variants {
            let recipe = Recipe::from_patch(&e.base.merged_with(&variant.patch));
            let (graph_spec, recipe) = self.scaled(spec, &e.graph, recipe)?;
            let inst = graph_spec.generate()?;
            let points = inst
                .points
                .as_deref()
                .ok_or_else(|| spec_err("embedding experiments need a point-cloud graph family"))?;
            let pl = self.pipeline(&recipe)?.seed(e.pipeline_seed);
            let out = pl.run(&inst.graph)?;
            for (i, point) in points.iter().enumerate() {
                series.push_row([
                    variant.name.clone(),
                    fmt(point[0], 5),
                    fmt(point[1], 5),
                    fmt(out.embedding[i][0], 5),
                    fmt(out.embedding[i][1], 5),
                    inst.labels[i].to_string(),
                    out.labels[i].to_string(),
                ]);
            }
            let acc = qsc_cluster::metrics::matched_accuracy(&inst.labels, &out.labels);
            let wrong = ((1.0 - acc) * points.len() as f64).round() as usize;
            summary.push_row([
                variant.name.clone(),
                fmt(acc, 4),
                points.len().to_string(),
                wrong.to_string(),
            ]);
        }
        Ok((summary, series))
    }

    // -- QPE resolution (Fig. 3) ------------------------------------------

    fn run_qpe_resolution(
        &self,
        spec: &ExperimentSpec,
        q: &QpeResolutionSpec,
    ) -> Result<Table, BenchError> {
        let (graph_spec, _) = self.scaled(spec, &q.graph, Recipe::default())?;
        let inst = graph_spec.generate()?;
        let laplacian = normalized_hermitian_laplacian(&inst.graph, q.q);
        let eigenvalues = eigvalsh(&laplacian).map_err(qsc_core::Error::from)?;

        let mut table = Table::new([
            "qpe_bits",
            "mean_abs_error",
            "max_abs_error",
            "half_resolution",
        ]);
        for &t in &q.bits {
            let est = PhaseEstimator::new(q.qpe_scale, t).map_err(qsc_core::Error::from)?;
            let errors: Vec<f64> = eigenvalues
                .iter()
                .map(|&l| (est.round(l) - l).abs())
                .collect();
            let max = errors.iter().cloned().fold(0.0, f64::max);
            table.push_row([
                t.to_string(),
                format!("{:.5e}", mean(&errors)),
                format!("{max:.5e}"),
                format!("{:.5e}", est.resolution() / 2.0),
            ]);
        }
        Ok(table)
    }

    // -- resource forecast (Fig. 5) ----------------------------------------

    fn run_resources(&self, r: &ResourcesSpec) -> Result<Table, BenchError> {
        let mut table = Table::new([
            "n",
            "system_qubits",
            "total_qubits",
            "qpe_two_qubit_gates_model",
            "generic_synthesis_bound",
            "qpe_depth",
            "pipeline_two_qubit_gates",
        ]);
        let t = r.qpe_bits;
        for &n in r.sizes.get(self.scale) {
            let qpe = qpe_resources(n, t);
            let pipeline = pipeline_resources(n, t, n, r.amplification_rounds, r.tomography_shots);
            // Derived synthesis count of one controlled-U application for
            // small systems (exact two-level decomposition of the evolution
            // unitary) — the generic-unitary upper bound.
            let derived = if n <= r.synthesis_max_n {
                let mut graph_spec = r.synthesis_graph.clone();
                let n_value = Value::Num(n as f64);
                assign(&mut graph_spec, &mut Recipe::default(), "graph.n", &n_value)?;
                let inst = graph_spec.generate()?;
                let l = normalized_hermitian_laplacian(&inst.graph, r.q);
                let u =
                    expi(&l, std::f64::consts::TAU / r.qpe_scale).map_err(qsc_core::Error::from)?;
                let factors = two_level_decompose(&u).map_err(qsc_core::Error::from)?;
                derived_two_qubit_count(&factors, n.next_power_of_two()).to_string()
            } else {
                "n/a".to_string()
            };
            table.push_row([
                n.to_string(),
                qubits_for_dimension(n).to_string(),
                qpe.qubits.to_string(),
                qpe.two_qubit_gates.to_string(),
                derived,
                qpe.depth.to_string(),
                format!("{:.3e}", pipeline.two_qubit_gates as f64),
            ]);
        }
        Ok(table)
    }

    // -- Trotterization error (Fig. 6) -------------------------------------

    fn run_trotter(&self, spec: &ExperimentSpec, t: &TrotterSpec) -> Result<Table, BenchError> {
        let (graph_spec, _) = self.scaled(spec, &t.graph, Recipe::default())?;
        let inst = graph_spec.generate()?;
        let mut table = Table::new(["steps", "max_error", "error_times_steps"]);
        for &m in &t.steps {
            let err = qsc_core::trotter::trotter_error(&inst.graph, t.q, t.time, m)?;
            table.push_row([
                m.to_string(),
                format!("{err:.5e}"),
                format!("{:.4}", err * m as f64),
            ]);
        }
        Ok(table)
    }
}

/// A run's executed repetitions: its instances, shared with every run of
/// its group, and one slot per repetition.
pub(crate) type RunBatch = (Rc<Vec<GeneratedInstance>>, Vec<RunSlot>);

/// Generated instance sets by the workload, seeding and repetitions they
/// were generated from. [`run_shared`] takes every set through here, so
/// the groups of one call that run one workload share one set. A caller
/// that passes the same `InstanceSets` to consecutive calls keeps one
/// call's sets for the next: a set is generated again only if the call
/// before did not read it.
#[derive(Default)]
pub(crate) struct InstanceSets(Vec<InstanceSet>);

struct InstanceSet {
    graph: GraphSpec,
    seeds: SeedPolicy,
    reps: Range<usize>,
    instances: Rc<Vec<GeneratedInstance>>,
}

impl InstanceSets {
    /// Drops every set that none of `runs` reads over `reps`.
    fn keep_only(&mut self, runs: &[&Run], reps: &Range<usize>) {
        self.0.retain(|set| {
            set.reps == *reps
                && runs
                    .iter()
                    .any(|run| run.graph == set.graph && run.seeds == set.seeds)
        });
    }

    /// The instances of `graph` seeded by `seeds` over `reps`, generated
    /// on the pool if no set holds them yet. A failure returns the first
    /// failing repetition's error.
    fn get(
        &mut self,
        graph: &GraphSpec,
        seeds: SeedPolicy,
        reps: &Range<usize>,
    ) -> Result<Rc<Vec<GeneratedInstance>>, BenchError> {
        let held = self
            .0
            .iter()
            .find(|set| set.graph == *graph && set.seeds == seeds && set.reps == *reps);
        if let Some(set) = held {
            return Ok(Rc::clone(&set.instances));
        }
        let instances: Vec<GeneratedInstance> = map_indexed(reps.len(), |i| {
            let mut g = graph.clone();
            g.set_seed(seeds.graph_seed(reps.start + i));
            g.generate()
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        let instances = Rc::new(instances);
        self.0.push(InstanceSet {
            graph: graph.clone(),
            seeds,
            reps: reps.clone(),
            instances: Rc::clone(&instances),
        });
        Ok(instances)
    }
}

/// Executes `runs` over the repetitions `reps` — the one place that decides
/// which runs share work. Runs with equal [`Run::key`]s form a group, in
/// first-appearance order; each group makes one [`run_combos`] call through
/// the pipeline `pipeline` builds from its first recipe, with one variant
/// per member. Groups take their instances from `sets`, which first drops
/// the sets this call does not read. Returns each run's batch, in `runs`
/// order.
pub(crate) fn run_shared(
    sets: &mut InstanceSets,
    runs: &[&Run],
    reps: Range<usize>,
    pipeline: impl Fn(&Recipe) -> Result<Pipeline, BenchError>,
) -> Result<Vec<RunBatch>, BenchError> {
    sets.keep_only(runs, &reps);
    let keys: Vec<_> = runs.iter().map(|run| run.key()).collect();
    let mut batches: Vec<Option<RunBatch>> = runs.iter().map(|_| None).collect();
    for lead in 0..runs.len() {
        if batches[lead].is_some() {
            continue;
        }
        let members: Vec<usize> = (lead..runs.len())
            .filter(|&i| keys[i] == keys[lead])
            .collect();
        let Run { graph, seeds, .. } = runs[lead];
        let instances = sets.get(graph, *seeds, &reps)?;
        let batch: Vec<GraphInstance> = instances
            .iter()
            .zip(reps.clone())
            .map(|(inst, rep)| GraphInstance::with_seed(&inst.graph, seeds.pipeline_seed(rep)))
            .collect();
        let pl = pipeline(&runs[lead].recipe)?;
        let recipes: Vec<&Recipe> = members.iter().map(|&i| &runs[i].recipe).collect();
        for (&i, slots) in members
            .iter()
            .zip(run_combos(&pl, &batch, &instances, &recipes))
        {
            batches[i] = Some((Rc::clone(&instances), slots));
        }
    }
    Ok(batches
        .into_iter()
        .map(|batch| batch.expect("every run belongs to a group"))
        .collect())
}

/// Runs a repetition batch through `pl` with each recipe's
/// [`Recipe::clusterer`] as one [`Pipeline::run_many`] call: each rep's
/// embedding is staged once, all recipes under one guard, so a failed
/// staging fails every recipe of that rep. One generation of `pl`'s
/// spectrum cache. Returns `[recipe][rep]` slots, post-processed.
fn run_combos(
    pl: &Pipeline,
    batch: &[GraphInstance<'_>],
    instances: &[GeneratedInstance],
    recipes: &[&Recipe],
) -> Vec<Vec<RunSlot>> {
    let variants: Vec<Pipeline> = recipes
        .iter()
        .map(|recipe| pl.clone().clusterer_shared(recipe.clusterer()))
        .collect();
    Pipeline::run_many(&variants, batch)
        .into_iter()
        .zip(recipes)
        .map(|(outs, recipe)| to_slots(outs, instances, recipe))
        .collect()
}

fn to_slots(
    outs: BatchOutcome<ClusteringOutcome>,
    instances: &[GeneratedInstance],
    recipe: &Recipe,
) -> Vec<RunSlot> {
    outs.into_iter()
        .zip(instances)
        .map(|(out, inst)| {
            let outcome = match out {
                Ok(outcome) => outcome,
                Err(err) => return RunSlot::Failed(err.kind),
            };
            let labels = if recipe.refine {
                refine_partition(
                    &inst.graph,
                    &outcome.labels,
                    recipe.k,
                    &RefineConfig::default(),
                )
                .0
            } else {
                outcome.labels.clone()
            };
            RunSlot::Ok(Box::new(RunRecord {
                outcome,
                labels,
                clusterability: OnceCell::new(),
            }))
        })
        .collect()
}

/// The `(key, label)` pairs of `points`, in order.
fn point_labels<'a>(points: &[&'a AxisPoint]) -> Vec<(&'a str, &'a str)> {
    points
        .iter()
        .flat_map(|pt| pt.labels.iter().map(|(k, l)| (k.as_str(), l.as_str())))
        .collect()
}

/// Cartesian product of the axes' points at a scale. No axes yield the
/// single empty combo (one unparameterized grid point).
fn cartesian(axes: &[Axis], scale: Scale) -> Vec<Vec<&AxisPoint>> {
    let mut combos: Vec<Vec<&AxisPoint>> = vec![Vec::new()];
    for axis in axes {
        let points = axis.points.get(scale);
        combos = combos
            .into_iter()
            .flat_map(|combo| {
                points.iter().map(move |pt| {
                    let mut next = combo.clone();
                    next.push(pt);
                    next
                })
            })
            .collect();
    }
    combos
}

/// Fitted log–log slope of `y` against `x` (least squares in log space) —
/// the growth-exponent summary behind Fig. 2.
pub fn log_log_slope(x: &[f64], y: &[f64]) -> f64 {
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    let mx = mean(&lx);
    let my = mean(&ly);
    let cov: f64 = lx.iter().zip(&ly).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var: f64 = lx.iter().map(|a| (a - mx) * (a - mx)).sum();
    cov / var
}

fn run_analysis(analysis: &Analysis, table: &Table) -> Result<String, BenchError> {
    match analysis {
        Analysis::LogLogGrowth { x, series } => {
            let column = |header: &str| -> Result<Vec<f64>, BenchError> {
                let idx = table
                    .column_index(header)
                    .ok_or_else(|| spec_err(format!("analysis: no column `{header}`")))?;
                table
                    .rows()
                    .iter()
                    .map(|row| {
                        row[idx].parse::<f64>().map_err(|_| {
                            spec_err(format!(
                                "analysis: column `{header}` cell `{}` is not numeric",
                                row[idx]
                            ))
                        })
                    })
                    .collect()
            };
            let xs = column(x)?;
            if xs.len() < 2 {
                return Err(spec_err(format!(
                    "analysis: loglog_growth needs at least two rows, x column `{x}` has {}",
                    xs.len()
                )));
            }
            let parts: Vec<String> = series
                .iter()
                .map(|(label, header)| {
                    let ys = column(header)?;
                    let slope = log_log_slope(&xs, &ys);
                    if !slope.is_finite() {
                        return Err(spec_err(format!(
                            "analysis: degenerate log–log fit for `{header}` (constant or \
                             non-positive values?)"
                        )));
                    }
                    Ok(format!("{label} n^{slope:.2}"))
                })
                .collect::<Result<_, BenchError>>()?;
            Ok(format!("fitted log–log growth: {}", parts.join(", ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_log_slope_recovers_exponent() {
        let ns = [100.0f64, 200.0, 400.0, 800.0];
        let cubic: Vec<f64> = ns.iter().map(|n: &f64| n.powi(3) * 7.0).collect();
        let slope = log_log_slope(&ns, &cubic);
        assert!((slope - 3.0).abs() < 1e-9);
    }

    /// A builtin pipeline spec.
    fn pipeline_spec(name: &str) -> ExperimentSpec {
        crate::builtin::builtin_spec(name)
            .expect("builtin spec")
            .expect("builtin spec parses")
    }

    #[test]
    fn run_shared_generates_each_instance_set_once() {
        let runner = SweepRunner::new(Scale::Quick);
        let pipeline = |recipe: &Recipe| runner.pipeline(recipe);

        // table1: a window is one `n`, whose three variants are three
        // groups over one workload. They all get one set.
        let spec = pipeline_spec("table1");
        let ExperimentKind::Pipeline(p) = &spec.kind else {
            panic!("table1 is a pipeline sweep");
        };
        let reps = *p.reps.get(Scale::Quick);
        let row = runner
            .resolve_row(&spec, p, &cartesian(&p.axes, Scale::Quick)[0])
            .unwrap();
        let runs: Vec<&Run> = row.iter().collect();
        let mut sets = InstanceSets::default();
        let batches = run_shared(&mut sets, &runs, 0..reps, pipeline).unwrap();
        assert_eq!(batches.len(), 3);
        assert!(batches
            .iter()
            .all(|(set, _)| Rc::ptr_eq(set, &batches[0].0)));
        assert_eq!(sets.0.len(), 1);

        // table3: consecutive windows (two QPE-bit points) run one
        // workload, and the second reuses the first one's set.
        let spec = pipeline_spec("table3");
        let ExperimentKind::Pipeline(p) = &spec.kind else {
            panic!("table3 is a pipeline sweep");
        };
        let reps = *p.reps.get(Scale::Quick);
        let mut sets = InstanceSets::default();
        let mut first: Option<Rc<Vec<GeneratedInstance>>> = None;
        for point in &p.axes[0].points.get(Scale::Quick)[..2] {
            let row = runner.resolve_row(&spec, p, &[point]).unwrap();
            let runs: Vec<&Run> = row.iter().collect();
            let batches = run_shared(&mut sets, &runs, 0..reps, pipeline).unwrap();
            let set = first.get_or_insert_with(|| Rc::clone(&batches[0].0));
            assert!(Rc::ptr_eq(set, &batches[0].0));
        }
        // A window over another workload drops the set before it runs:
        // only `first` still holds it afterwards.
        let first = first.unwrap();
        let row = runner
            .resolve_row(&spec, p, &[&p.axes[0].points.get(Scale::Quick)[0]])
            .unwrap();
        let mut other = Run {
            graph: row[0].graph.clone(),
            seeds: row[0].seeds,
            recipe: row[0].recipe.clone(),
        };
        assign(
            &mut other.graph,
            &mut other.recipe,
            "graph.n",
            &Value::Num(30.0),
        )
        .unwrap();
        let batches = run_shared(&mut sets, &[&other], 0..1, pipeline).unwrap();
        assert_eq!(Rc::strong_count(&first), 1);
        assert!(!Rc::ptr_eq(&first, &batches[0].0));
        assert_eq!(sets.0.len(), 1);
    }

    #[test]
    fn assign_edits_the_json_form_and_decodes_it() {
        const DSBM: &str = r#"{"family": "dsbm", "k": 3}"#;
        const NOISY: &str = r#"{"backend": {"noisy": {}}}"#;
        const SHOTS: &str = r#"{"backend": {"shots": 16}}"#;
        const REMOTE: &str =
            r#"{"backend": {"remote": {"addr": "127.0.0.1:1", "inner": {"noisy": {}}}}}"#;
        // `(target, path, value, target after the assignment)`; `None`:
        // rejected, with an error that names the path once. Graph
        // targets run with an empty recipe.
        let graph_cases: &[(&str, &str, &str, Option<&str>)] = &[
            (
                DSBM,
                "graph.n",
                "120",
                Some(r#"{"family": "dsbm", "k": 3, "n": 120}"#),
            ),
            (
                DSBM,
                "graph.eta_flow",
                "0.7",
                Some(r#"{"family": "dsbm", "k": 3, "eta_flow": 0.7}"#),
            ),
            (DSBM, "graph.inner_radius", "0.4", None),
            (DSBM, "graph.n", r#""x""#, None),
            (DSBM, "graph.family", r#""circles""#, None),
            (
                r#"{"family": "random_mixed"}"#,
                "graph.weight_range",
                "[0.5, 2]",
                Some(r#"{"family": "random_mixed", "weight_range": [0.5, 2]}"#),
            ),
        ];
        // Recipe targets, as `base` patches, run on the DSBM graph.
        let recipe_cases: &[(&str, &str, &str, Option<&str>)] = &[
            ("{}", "pipeline.k", "4", Some(r#"{"k": 4}"#)),
            ("{}", "pipeline.q", "0.5", Some(r#"{"q": 0.5}"#)),
            (
                "{}",
                "pipeline.symmetrize",
                "true",
                Some(r#"{"symmetrize": true}"#),
            ),
            (
                "{}",
                "pipeline.normalize_rows",
                "true",
                Some(r#"{"normalize_rows": true}"#),
            ),
            ("{}", "pipeline.embedder", r#""lanczos_csr""#, None),
            ("{}", "pipeline.k", "-1", None),
            ("{}", "clusterer.delta", "0.3", Some(r#"{"delta": 0.3}"#)),
            ("{}", "clusterer.delta", "true", None),
            ("{}", "delta", "0.3", None),
            // An absent quantum block starts from the defaults.
            (
                "{}",
                "quantum.tomography_shots",
                "64",
                Some(r#"{"quantum": {"tomography_shots": 64}}"#),
            ),
            (
                r#"{"quantum": {"qpe_bits": 4}}"#,
                "quantum.delta",
                "0.9",
                Some(r#"{"quantum": {"qpe_bits": 4, "delta": 0.9}}"#),
            ),
            ("{}", "quantum.nope", "1", None),
            ("{}", "quantum.delta", "true", None),
            // Backends: the kind, then the fields of the selected kind.
            ("{}", "backend", r#""fused_statevector""#, None),
            ("{}", "backend", r#""statevctor""#, None),
            (
                r#"{"backend": {"density": {}}}"#,
                "backend.readout_flip",
                "0.02",
                Some(r#"{"backend": {"density": {"readout_flip": 0.02}}}"#),
            ),
            (
                NOISY,
                "backend.depolarizing",
                "0.3",
                Some(r#"{"backend": {"noisy": {"depolarizing": 0.3}}}"#),
            ),
            (
                SHOTS,
                "backend.shots",
                "512",
                Some(r#"{"backend": {"shots": 512}}"#),
            ),
            (
                r#"{"backend": {"density": {"depolarizing": 0.1}}}"#,
                "backend.readout_flip",
                "0.02",
                Some(r#"{"backend": {"density": {"depolarizing": 0.1, "readout_flip": 0.02}}}"#),
            ),
            (
                REMOTE,
                "backend.depolarizing",
                "0.25",
                Some(
                    r#"{"backend": {"remote": {"addr": "127.0.0.1:1", "inner": {"noisy": {"depolarizing": 0.25}}}}}"#,
                ),
            ),
            (REMOTE, "backend.shots", "1", None),
            ("{}", "backend.depolarizing", "0.1", None),
            (
                r#"{"backend": "statevector"}"#,
                "backend.depolarizing",
                "0.1",
                None,
            ),
            (SHOTS, "backend.depolarizing", "0.1", None),
            (NOISY, "backend.shots", "2", None),
            (NOISY, "backend.nope", "0.1", None),
            (NOISY, "backend.depolarizing", "true", None),
        ];
        let decode = |graph: &str, base: &str| {
            let graph = GraphSpec::from_json(&Value::parse(graph).unwrap()).unwrap();
            let patch = RecipePatch::from_json(&Value::parse(base).unwrap()).unwrap();
            (graph, Recipe::from_patch(&patch))
        };
        let check = |(graph, base): (&str, &str), path: &str, value: &str, after| {
            let (mut g, mut r) = decode(graph, base);
            match (
                assign(&mut g, &mut r, path, &Value::parse(value).unwrap()),
                after,
            ) {
                (Ok(()), Some(after)) => assert_eq!((g, r), after, "{path} = {value}"),
                (Err(BenchError::Spec(e)), None) => {
                    let rest = e.message.strip_prefix(&format!("{path}: "));
                    assert!(
                        rest.is_some_and(|rest| !rest.starts_with(path)),
                        "{path} = {value}: {e}"
                    );
                }
                (result, _) => panic!("{path} = {value}: unexpected {result:?}"),
            }
        };
        for &(graph, path, value, after) in graph_cases {
            check((graph, "{}"), path, value, after.map(|g| decode(g, "{}")));
        }
        for &(base, path, value, after) in recipe_cases {
            check((DSBM, base), path, value, after.map(|b| decode(DSBM, b)));
        }
    }
}
