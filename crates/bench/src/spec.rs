//! The declarative experiment model: a serializable [`ExperimentSpec`]
//! describes one table/figure of the evaluation — workload, sweep axes,
//! pipeline variants, metrics and output columns — and the
//! [`SweepRunner`](crate::runner::SweepRunner) interprets it.
//!
//! Specs are JSON documents (see the shipped files under `specs/`), decoded
//! through `qsc-json` with **unknown-field rejection**: a typo in a spec
//! file fails the run instead of silently running something else.
//!
//! # Shape
//!
//! ```json
//! {
//!   "name": "table1",
//!   "title": "accuracy vs n",
//!   "kind": "pipeline",
//!   "graph": {"family": "dsbm", "k": 3, "p_intra": 0.25, "p_inter": 0.25},
//!   "reps": {"quick": 3, "full": 10},
//!   "base": {"k": 3},
//!   "variants": [
//!     {"name": "classical"},
//!     {"name": "quantum", "quantum": {}},
//!     {"name": "symmetrized", "symmetrize": true}
//!   ],
//!   "axes": [
//!     {"name": "n", "path": "graph.n", "values": {"quick": [100, 200], "full": [500, 1000]}}
//!   ],
//!   "columns": [
//!     {"header": "n", "axis": "n"},
//!     {"header": "classical_acc", "variant": "classical",
//!      "metric": "matched_accuracy", "mean_std": 3}
//!   ]
//! }
//! ```
//!
//! `kind` selects the experiment engine: `"pipeline"` (the generic sweep),
//! `"embedding"` (coordinate dumps, Fig. 1), `"qpe_resolution"` (Fig. 3),
//! `"resources"` (Fig. 5), `"trotter"` (Fig. 6) or `"search"`
//! (hyper-parameter search, see [`qsc_search`] and `docs/SEARCH.md`).

use qsc_cluster::registry::MetricKind;
use qsc_core::config::{BackendConfig, QuantumParams};
use qsc_core::report::SinkFormat;
use qsc_core::resilience::ResiliencePolicy;
use qsc_graph::spec::GraphSpec;
use qsc_json::{num, s, FromJson, JsonError, ObjReader, ToJson, Value};

/// Scale preset of a run: `quick` (CI-friendly) or `full` (paper scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast preset (~1 minute for the whole suite).
    Quick,
    /// Paper-scale preset (tens of minutes).
    Full,
}

impl Scale {
    /// The command-line name of the preset.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Resolves a command-line preset name.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// A value that may differ between the two scale presets. In JSON either a
/// plain value (used at both scales) or `{"quick": …, "full": …}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaled<T> {
    /// The quick-preset value.
    pub quick: T,
    /// The full-preset value.
    pub full: T,
}

impl<T: Clone> Scaled<T> {
    /// The value at a scale.
    pub fn get(&self, scale: Scale) -> &T {
        match scale {
            Scale::Quick => &self.quick,
            Scale::Full => &self.full,
        }
    }

    fn uniform(value: T) -> Self {
        Scaled {
            quick: value.clone(),
            full: value,
        }
    }

    fn decode(
        value: &Value,
        context: &str,
        decode: impl Fn(&Value) -> Result<T, JsonError>,
    ) -> Result<Self, JsonError> {
        if let Value::Obj(fields) = value {
            if fields.iter().any(|(k, _)| k == "quick" || k == "full") {
                let mut r = value.reader(context)?;
                let quick = decode(r.required("quick")?)?;
                let full = decode(r.required("full")?)?;
                r.finish()?;
                return Ok(Scaled { quick, full });
            }
        }
        Ok(Scaled::uniform(decode(value)?))
    }
}

/// Seeding policy of a pipeline sweep: how graph seeds and pipeline seeds
/// derive from the repetition index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPolicy {
    /// Base of the workload-generator seed.
    pub graph_base: u64,
    /// Whether repetition `rep` generates under seed `graph_base + rep`
    /// (`true`) or all repetitions share `graph_base` (`false`).
    pub graph_per_rep: bool,
    /// The pipeline (clustering/tomography randomness) seed.
    pub pipeline: PipelineSeed,
}

/// How the per-instance pipeline seed derives from the repetition index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineSeed {
    /// Seed `rep` for repetition `rep` (the batch-sweep default).
    Rep,
    /// One fixed seed for every repetition.
    Fixed(u64),
}

impl Default for SeedPolicy {
    fn default() -> Self {
        Self {
            graph_base: 0,
            graph_per_rep: true,
            pipeline: PipelineSeed::Rep,
        }
    }
}

impl SeedPolicy {
    /// The generator seed of repetition `rep`.
    pub fn graph_seed(&self, rep: usize) -> u64 {
        if self.graph_per_rep {
            self.graph_base + rep as u64
        } else {
            self.graph_base
        }
    }

    /// The pipeline seed of repetition `rep`.
    pub fn pipeline_seed(&self, rep: usize) -> u64 {
        match self.pipeline {
            PipelineSeed::Rep => rep as u64,
            PipelineSeed::Fixed(seed) => seed,
        }
    }

    fn decode(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("seeds")?;
        let d = SeedPolicy::default();
        let pipeline = match r.take("pipeline") {
            None => d.pipeline,
            Some(Value::Str(s)) if s == "rep" => PipelineSeed::Rep,
            Some(v) => PipelineSeed::Fixed(v.as_u64().ok_or_else(|| {
                JsonError::msg("seeds.pipeline: expected \"rep\" or a non-negative integer")
            })?),
        };
        let policy = SeedPolicy {
            graph_base: r.u64_or("graph_base", d.graph_base)?,
            graph_per_rep: r.bool_or("graph_per_rep", d.graph_per_rep)?,
            pipeline,
        };
        r.finish()?;
        Ok(policy)
    }
}

/// The classical embedding stages a spec can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedderChoice {
    /// Full dense eigendecomposition (the reference path).
    DenseEig,
    /// Lanczos on the CSR Laplacian.
    LanczosCsr,
    /// Dense-matvec Lanczos (the A3 ablation stage).
    LanczosDense,
}

impl EmbedderChoice {
    fn parse(name: &str) -> Result<Self, JsonError> {
        match name {
            "dense_eig" => Ok(EmbedderChoice::DenseEig),
            "lanczos_csr" => Ok(EmbedderChoice::LanczosCsr),
            "lanczos_dense" => Ok(EmbedderChoice::LanczosDense),
            other => Err(JsonError::msg(format!(
                "embedder: unknown embedder `{other}` (expected dense_eig | lanczos_csr | \
                 lanczos_dense)"
            ))),
        }
    }
}

/// A partial pipeline recipe: the overridable knobs of one variant (or of
/// the spec-wide `base`). Fields left `None` inherit from the layer below
/// (base ← variant), bottoming out at the pipeline defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecipePatch {
    /// Number of clusters `k`.
    pub k: Option<usize>,
    /// Hermitian rotation parameter `q`.
    pub q: Option<f64>,
    /// Symmetrize the graph first (the direction-blind baseline).
    pub symmetrize: Option<bool>,
    /// Row-normalize the embedding (NJW).
    pub normalize_rows: Option<bool>,
    /// Classical embedding stage.
    pub embedder: Option<EmbedderChoice>,
    /// Switch to the simulated quantum path with these parameters
    /// (QPE tomography embedding + q-means at the parameter set's `δ`).
    pub quantum: Option<QuantumParams>,
    /// Explicit q-means `δ` (overrides the clusterer only).
    pub delta: Option<f64>,
    /// Execution backend.
    pub backend: Option<BackendConfig>,
    /// Greedy Kernighan–Lin-style refinement of the labels as a
    /// post-step.
    pub refine: Option<bool>,
}

impl RecipePatch {
    /// `other` layered on top of `self` (its `Some` fields win).
    pub fn merged_with(&self, other: &RecipePatch) -> RecipePatch {
        RecipePatch {
            k: other.k.or(self.k),
            q: other.q.or(self.q),
            symmetrize: other.symmetrize.or(self.symmetrize),
            normalize_rows: other.normalize_rows.or(self.normalize_rows),
            embedder: other.embedder.or(self.embedder),
            quantum: other.quantum.clone().or_else(|| self.quantum.clone()),
            delta: other.delta.or(self.delta),
            backend: other.backend.clone().or_else(|| self.backend.clone()),
            refine: other.refine.or(self.refine),
        }
    }

    fn decode_fields(r: &mut ObjReader<'_>) -> Result<Self, JsonError> {
        Ok(RecipePatch {
            k: r.opt_usize("k")?,
            q: r.opt_f64("q")?,
            symmetrize: match r.take("symmetrize") {
                None => None,
                Some(v) => Some(
                    v.as_bool()
                        .ok_or_else(|| JsonError::msg("symmetrize: expected a boolean"))?,
                ),
            },
            normalize_rows: match r.take("normalize_rows") {
                None => None,
                Some(v) => Some(
                    v.as_bool()
                        .ok_or_else(|| JsonError::msg("normalize_rows: expected a boolean"))?,
                ),
            },
            embedder: match r.take("embedder") {
                None => None,
                Some(v) => {
                    Some(EmbedderChoice::parse(v.as_str().ok_or_else(|| {
                        JsonError::msg("embedder: expected a string")
                    })?)?)
                }
            },
            quantum: match r.take("quantum") {
                None => None,
                Some(v) => Some(QuantumParams::from_json(v)?),
            },
            delta: r.opt_f64("delta")?,
            backend: match r.take("backend") {
                None => None,
                Some(v) => Some(BackendConfig::from_json(v)?),
            },
            refine: match r.take("refine") {
                None => None,
                Some(v) => Some(
                    v.as_bool()
                        .ok_or_else(|| JsonError::msg("refine: expected a boolean"))?,
                ),
            },
        })
    }
}

/// One compared pipeline configuration of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Display/reference name (what columns address).
    pub name: String,
    /// Workload override: this variant runs on its own graph family
    /// (e.g. Fig. 4's flow-DSBM vs noisy-circles regimes).
    pub graph: Option<GraphSpec>,
    /// Seeding override for the variant's workload.
    pub seeds: Option<SeedPolicy>,
    /// Recipe overrides layered on the spec's `base`.
    pub patch: RecipePatch,
}

impl Variant {
    fn decode(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("variant")?;
        let name = r.req_str("name")?.to_string();
        let graph = match r.take("graph") {
            None => None,
            Some(v) => Some(GraphSpec::from_json(v)?),
        };
        let seeds = match r.take("seeds") {
            None => None,
            Some(v) => Some(SeedPolicy::decode(v)?),
        };
        let patch = RecipePatch::decode_fields(&mut r)?;
        r.finish()?;
        Ok(Variant {
            name,
            graph,
            seeds,
            patch,
        })
    }
}

/// Most decimals a label or a metric cell may ask for. An `f64` shows
/// at most 17 significant digits, and the formatter panics on a
/// precision past `u16::MAX`.
const MAX_DECIMALS: usize = 17;

/// An optional decimals field, capped at [`MAX_DECIMALS`].
fn opt_decimals(r: &mut ObjReader<'_>, key: &str) -> Result<Option<usize>, JsonError> {
    match r.opt_usize(key)? {
        Some(d) if d > MAX_DECIMALS => Err(JsonError::msg(format!(
            "`{key}`: {d} decimals exceed the cap of {MAX_DECIMALS}"
        ))),
        d => Ok(d),
    }
}

/// How axis-point labels render when derived from raw values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelFormat {
    /// The JSON value's own rendering (`100`, `0.9`).
    Raw,
    /// Fixed decimals (`{:.d$}`).
    Fixed(usize),
}

impl LabelFormat {
    /// Renders a raw axis value as its display label.
    pub fn render(&self, value: &Value) -> String {
        match self {
            LabelFormat::Raw => value.to_string(),
            LabelFormat::Fixed(d) => match value.as_f64() {
                Some(x) => format!("{x:.d$}", d = d),
                None => value.to_string(),
            },
        }
    }
}

/// One point of a sweep axis: the parameter assignments it applies and the
/// display labels it contributes to the row.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisPoint {
    /// `(path, value)` assignments (`graph.*`, `pipeline.*`, `quantum.*`,
    /// `clusterer.delta`, `backend`).
    pub set: Vec<(String, Value)>,
    /// `(key, label)` display labels; columns address them by key.
    pub labels: Vec<(String, String)>,
}

impl AxisPoint {
    /// The label stored under `key`, if any.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, l)| l.as_str())
    }
}

/// A sweep axis: a named list of points (possibly per scale).
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name (what stacked layouts print and columns address).
    pub name: String,
    /// Per-scale points.
    pub points: Scaled<Vec<AxisPoint>>,
}

impl Axis {
    fn decode(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("axis")?;
        let name = r.req_str("name")?.to_string();
        let path = r.opt_str("path")?.map(str::to_string);
        let label_format = match opt_decimals(&mut r, "label_decimals")? {
            Some(d) => LabelFormat::Fixed(d),
            None => LabelFormat::Raw,
        };
        let decode_point = |v: &Value| -> Result<AxisPoint, JsonError> {
            if let Value::Obj(_) = v {
                let mut pr = v.reader("axis point")?;
                let set_obj = pr.required("set")?;
                let set_fields = set_obj
                    .as_object()
                    .ok_or_else(|| JsonError::msg("axis point.set: expected an object"))?;
                let set: Vec<(String, Value)> = set_fields.to_vec();
                let labels = match pr.take("labels") {
                    None => Vec::new(),
                    Some(lv) => lv
                        .as_object()
                        .ok_or_else(|| JsonError::msg("axis point.labels: expected an object"))?
                        .iter()
                        .map(|(k, v)| {
                            v.as_str()
                                .map(|s| (k.clone(), s.to_string()))
                                .ok_or_else(|| {
                                    JsonError::msg(format!(
                                        "axis point.labels.{k}: expected a string"
                                    ))
                                })
                        })
                        .collect::<Result<_, _>>()?,
                };
                pr.finish()?;
                Ok(AxisPoint { set, labels })
            } else {
                // Shorthand: a raw value applied to the axis path.
                let path = path.clone().ok_or_else(|| {
                    JsonError::msg(format!(
                        "axis `{name}`: raw values need a `path` on the axis"
                    ))
                })?;
                Ok(AxisPoint {
                    set: vec![(path, v.clone())],
                    labels: vec![(name.clone(), label_format.render(v))],
                })
            }
        };
        let points_value = if let Some(v) = r.take("values") {
            v
        } else {
            r.required("points")?
        };
        let points = Scaled::decode(points_value, &format!("axis `{name}`"), |v| {
            v.as_array()
                .ok_or_else(|| {
                    JsonError::msg(format!("axis `{name}`: expected an array of points"))
                })?
                .iter()
                .map(decode_point)
                .collect::<Result<Vec<_>, _>>()
        })?;
        r.finish()?;
        if points.quick.is_empty() || points.full.is_empty() {
            return Err(JsonError::msg(format!("axis `{name}`: no points")));
        }
        Ok(Axis { name, points })
    }
}

/// How rows are laid out in a pipeline sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowLayout {
    /// One row per grid point; variants appear as columns.
    #[default]
    Points,
    /// One row per grid point × variant; a `variant_name` column names
    /// the method (Tables IV/V).
    Variants,
}

/// How axes combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepLayout {
    /// Cartesian product of all axes.
    #[default]
    Grid,
    /// Each axis swept independently with the others at their defaults,
    /// rows concatenated (Table III).
    Stacked,
}

/// Aggregation + formatting of a metric column over the repetitions of a
/// grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFormat {
    /// `mean ± std` with the given decimals.
    MeanStd(usize),
    /// Mean with fixed decimals.
    Mean(usize),
    /// Mean in scientific notation (`{:.d$e}`).
    Sci(usize),
    /// `true`/`false` (all repetitions nonzero); absent → `false`.
    Bool,
}

/// Where a column's cells come from.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSource {
    /// An axis-point label, by key.
    AxisLabel(String),
    /// The sweeping axis's name (stacked layouts).
    AxisName,
    /// The sweeping axis's current point label (stacked layouts).
    AxisValue,
    /// The row's variant name (`rows: "variants"` layouts).
    VariantName,
    /// An aggregated metric of one variant's runs.
    Metric {
        /// Variant name; `None` = the row's variant (variant-rows
        /// layout) or the only variant.
        variant: Option<String>,
        /// Which metric.
        metric: MetricKind,
        /// Aggregation and formatting.
        format: AggFormat,
    },
    /// Failed-repetition count of one variant's runs (`failed/total`).
    Failures {
        /// Variant name; `None` = the row's variant (variant-rows
        /// layout) or the only variant.
        variant: Option<String>,
    },
}

/// One output column of a sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// The column header.
    pub header: String,
    /// Cell source.
    pub source: ColumnSource,
}

impl ColumnSpec {
    fn decode(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("column")?;
        let header = r.req_str("header")?.to_string();
        let source = if let Some(axis) = r.opt_str("axis")? {
            ColumnSource::AxisLabel(axis.to_string())
        } else if r.bool_or("axis_name", false)? {
            ColumnSource::AxisName
        } else if r.bool_or("axis_value", false)? {
            ColumnSource::AxisValue
        } else if r.bool_or("variant_name", false)? {
            ColumnSource::VariantName
        } else if r.bool_or("failures", false)? {
            ColumnSource::Failures {
                variant: r.opt_str("variant")?.map(str::to_string),
            }
        } else {
            let metric_name = r.req_str("metric")?;
            let metric = MetricKind::parse(metric_name).ok_or_else(|| {
                JsonError::msg(format!("column `{header}`: unknown metric `{metric_name}`"))
            })?;
            let variant = r.opt_str("variant")?.map(str::to_string);
            let mut formats = Vec::new();
            if let Some(d) = opt_decimals(&mut r, "mean_std")? {
                formats.push(AggFormat::MeanStd(d));
            }
            if let Some(d) = opt_decimals(&mut r, "mean")? {
                formats.push(AggFormat::Mean(d));
            }
            if let Some(d) = opt_decimals(&mut r, "sci")? {
                formats.push(AggFormat::Sci(d));
            }
            if r.bool_or("bool", false)? {
                formats.push(AggFormat::Bool);
            }
            let format = match formats.as_slice() {
                [one] => *one,
                [] => AggFormat::MeanStd(3),
                _ => {
                    return Err(JsonError::msg(format!(
                        "column `{header}`: choose exactly one of mean_std | mean | sci | bool"
                    )))
                }
            };
            ColumnSource::Metric {
                variant,
                metric,
                format,
            }
        };
        r.finish()?;
        Ok(ColumnSpec { header, source })
    }
}

/// A post-table analysis the runner prints as a note.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// Fitted log–log growth exponents of table columns against an x
    /// column (the Fig. 2 "classical ≈ n³, quantum ≈ n" summary).
    LogLogGrowth {
        /// Header of the x column.
        x: String,
        /// `(label, column header)` series to fit.
        series: Vec<(String, String)>,
    },
}

impl Analysis {
    fn decode(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("analysis")?;
        let kind = r.req_str("kind")?;
        let analysis = match kind {
            "loglog_growth" => {
                let x = r.req_str("x")?.to_string();
                let series = r
                    .required("series")?
                    .as_array()
                    .ok_or_else(|| JsonError::msg("analysis.series: expected an array"))?
                    .iter()
                    .map(|v| {
                        let mut sr = v.reader("analysis.series")?;
                        let label = sr.req_str("label")?.to_string();
                        let column = sr.req_str("column")?.to_string();
                        sr.finish()?;
                        Ok((label, column))
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Analysis::LogLogGrowth { x, series }
            }
            other => {
                return Err(JsonError::msg(format!(
                    "analysis: unknown kind `{other}` (expected loglog_growth)"
                )))
            }
        };
        r.finish()?;
        Ok(analysis)
    }
}

/// The generic pipeline sweep (most tables and figures).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// The workload generator.
    pub graph: GraphSpec,
    /// Repetitions per grid point.
    pub reps: Scaled<usize>,
    /// Seeding policy.
    pub seeds: SeedPolicy,
    /// Shared recipe every variant inherits.
    pub base: RecipePatch,
    /// Compared pipeline configurations.
    pub variants: Vec<Variant>,
    /// How axes combine.
    pub layout: SweepLayout,
    /// The sweep axes.
    pub axes: Vec<Axis>,
    /// Row layout.
    pub rows: RowLayout,
    /// Output columns.
    pub columns: Vec<ColumnSpec>,
    /// Fault-tolerance policy applied to every variant's batch runs
    /// (retries, deadlines, budgets, backend fallbacks, fault injection).
    pub resilience: ResiliencePolicy,
}

/// Coordinate dump of input + spectral space (Fig. 1): per-point series
/// CSV plus an accuracy summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingSpec {
    /// The (point-cloud) workload.
    pub graph: GraphSpec,
    /// Shared recipe.
    pub base: RecipePatch,
    /// Compared pipeline configurations.
    pub variants: Vec<Variant>,
    /// Pipeline master seed.
    pub pipeline_seed: u64,
}

/// QPE eigenvalue-resolution measurement (Fig. 3): rounding error of a
/// Laplacian spectrum per phase-register width.
#[derive(Debug, Clone, PartialEq)]
pub struct QpeResolutionSpec {
    /// The workload whose Laplacian spectrum is rounded.
    pub graph: GraphSpec,
    /// Hermitian rotation `q` of the Laplacian.
    pub q: f64,
    /// Eigenvalue-to-phase scale of the estimator.
    pub qpe_scale: f64,
    /// Phase-register widths to measure.
    pub bits: Vec<usize>,
}

/// Hardware resource forecast (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcesSpec {
    /// Phase-register bits of the modeled QPE.
    pub qpe_bits: usize,
    /// Vertex counts to forecast.
    pub sizes: Scaled<Vec<usize>>,
    /// Amplitude-amplification rounds in the per-row pipeline estimate.
    pub amplification_rounds: usize,
    /// Tomography repetitions in the per-row pipeline estimate.
    pub tomography_shots: usize,
    /// Exact two-level synthesis of the evolution unitary (the
    /// generic-unitary upper bound), for instances up to `synthesis_max_n`.
    pub synthesis_graph: GraphSpec,
    /// Largest `n` to synthesize exactly.
    pub synthesis_max_n: usize,
    /// Laplacian rotation for the synthesized unitary.
    pub q: f64,
    /// Eigenvalue-to-phase scale of the synthesized unitary.
    pub qpe_scale: f64,
}

/// Edge-local Trotterization error (Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct TrotterSpec {
    /// The workload whose Laplacian is Trotterized.
    pub graph: GraphSpec,
    /// Hermitian rotation `q`.
    pub q: f64,
    /// Evolution time `t`.
    pub time: f64,
    /// Trotter step counts to measure.
    pub steps: Vec<usize>,
}

/// A hyper-parameter search: one workload, one base recipe, and a
/// `"search"` block (space + objective + strategy) optimized by the
/// [`qsc_search`] engine over the isolated batch runners.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchExperiment {
    /// The workload generator every candidate is evaluated on.
    pub graph: GraphSpec,
    /// Full repetition count per candidate (halving promotes towards it).
    pub reps: Scaled<usize>,
    /// Seeding policy (per-repetition seeds are shared across candidates,
    /// so candidate comparisons are paired).
    pub seeds: SeedPolicy,
    /// The recipe every candidate starts from; search dimensions override
    /// individual knobs on top of it.
    pub base: RecipePatch,
    /// Fault-tolerance policy applied to every candidate's batch runs.
    pub resilience: ResiliencePolicy,
    /// Space, objective and strategy.
    pub search: qsc_search::SearchSpec,
}

/// The experiment engines a spec can select.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// The generic pipeline sweep (boxed: the resilience policy makes it
    /// much larger than the analytic kinds).
    Pipeline(Box<PipelineSpec>),
    /// Coordinate dump (Fig. 1).
    Embedding(EmbeddingSpec),
    /// QPE resolution (Fig. 3).
    QpeResolution(QpeResolutionSpec),
    /// Resource forecast (Fig. 5).
    Resources(ResourcesSpec),
    /// Trotterization error (Fig. 6).
    Trotter(TrotterSpec),
    /// Hyper-parameter search (boxed for the same reason as `Pipeline`).
    Search(Box<SearchExperiment>),
}

/// A complete, serializable experiment: what one table/figure of the
/// evaluation *is*.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Unique name (also the output file stem).
    pub name: String,
    /// Human-readable title printed above the table.
    pub title: String,
    /// Per-scale parameter assignments applied before running
    /// (`{"quick": {"graph.n": 128}, "full": {"graph.n": 300}}`).
    pub scale_set: Vec<(Scale, String, Value)>,
    /// Machine-readable sinks to write (default: CSV).
    pub sinks: Vec<SinkFormat>,
    /// Post-table analyses.
    pub analyses: Vec<Analysis>,
    /// The experiment engine and its parameters.
    pub kind: ExperimentKind,
}

impl ExperimentSpec {
    /// Parses a spec from JSON text (see the files under `specs/`).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for syntax errors, structural mismatches,
    /// unknown fields, unknown metrics/families/variants and ill-formed
    /// sweeps.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let value = Value::parse(text)?;
        Self::from_json(&value)
    }

    /// The scale-set assignments active at `scale`.
    pub fn scale_assignments(&self, scale: Scale) -> impl Iterator<Item = (&str, &Value)> {
        self.scale_set
            .iter()
            .filter(move |(s, _, _)| *s == scale)
            .map(|(_, path, value)| (path.as_str(), value))
    }
}

// ---------------------------------------------------------------------------
// Serialization (ToJson): specs round-trip, so the engine can also emit
// templates.
// ---------------------------------------------------------------------------

fn fields() -> Vec<(String, Value)> {
    Vec::new()
}

fn push(fields: &mut Vec<(String, Value)>, key: &str, value: Value) {
    fields.push((key.to_string(), value));
}

fn scaled_to_json<T: PartialEq>(scaled: &Scaled<T>, encode: impl Fn(&T) -> Value) -> Value {
    if scaled.quick == scaled.full {
        encode(&scaled.quick)
    } else {
        Value::Obj(vec![
            ("quick".into(), encode(&scaled.quick)),
            ("full".into(), encode(&scaled.full)),
        ])
    }
}

fn usize_list_to_json(list: &[usize]) -> Value {
    Value::Arr(list.iter().map(|&n| num(n as f64)).collect())
}

fn list_to_json<T: ToJson>(list: &[T]) -> Value {
    Value::Arr(list.iter().map(ToJson::to_json).collect())
}

impl ToJson for SeedPolicy {
    fn to_json(&self) -> Value {
        let mut f = fields();
        push(&mut f, "graph_base", num(self.graph_base as f64));
        push(&mut f, "graph_per_rep", Value::Bool(self.graph_per_rep));
        push(
            &mut f,
            "pipeline",
            match self.pipeline {
                PipelineSeed::Rep => s("rep"),
                PipelineSeed::Fixed(seed) => num(seed as f64),
            },
        );
        Value::Obj(f)
    }
}

impl RecipePatch {
    fn push_fields(&self, f: &mut Vec<(String, Value)>) {
        if let Some(k) = self.k {
            push(f, "k", num(k as f64));
        }
        if let Some(q) = self.q {
            push(f, "q", num(q));
        }
        if let Some(b) = self.symmetrize {
            push(f, "symmetrize", Value::Bool(b));
        }
        if let Some(b) = self.normalize_rows {
            push(f, "normalize_rows", Value::Bool(b));
        }
        if let Some(e) = self.embedder {
            let name = match e {
                EmbedderChoice::DenseEig => "dense_eig",
                EmbedderChoice::LanczosCsr => "lanczos_csr",
                EmbedderChoice::LanczosDense => "lanczos_dense",
            };
            push(f, "embedder", s(name));
        }
        if let Some(params) = &self.quantum {
            push(f, "quantum", params.to_json());
        }
        if let Some(d) = self.delta {
            push(f, "delta", num(d));
        }
        if let Some(backend) = &self.backend {
            push(f, "backend", backend.to_json());
        }
        if let Some(b) = self.refine {
            push(f, "refine", Value::Bool(b));
        }
    }
}

impl FromJson for RecipePatch {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("base")?;
        let patch = RecipePatch::decode_fields(&mut r)?;
        r.finish()?;
        Ok(patch)
    }
}

impl ToJson for RecipePatch {
    fn to_json(&self) -> Value {
        let mut f = fields();
        self.push_fields(&mut f);
        Value::Obj(f)
    }
}

impl ToJson for Variant {
    fn to_json(&self) -> Value {
        let mut f = fields();
        push(&mut f, "name", s(self.name.clone()));
        if let Some(graph) = &self.graph {
            push(&mut f, "graph", graph.to_json());
        }
        if let Some(seeds) = &self.seeds {
            push(&mut f, "seeds", seeds.to_json());
        }
        self.patch.push_fields(&mut f);
        Value::Obj(f)
    }
}

impl ToJson for AxisPoint {
    fn to_json(&self) -> Value {
        let mut f = fields();
        push(&mut f, "set", Value::Obj(self.set.clone()));
        if !self.labels.is_empty() {
            push(
                &mut f,
                "labels",
                Value::Obj(
                    self.labels
                        .iter()
                        .map(|(k, l)| (k.clone(), s(l.clone())))
                        .collect(),
                ),
            );
        }
        Value::Obj(f)
    }
}

impl ToJson for Axis {
    fn to_json(&self) -> Value {
        let mut f = fields();
        push(&mut f, "name", s(self.name.clone()));
        push(
            &mut f,
            "points",
            scaled_to_json(&self.points, |pts| list_to_json(pts)),
        );
        Value::Obj(f)
    }
}

impl ToJson for ColumnSpec {
    fn to_json(&self) -> Value {
        let mut f = fields();
        push(&mut f, "header", s(self.header.clone()));
        match &self.source {
            ColumnSource::AxisLabel(key) => push(&mut f, "axis", s(key.clone())),
            ColumnSource::AxisName => push(&mut f, "axis_name", Value::Bool(true)),
            ColumnSource::AxisValue => push(&mut f, "axis_value", Value::Bool(true)),
            ColumnSource::VariantName => push(&mut f, "variant_name", Value::Bool(true)),
            ColumnSource::Metric {
                variant,
                metric,
                format,
            } => {
                if let Some(v) = variant {
                    push(&mut f, "variant", s(v.clone()));
                }
                push(&mut f, "metric", s(metric.name()));
                match format {
                    AggFormat::MeanStd(d) => push(&mut f, "mean_std", num(*d as f64)),
                    AggFormat::Mean(d) => push(&mut f, "mean", num(*d as f64)),
                    AggFormat::Sci(d) => push(&mut f, "sci", num(*d as f64)),
                    AggFormat::Bool => push(&mut f, "bool", Value::Bool(true)),
                }
            }
            ColumnSource::Failures { variant } => {
                if let Some(v) = variant {
                    push(&mut f, "variant", s(v.clone()));
                }
                push(&mut f, "failures", Value::Bool(true));
            }
        }
        Value::Obj(f)
    }
}

impl ToJson for Analysis {
    fn to_json(&self) -> Value {
        match self {
            Analysis::LogLogGrowth { x, series } => {
                let mut f = fields();
                push(&mut f, "kind", s("loglog_growth"));
                push(&mut f, "x", s(x.clone()));
                push(
                    &mut f,
                    "series",
                    Value::Arr(
                        series
                            .iter()
                            .map(|(label, column)| {
                                Value::Obj(vec![
                                    ("label".into(), s(label.clone())),
                                    ("column".into(), s(column.clone())),
                                ])
                            })
                            .collect(),
                    ),
                );
                Value::Obj(f)
            }
        }
    }
}

impl ToJson for ExperimentSpec {
    fn to_json(&self) -> Value {
        let mut f = fields();
        push(&mut f, "name", s(self.name.clone()));
        push(&mut f, "title", s(self.title.clone()));
        let kind_name = match &self.kind {
            ExperimentKind::Pipeline(_) => "pipeline",
            ExperimentKind::Embedding(_) => "embedding",
            ExperimentKind::QpeResolution(_) => "qpe_resolution",
            ExperimentKind::Resources(_) => "resources",
            ExperimentKind::Trotter(_) => "trotter",
            ExperimentKind::Search(_) => "search",
        };
        push(&mut f, "kind", s(kind_name));
        if !self.scale_set.is_empty() {
            let mut scale_fields = fields();
            for scale in [Scale::Quick, Scale::Full] {
                let assignments: Vec<(String, Value)> = self
                    .scale_set
                    .iter()
                    .filter(|(sc, _, _)| *sc == scale)
                    .map(|(_, path, value)| (path.clone(), value.clone()))
                    .collect();
                if !assignments.is_empty() {
                    push(&mut scale_fields, scale.name(), Value::Obj(assignments));
                }
            }
            push(&mut f, "scale_set", Value::Obj(scale_fields));
        }
        push(
            &mut f,
            "sinks",
            Value::Arr(self.sinks.iter().map(|sink| s(sink.extension())).collect()),
        );
        if !self.analyses.is_empty() {
            push(&mut f, "analyses", list_to_json(&self.analyses));
        }
        match &self.kind {
            ExperimentKind::Pipeline(p) => {
                push(&mut f, "graph", p.graph.to_json());
                push(&mut f, "reps", scaled_to_json(&p.reps, |n| num(*n as f64)));
                push(&mut f, "seeds", p.seeds.to_json());
                push(&mut f, "base", p.base.to_json());
                if !p.resilience.is_default() {
                    push(&mut f, "resilience", p.resilience.to_json());
                }
                push(&mut f, "variants", list_to_json(&p.variants));
                push(
                    &mut f,
                    "layout",
                    s(match p.layout {
                        SweepLayout::Grid => "grid",
                        SweepLayout::Stacked => "stacked",
                    }),
                );
                push(&mut f, "axes", list_to_json(&p.axes));
                push(
                    &mut f,
                    "rows",
                    s(match p.rows {
                        RowLayout::Points => "points",
                        RowLayout::Variants => "variants",
                    }),
                );
                push(&mut f, "columns", list_to_json(&p.columns));
            }
            ExperimentKind::Embedding(e) => {
                push(&mut f, "graph", e.graph.to_json());
                push(&mut f, "base", e.base.to_json());
                push(&mut f, "variants", list_to_json(&e.variants));
                push(&mut f, "pipeline_seed", num(e.pipeline_seed as f64));
            }
            ExperimentKind::QpeResolution(q) => {
                push(&mut f, "graph", q.graph.to_json());
                push(&mut f, "q", num(q.q));
                push(&mut f, "qpe_scale", num(q.qpe_scale));
                push(&mut f, "bits", usize_list_to_json(&q.bits));
            }
            ExperimentKind::Resources(r) => {
                push(&mut f, "qpe_bits", num(r.qpe_bits as f64));
                push(
                    &mut f,
                    "sizes",
                    scaled_to_json(&r.sizes, |v| usize_list_to_json(v)),
                );
                push(
                    &mut f,
                    "amplification_rounds",
                    num(r.amplification_rounds as f64),
                );
                push(&mut f, "tomography_shots", num(r.tomography_shots as f64));
                push(
                    &mut f,
                    "synthesis",
                    Value::Obj(vec![
                        ("graph".into(), r.synthesis_graph.to_json()),
                        ("max_n".into(), num(r.synthesis_max_n as f64)),
                        ("q".into(), num(r.q)),
                        ("qpe_scale".into(), num(r.qpe_scale)),
                    ]),
                );
            }
            ExperimentKind::Trotter(t) => {
                push(&mut f, "graph", t.graph.to_json());
                push(&mut f, "q", num(t.q));
                push(&mut f, "time", num(t.time));
                push(&mut f, "steps", usize_list_to_json(&t.steps));
            }
            ExperimentKind::Search(se) => {
                push(&mut f, "graph", se.graph.to_json());
                push(&mut f, "reps", scaled_to_json(&se.reps, |n| num(*n as f64)));
                push(&mut f, "seeds", se.seeds.to_json());
                push(&mut f, "base", se.base.to_json());
                if !se.resilience.is_default() {
                    push(&mut f, "resilience", se.resilience.to_json());
                }
                push(&mut f, "search", se.search.to_json());
            }
        }
        Value::Obj(f)
    }
}

fn decode_usize_list(value: &Value, context: &str) -> Result<Vec<usize>, JsonError> {
    value
        .as_array()
        .ok_or_else(|| JsonError::msg(format!("{context}: expected an array of integers")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| JsonError::msg(format!("{context}: expected non-negative integers")))
        })
        .collect()
}

impl FromJson for ExperimentSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut r = value.reader("experiment")?;
        let name = r.req_str("name")?.to_string();
        let title = r.opt_str("title")?.unwrap_or(&name).to_string();
        let kind_name = r.opt_str("kind")?.unwrap_or("pipeline").to_string();

        let mut scale_set = Vec::new();
        if let Some(v) = r.take("scale_set") {
            let mut sr = v.reader("scale_set")?;
            for scale in [Scale::Quick, Scale::Full] {
                if let Some(assignments) = sr.take(scale.name()) {
                    let fields = assignments.as_object().ok_or_else(|| {
                        JsonError::msg(format!("scale_set.{}: expected an object", scale.name()))
                    })?;
                    for (path, value) in fields {
                        scale_set.push((scale, path.clone(), value.clone()));
                    }
                }
            }
            sr.finish()?;
        }

        let sinks = match r.take("sinks") {
            None => vec![SinkFormat::Csv],
            Some(v) => v
                .as_array()
                .ok_or_else(|| JsonError::msg("sinks: expected an array"))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .and_then(SinkFormat::parse)
                        .ok_or_else(|| JsonError::msg(format!("sinks: unknown sink `{item}`")))
                })
                .collect::<Result<_, _>>()?,
        };

        let analyses = match r.take("analyses") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| JsonError::msg("analyses: expected an array"))?
                .iter()
                .map(Analysis::decode)
                .collect::<Result<_, _>>()?,
        };

        let decode_variants = |r: &mut ObjReader<'_>| -> Result<Vec<Variant>, JsonError> {
            let variants: Vec<Variant> = r
                .required("variants")?
                .as_array()
                .ok_or_else(|| JsonError::msg("variants: expected an array"))?
                .iter()
                .map(Variant::decode)
                .collect::<Result<_, _>>()?;
            if variants.is_empty() {
                return Err(JsonError::msg("variants: need at least one"));
            }
            for (i, v) in variants.iter().enumerate() {
                if variants[..i].iter().any(|w| w.name == v.name) {
                    return Err(JsonError::msg(format!(
                        "variants: duplicate name `{}`",
                        v.name
                    )));
                }
            }
            Ok(variants)
        };

        let kind = match kind_name.as_str() {
            "pipeline" => {
                let graph = GraphSpec::from_json(r.required("graph")?)?;
                let reps = match r.take("reps") {
                    None => Scaled::uniform(1),
                    Some(v) => Scaled::decode(v, "reps", |v| {
                        v.as_usize()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| JsonError::msg("reps: expected a positive integer"))
                    })?,
                };
                let seeds = match r.take("seeds") {
                    None => SeedPolicy::default(),
                    Some(v) => SeedPolicy::decode(v)?,
                };
                let base = match r.take("base") {
                    None => RecipePatch::default(),
                    Some(v) => RecipePatch::from_json(v)?,
                };
                let resilience = match r.take("resilience") {
                    None => ResiliencePolicy::default(),
                    Some(v) => ResiliencePolicy::from_json(v)?,
                };
                let variants = decode_variants(&mut r)?;
                let layout = match r.opt_str("layout")? {
                    None | Some("grid") => SweepLayout::Grid,
                    Some("stacked") => SweepLayout::Stacked,
                    Some(other) => {
                        return Err(JsonError::msg(format!(
                            "layout: unknown layout `{other}` (expected grid | stacked)"
                        )))
                    }
                };
                let axes: Vec<Axis> = match r.take("axes") {
                    None => Vec::new(),
                    Some(v) => v
                        .as_array()
                        .ok_or_else(|| JsonError::msg("axes: expected an array"))?
                        .iter()
                        .map(Axis::decode)
                        .collect::<Result<_, _>>()?,
                };
                if axes.is_empty() {
                    return Err(JsonError::msg("axes: a pipeline sweep needs at least one"));
                }
                let rows = match r.opt_str("rows")? {
                    None | Some("points") => RowLayout::Points,
                    Some("variants") => RowLayout::Variants,
                    Some(other) => {
                        return Err(JsonError::msg(format!(
                            "rows: unknown layout `{other}` (expected points | variants)"
                        )))
                    }
                };
                let columns: Vec<ColumnSpec> = r
                    .required("columns")?
                    .as_array()
                    .ok_or_else(|| JsonError::msg("columns: expected an array"))?
                    .iter()
                    .map(ColumnSpec::decode)
                    .collect::<Result<_, _>>()?;
                if columns.is_empty() {
                    return Err(JsonError::msg("columns: need at least one"));
                }
                // Metric/failure columns must reference existing variants.
                for col in &columns {
                    let named = match &col.source {
                        ColumnSource::Metric {
                            variant: Some(v), ..
                        }
                        | ColumnSource::Failures { variant: Some(v) } => Some(v),
                        _ => None,
                    };
                    if let Some(v) = named {
                        if !variants.iter().any(|w| &w.name == v) {
                            return Err(JsonError::msg(format!(
                                "column `{}`: unknown variant `{v}`",
                                col.header
                            )));
                        }
                    }
                }
                ExperimentKind::Pipeline(Box::new(PipelineSpec {
                    graph,
                    reps,
                    seeds,
                    base,
                    variants,
                    layout,
                    axes,
                    rows,
                    columns,
                    resilience,
                }))
            }
            "embedding" => {
                let graph = GraphSpec::from_json(r.required("graph")?)?;
                let base = match r.take("base") {
                    None => RecipePatch::default(),
                    Some(v) => RecipePatch::from_json(v)?,
                };
                let variants = decode_variants(&mut r)?;
                ExperimentKind::Embedding(EmbeddingSpec {
                    graph,
                    base,
                    variants,
                    pipeline_seed: r.u64_or("pipeline_seed", 0)?,
                })
            }
            "qpe_resolution" => ExperimentKind::QpeResolution(QpeResolutionSpec {
                graph: GraphSpec::from_json(r.required("graph")?)?,
                q: r.f64_or("q", qsc_graph::Q_CLASSICAL)?,
                qpe_scale: r.f64_or("qpe_scale", 4.0)?,
                bits: decode_usize_list(r.required("bits")?, "bits")?,
            }),
            "resources" => {
                let sizes_value = r.required("sizes")?;
                let sizes =
                    Scaled::decode(sizes_value, "sizes", |v| decode_usize_list(v, "sizes"))?;
                let synthesis = r.required("synthesis")?;
                let mut sr = synthesis.reader("synthesis")?;
                let synthesis_graph = GraphSpec::from_json(sr.required("graph")?)?;
                let synthesis_max_n = sr.usize_or("max_n", 64)?;
                let q = sr.f64_or("q", qsc_graph::Q_CLASSICAL)?;
                let qpe_scale = sr.f64_or("qpe_scale", 4.0)?;
                sr.finish()?;
                ExperimentKind::Resources(ResourcesSpec {
                    qpe_bits: r.usize_or("qpe_bits", QuantumParams::default().qpe_bits)?,
                    sizes,
                    amplification_rounds: r.usize_or("amplification_rounds", 4)?,
                    tomography_shots: r.usize_or("tomography_shots", 64)?,
                    synthesis_graph,
                    synthesis_max_n,
                    q,
                    qpe_scale,
                })
            }
            "trotter" => ExperimentKind::Trotter(TrotterSpec {
                graph: GraphSpec::from_json(r.required("graph")?)?,
                q: r.f64_or("q", qsc_graph::Q_CLASSICAL)?,
                time: r.f64_or("time", 1.0)?,
                steps: decode_usize_list(r.required("steps")?, "steps")?,
            }),
            "search" => {
                let graph = GraphSpec::from_json(r.required("graph")?)?;
                let reps = match r.take("reps") {
                    None => Scaled::uniform(1),
                    Some(v) => Scaled::decode(v, "reps", |v| {
                        v.as_usize()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| JsonError::msg("reps: expected a positive integer"))
                    })?,
                };
                let seeds = match r.take("seeds") {
                    None => SeedPolicy::default(),
                    Some(v) => SeedPolicy::decode(v)?,
                };
                let base = match r.take("base") {
                    None => RecipePatch::default(),
                    Some(v) => RecipePatch::from_json(v)?,
                };
                let resilience = match r.take("resilience") {
                    None => ResiliencePolicy::default(),
                    Some(v) => ResiliencePolicy::from_json(v)?,
                };
                let search = qsc_search::SearchSpec::from_json(r.required("search")?)?;
                // A dimension that a scale_set assignment also pins is
                // contradictory: the fixed axis would silently overwrite
                // (or be overwritten by) every candidate.
                for (_, path, _) in &scale_set {
                    if search.space.dims.iter().any(|d| &d.path == path) {
                        return Err(JsonError::msg(format!(
                            "search.space: dimension `{path}` collides with the fixed scale_set \
                             axis `{path}`"
                        )));
                    }
                }
                ExperimentKind::Search(Box::new(SearchExperiment {
                    graph,
                    reps,
                    seeds,
                    base,
                    resilience,
                    search,
                }))
            }
            other => {
                return Err(JsonError::msg(format!(
                    "kind: unknown experiment kind `{other}` (expected pipeline | embedding | \
                     qpe_resolution | resources | trotter | search)"
                )))
            }
        };
        r.finish()?;
        Ok(ExperimentSpec {
            name,
            title,
            scale_set,
            sinks,
            analyses,
            kind,
        })
    }
}
