//! # qsc-search — hyper-parameter search as data
//!
//! The search model behind the `"search"` experiment kind: a
//! [`SearchSpace`] of pipeline/quantum/backend knobs, an [`Objective`]
//! over the metrics registry (with an optional secondary cost axis), and
//! a [`Strategy`] — exhaustive [`Strategy::Grid`], seeded
//! [`Strategy::Random`], or budget-aware
//! [`Strategy::SuccessiveHalving`] with early stopping.
//!
//! This crate is deliberately *pure*: it knows how to parse, validate and
//! enumerate searches (candidates, rung schedules, winner selection), but
//! never runs a pipeline. `qsc-bench`'s `SweepRunner` interprets the
//! enumeration through the isolated batch runners; `qsc-serve` exposes it
//! as `POST /v1/searches`. Everything here is deterministic: the random
//! strategy derives every draw from the spec's seed via SplitMix64, so a
//! search is a pure function of its canonical JSON document — which is
//! what makes whole-search results content-addressable.
//!
//! Decoding goes through `qsc-json` with the workspace's strict
//! discipline: unknown fields, unknown metrics, non-positive budgets and
//! duplicate/colliding dimensions are rejected at parse time with the
//! offending field named in the error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use qsc_cluster::registry::MetricKind;
use qsc_json::{num, s, FromJson, JsonError, ToJson, Value};

/// Sweep paths a search dimension may drive — the same addressing scheme
/// the sweep engine's axes use.
const PATHS: &str = "graph.* | quantum.* | pipeline.k | pipeline.q | pipeline.normalize_rows | \
     pipeline.symmetrize | clusterer.delta | backend | backend.*";

fn validate_path(path: &str) -> Result<(), JsonError> {
    let ok = path.strip_prefix("graph.").is_some_and(|f| !f.is_empty())
        || path.strip_prefix("quantum.").is_some_and(|f| !f.is_empty())
        || path.strip_prefix("backend.").is_some_and(|f| !f.is_empty())
        || path == "backend"
        || path == "clusterer.delta"
        || matches!(
            path,
            "pipeline.k" | "pipeline.q" | "pipeline.normalize_rows" | "pipeline.symmetrize"
        );
    if ok {
        Ok(())
    } else {
        Err(JsonError::msg(format!(
            "search.space: unknown dimension path `{path}` (expected {PATHS})"
        )))
    }
}

/// One labelled point of a search dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimPoint {
    /// The value assigned to the dimension's path.
    pub value: Value,
    /// Display label (defaults to the value's own rendering).
    pub label: String,
}

impl DimPoint {
    fn decode(v: &Value, path: &str) -> Result<DimPoint, JsonError> {
        if let Value::Obj(_) = v {
            let mut r = v.reader(&format!("search.space `{path}` value"))?;
            let value = r.required("value")?.clone();
            let label = match r.opt_str("label")? {
                Some(l) => l.to_string(),
                None => value.to_string(),
            };
            r.finish()?;
            Ok(DimPoint { value, label })
        } else {
            Ok(DimPoint {
                value: v.clone(),
                label: v.to_string(),
            })
        }
    }
}

impl ToJson for DimPoint {
    fn to_json(&self) -> Value {
        if self.label != self.value.to_string() {
            Value::Obj(vec![
                ("value".into(), self.value.clone()),
                ("label".into(), s(self.label.clone())),
            ])
        } else if let Value::Obj(_) = self.value {
            // A bare object would decode as the `{"value", "label"}` form.
            Value::Obj(vec![("value".into(), self.value.clone())])
        } else {
            self.value.clone()
        }
    }
}

/// One dimension of the search space: a sweep path and its candidate
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchDim {
    /// The knob this dimension drives (`quantum.tomography_shots`,
    /// `clusterer.delta`, `backend`, …).
    pub path: String,
    /// The values the search may assign to it.
    pub values: Vec<DimPoint>,
}

impl SearchDim {
    fn decode(v: &Value) -> Result<SearchDim, JsonError> {
        let mut r = v.reader("search.space dimension")?;
        let path = r.req_str("path")?.to_string();
        validate_path(&path)?;
        let values = r
            .required("values")?
            .as_array()
            .ok_or_else(|| {
                JsonError::msg(format!("search.space `{path}`.values: expected an array"))
            })?
            .iter()
            .map(|v| DimPoint::decode(v, &path))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        if values.is_empty() {
            return Err(JsonError::msg(format!(
                "search.space `{path}`.values: need at least one value"
            )));
        }
        Ok(SearchDim { path, values })
    }
}

impl ToJson for SearchDim {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("path".into(), s(self.path.clone())),
            (
                "values".into(),
                Value::Arr(self.values.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// The full search space: the cartesian grid of its dimensions is the
/// candidate pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// The dimensions, in declaration order (which fixes candidate
    /// enumeration order, and therefore trial indices).
    pub dims: Vec<SearchDim>,
}

/// One configuration drawn from a [`SearchSpace`]: the `(path, value)`
/// assignments of its trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Stable trial index (enumeration order).
    pub index: usize,
    /// One `(dimension index, point index)` choice per dimension.
    pub choices: Vec<usize>,
}

impl SearchSpace {
    /// Number of points in the exhaustive grid.
    pub fn grid_size(&self) -> usize {
        self.dims.iter().map(|d| d.values.len()).product()
    }

    /// The exhaustive candidate pool, in row-major dimension order (last
    /// dimension fastest).
    pub fn grid(&self) -> Vec<Candidate> {
        let mut pool = vec![Vec::new()];
        for dim in &self.dims {
            pool = pool
                .into_iter()
                .flat_map(|prefix: Vec<usize>| {
                    (0..dim.values.len()).map(move |i| {
                        let mut next = prefix.clone();
                        next.push(i);
                        next
                    })
                })
                .collect();
        }
        pool.into_iter()
            .enumerate()
            .map(|(index, choices)| Candidate { index, choices })
            .collect()
    }

    /// `trials` candidates sampled uniformly (with replacement) from the
    /// grid, deterministically from `seed`. Draw `t`'s choice in
    /// dimension `d` depends only on `(seed, t, d)` — never on thread
    /// count or evaluation order.
    pub fn random(&self, seed: u64, trials: usize) -> Vec<Candidate> {
        (0..trials)
            .map(|t| Candidate {
                index: t,
                choices: self
                    .dims
                    .iter()
                    .enumerate()
                    .map(|(d, dim)| {
                        let draw = splitmix64(
                            seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ (d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                        );
                        (draw % dim.values.len() as u64) as usize
                    })
                    .collect(),
            })
            .collect()
    }

    /// The `(path, value)` assignments of a candidate.
    pub fn assignments<'a>(&'a self, c: &Candidate) -> Vec<(&'a str, &'a Value)> {
        self.dims
            .iter()
            .zip(&c.choices)
            .map(|(dim, &i)| (dim.path.as_str(), &dim.values[i].value))
            .collect()
    }

    /// The display labels of a candidate, one per dimension.
    pub fn labels<'a>(&'a self, c: &Candidate) -> Vec<&'a str> {
        self.dims
            .iter()
            .zip(&c.choices)
            .map(|(dim, &i)| dim.values[i].label.as_str())
            .collect()
    }
}

/// SplitMix64 — the one-shot mixer behind the random strategy's draws.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The secondary cost axis of an [`Objective`] — what ties on the
/// objective are broken by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostAxis {
    /// Total tomography shots spent on the candidate: its resolved
    /// `quantum.tomography_shots` × repetitions evaluated (0 without a
    /// quantum stage). Config-derived, so it is defined even when a
    /// repetition fails.
    TotalShots,
    /// A registry metric, summed over the surviving repetitions.
    Metric(MetricKind),
}

impl CostAxis {
    /// The registry/wire name of the axis.
    pub fn name(&self) -> &'static str {
        match self {
            CostAxis::TotalShots => "total_shots",
            CostAxis::Metric(m) => m.name(),
        }
    }
}

/// What the search optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// The optimized metric (mean over surviving repetitions).
    pub metric: MetricKind,
    /// `true` to maximize, `false` to minimize.
    pub maximize: bool,
    /// Candidates whose objective is within `tolerance` of the best are
    /// tied; ties go to the lower cost (then the lower trial index).
    pub tolerance: f64,
    /// The tie-breaking cost axis.
    pub cost: Option<CostAxis>,
}

impl Objective {
    fn decode(v: &Value) -> Result<Objective, JsonError> {
        let mut r = v.reader("search.objective")?;
        let metric_name = r.req_str("metric")?;
        let metric = MetricKind::parse(metric_name).ok_or_else(|| {
            JsonError::msg(format!(
                "search.objective.metric: unknown metric `{metric_name}` (not in the registry)"
            ))
        })?;
        let maximize = match r.opt_str("goal")? {
            None | Some("maximize") => true,
            Some("minimize") => false,
            Some(other) => {
                return Err(JsonError::msg(format!(
                    "search.objective.goal: unknown goal `{other}` (expected maximize | minimize)"
                )))
            }
        };
        let tolerance = r.f64_or("tolerance", 0.0)?;
        if tolerance.is_nan() || tolerance < 0.0 {
            return Err(JsonError::msg(format!(
                "search.objective.tolerance: must be non-negative (got {tolerance})"
            )));
        }
        let cost = match r.opt_str("cost")? {
            None => None,
            Some("total_shots") => Some(CostAxis::TotalShots),
            Some(name) => Some(CostAxis::Metric(MetricKind::parse(name).ok_or_else(
                || {
                    JsonError::msg(format!(
                        "search.objective.cost: unknown cost axis `{name}` (expected total_shots \
                         or a registry metric)"
                    ))
                },
            )?)),
        };
        r.finish()?;
        Ok(Objective {
            metric,
            maximize,
            tolerance,
            cost,
        })
    }
}

impl ToJson for Objective {
    fn to_json(&self) -> Value {
        let mut f = vec![("metric".to_string(), s(self.metric.name()))];
        f.push((
            "goal".into(),
            s(if self.maximize {
                "maximize"
            } else {
                "minimize"
            }),
        ));
        if self.tolerance != 0.0 {
            f.push(("tolerance".into(), num(self.tolerance)));
        }
        if let Some(cost) = self.cost {
            f.push(("cost".into(), s(cost.name())));
        }
        Value::Obj(f)
    }
}

/// How candidates are drawn and budgeted.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Every grid point, at the full repetition count.
    Grid,
    /// `trials` seeded uniform draws from the grid, at the full
    /// repetition count.
    Random {
        /// The draw seed.
        seed: u64,
        /// Number of sampled candidates.
        trials: usize,
    },
    /// Successive halving over the full grid: every candidate starts at
    /// one repetition; each rung keeps the best `1/eta` fraction and
    /// promotes the survivors to `eta ×` the repetitions, until the
    /// spec's repetition count or the evaluation budget is reached.
    SuccessiveHalving {
        /// Hard cap on total `(candidate, repetition)` evaluations.
        budget: usize,
        /// Elimination factor between rungs (≥ 2).
        eta: usize,
    },
}

impl Strategy {
    fn decode(v: &Value) -> Result<Strategy, JsonError> {
        let mut r = v.reader("search.strategy")?;
        let kind = r.req_str("kind")?.to_string();
        let positive_int = |v: &Value, field: &str| -> Result<usize, JsonError> {
            let n = v.as_f64().ok_or_else(|| {
                JsonError::msg(format!("search.strategy.{field}: expected a number"))
            })?;
            if n.is_nan() || n < 1.0 || n.fract() != 0.0 {
                return Err(JsonError::msg(format!(
                    "search.strategy.{field}: must be a positive integer (got {v})"
                )));
            }
            Ok(n as usize)
        };
        let strategy = match kind.as_str() {
            "grid" => Strategy::Grid,
            "random" => Strategy::Random {
                seed: r.u64_or("seed", 0)?,
                trials: positive_int(r.required("trials")?, "trials")?,
            },
            "successive_halving" => {
                let budget = positive_int(r.required("budget")?, "budget")?;
                let eta = match r.take("eta") {
                    None => 2,
                    Some(v) => positive_int(v, "eta")?,
                };
                if eta < 2 {
                    return Err(JsonError::msg(format!(
                        "search.strategy.eta: must be at least 2 (got {eta})"
                    )));
                }
                Strategy::SuccessiveHalving { budget, eta }
            }
            other => {
                return Err(JsonError::msg(format!(
                    "search.strategy.kind: unknown strategy `{other}` (expected grid | random | \
                     successive_halving)"
                )))
            }
        };
        r.finish()?;
        Ok(strategy)
    }
}

impl ToJson for Strategy {
    fn to_json(&self) -> Value {
        match self {
            Strategy::Grid => Value::Obj(vec![("kind".into(), s("grid"))]),
            Strategy::Random { seed, trials } => Value::Obj(vec![
                ("kind".into(), s("random")),
                ("seed".into(), num(*seed as f64)),
                ("trials".into(), num(*trials as f64)),
            ]),
            Strategy::SuccessiveHalving { budget, eta } => Value::Obj(vec![
                ("kind".into(), s("successive_halving")),
                ("budget".into(), num(*budget as f64)),
                ("eta".into(), num(*eta as f64)),
            ]),
        }
    }
}

/// A complete `"search"` block: space + objective + strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The searched dimensions.
    pub space: SearchSpace,
    /// What is optimized.
    pub objective: Objective,
    /// How candidates are drawn and budgeted.
    pub strategy: Strategy,
}

impl FromJson for SearchSpec {
    fn from_json(v: &Value) -> Result<SearchSpec, JsonError> {
        let mut r = v.reader("search")?;
        let dims: Vec<SearchDim> = r
            .required("space")?
            .as_array()
            .ok_or_else(|| JsonError::msg("search.space: expected an array of dimensions"))?
            .iter()
            .map(SearchDim::decode)
            .collect::<Result<_, _>>()?;
        if dims.is_empty() {
            return Err(JsonError::msg("search.space: need at least one dimension"));
        }
        for (i, dim) in dims.iter().enumerate() {
            if dims[..i].iter().any(|d| d.path == dim.path) {
                return Err(JsonError::msg(format!(
                    "search.space: duplicate dimension `{}`",
                    dim.path
                )));
            }
        }
        let space = SearchSpace { dims };
        let objective = Objective::decode(r.required("objective")?)?;
        let strategy = Strategy::decode(r.required("strategy")?)?;
        if let Strategy::SuccessiveHalving { budget, .. } = strategy {
            let pool = space.grid_size();
            if budget < pool {
                return Err(JsonError::msg(format!(
                    "search.strategy.budget: budget {budget} cannot cover one repetition of each \
                     of the {pool} grid candidates"
                )));
            }
        }
        r.finish()?;
        Ok(SearchSpec {
            space,
            objective,
            strategy,
        })
    }
}

impl ToJson for SearchSpec {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "space".into(),
                Value::Arr(self.space.dims.iter().map(ToJson::to_json).collect()),
            ),
            ("objective".into(), self.objective.to_json()),
            ("strategy".into(), self.strategy.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Successive-halving schedule
// ---------------------------------------------------------------------------

/// One rung of a successive-halving schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Candidates entering the rung (the best survivors of the previous
    /// one).
    pub survivors: usize,
    /// Cumulative repetitions each surviving candidate has been
    /// evaluated at once the rung completes.
    pub upto_reps: usize,
}

/// The rung schedule of a successive-halving run, decided *before* any
/// evaluation: `pool` candidates start at one repetition; each rung keeps
/// `ceil(n/eta)` and multiplies the cumulative repetitions by `eta`
/// (capped at `full_reps`), while the total `(candidate, repetition)`
/// evaluation count stays within `budget`. Returns the rungs and the
/// units the schedule actually spends.
pub fn halving_schedule(
    pool: usize,
    full_reps: usize,
    eta: usize,
    budget: usize,
) -> (Vec<Rung>, usize) {
    let mut rungs = Vec::new();
    let mut used = 0usize;
    let mut n = pool;
    let mut reps = 0usize;
    while n >= 1 {
        let next_reps = if reps == 0 {
            1
        } else {
            (reps * eta).min(full_reps)
        };
        let cost = n * (next_reps - reps);
        if used + cost > budget {
            break;
        }
        used += cost;
        rungs.push(Rung {
            survivors: n,
            upto_reps: next_reps,
        });
        reps = next_reps;
        if n == 1 && reps >= full_reps {
            break;
        }
        if reps >= full_reps {
            // Repetitions are maxed out; one final elimination rung
            // would add no information, so stop and let winner selection
            // rank the survivors.
            break;
        }
        if n > 1 {
            n = n.div_ceil(eta);
        }
    }
    (rungs, used)
}

// ---------------------------------------------------------------------------
// Winner selection
// ---------------------------------------------------------------------------

/// One evaluated trial, as winner selection sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialScore {
    /// Trial index.
    pub index: usize,
    /// Mean objective over the surviving repetitions (`None` = pruned).
    pub objective: Option<f64>,
    /// The trial's cost-axis total.
    pub cost: f64,
}

/// Picks the winning trial: the best objective, with candidates within
/// `tolerance` of the best tied and resolved by the lower cost, then the
/// lower trial index. Pruned trials (no objective) never win. Returns
/// `None` when every trial was pruned.
pub fn select_winner(scores: &[TrialScore], objective: &Objective) -> Option<TrialScore> {
    let sign = if objective.maximize { 1.0 } else { -1.0 };
    let best = scores
        .iter()
        .filter_map(|t| t.objective.map(|o| o * sign))
        .fold(f64::NEG_INFINITY, f64::max);
    if best == f64::NEG_INFINITY {
        return None;
    }
    scores
        .iter()
        .filter(|t| {
            t.objective
                .is_some_and(|o| o * sign >= best - objective.tolerance)
        })
        .copied()
        // min_by on (cost, index): the iterator is in score order, and
        // `min_by` keeps the earliest on ties, so the lower trial index
        // wins exact cost ties.
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(strategy: &str) -> String {
        format!(
            r#"{{
              "space": [
                {{"path": "clusterer.delta", "values": [0.1, 0.2, 0.3]}},
                {{"path": "quantum.tomography_shots", "values": [64, 512]}}
              ],
              "objective": {{"metric": "matched_accuracy", "goal": "maximize",
                             "tolerance": 0.02, "cost": "total_shots"}},
              "strategy": {strategy}
            }}"#
        )
    }

    fn parse(strategy: &str) -> Result<SearchSpec, JsonError> {
        SearchSpec::from_json(&Value::parse(&spec_json(strategy)).unwrap())
    }

    #[test]
    fn grid_enumerates_row_major() {
        let spec = parse(r#"{"kind": "grid"}"#).unwrap();
        let grid = spec.space.grid();
        assert_eq!(grid.len(), 6);
        assert_eq!(spec.space.grid_size(), 6);
        assert_eq!(grid[0].choices, vec![0, 0]);
        assert_eq!(grid[1].choices, vec![0, 1]);
        assert_eq!(grid[5].choices, vec![2, 1]);
        let a = spec.space.assignments(&grid[4]);
        assert_eq!(a[0].0, "clusterer.delta");
        assert_eq!(a[0].1.as_f64(), Some(0.3));
        assert_eq!(a[1].1.as_f64(), Some(64.0));
        assert_eq!(spec.space.labels(&grid[4]), vec!["0.3", "64"]);
    }

    #[test]
    fn random_draws_are_seed_deterministic_and_in_range() {
        let spec = parse(r#"{"kind": "random", "seed": 7, "trials": 20}"#).unwrap();
        let a = spec.space.random(7, 20);
        let b = spec.space.random(7, 20);
        assert_eq!(a, b);
        let c = spec.space.random(8, 20);
        assert_ne!(a, c, "different seeds should draw differently");
        for cand in &a {
            assert!(cand.choices[0] < 3 && cand.choices[1] < 2);
        }
    }

    #[test]
    fn round_trips_through_to_json() {
        for strategy in [
            r#"{"kind": "grid"}"#,
            r#"{"kind": "random", "seed": 3, "trials": 5}"#,
            r#"{"kind": "successive_halving", "budget": 12, "eta": 2}"#,
        ] {
            let spec = parse(strategy).unwrap();
            let again = SearchSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(spec, again, "{strategy}");
        }
    }

    #[test]
    fn unlabelled_object_points_round_trip() {
        let point = Value::parse(r#"{"value": {"density": {"depolarizing": 0.1}}}"#).unwrap();
        let decoded = DimPoint::decode(&point, "backend").unwrap();
        assert_eq!(decoded.label, decoded.value.to_string());
        assert_eq!(
            DimPoint::decode(&decoded.to_json(), "backend").unwrap(),
            decoded
        );
    }

    #[test]
    fn contradictory_specs_are_rejected_with_the_field_named() {
        let cases = [
            (
                r#"{"kind": "successive_halving", "budget": 0}"#,
                "search.strategy.budget",
            ),
            (
                r#"{"kind": "successive_halving", "budget": -4}"#,
                "search.strategy.budget",
            ),
            (
                // 6 grid candidates need at least 6 units.
                r#"{"kind": "successive_halving", "budget": 5}"#,
                "search.strategy.budget",
            ),
            (
                r#"{"kind": "successive_halving", "budget": 12, "eta": 1}"#,
                "search.strategy.eta",
            ),
            (
                r#"{"kind": "random", "trials": 0}"#,
                "search.strategy.trials",
            ),
            (r#"{"kind": "annealing"}"#, "search.strategy.kind"),
        ];
        for (strategy, field) in cases {
            let err = parse(strategy).unwrap_err().to_string();
            assert!(err.contains(field), "{strategy}: {err}");
        }

        let bad_metric = spec_json(r#"{"kind": "grid"}"#).replace("matched_accuracy", "acuracy");
        let err = SearchSpec::from_json(&Value::parse(&bad_metric).unwrap())
            .unwrap_err()
            .to_string();
        assert!(err.contains("search.objective.metric"), "{err}");

        let dup =
            spec_json(r#"{"kind": "grid"}"#).replace("quantum.tomography_shots", "clusterer.delta");
        let err = SearchSpec::from_json(&Value::parse(&dup).unwrap())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("duplicate dimension `clusterer.delta`"),
            "{err}"
        );

        let bad_path = spec_json(r#"{"kind": "grid"}"#).replace("clusterer.delta", "cluster.delta");
        let err = SearchSpec::from_json(&Value::parse(&bad_path).unwrap())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown dimension path `cluster.delta`"),
            "{err}"
        );
    }

    #[test]
    fn halving_schedule_promotes_and_respects_budget() {
        // 6 candidates, 4 full reps, eta 2, generous budget:
        // 6@1 (6) → 3@2 (3) → 2@4 (4) = 13 units.
        let (rungs, used) = halving_schedule(6, 4, 2, 100);
        assert_eq!(
            rungs,
            vec![
                Rung {
                    survivors: 6,
                    upto_reps: 1
                },
                Rung {
                    survivors: 3,
                    upto_reps: 2
                },
                Rung {
                    survivors: 2,
                    upto_reps: 4
                },
            ]
        );
        assert_eq!(used, 13);

        // Tight budget stops before the last rung.
        let (rungs, used) = halving_schedule(6, 4, 2, 10);
        assert_eq!(rungs.len(), 2);
        assert_eq!(used, 9);

        // The budget always covers rung 0 (parse-time invariant).
        let (rungs, used) = halving_schedule(6, 4, 2, 6);
        assert_eq!(rungs.len(), 1);
        assert_eq!(used, 6);

        // reps cap: quick scale with 2 reps has exactly 2 rungs.
        let (rungs, _) = halving_schedule(8, 2, 2, 100);
        assert_eq!(
            rungs,
            vec![
                Rung {
                    survivors: 8,
                    upto_reps: 1
                },
                Rung {
                    survivors: 4,
                    upto_reps: 2
                },
            ]
        );

        // Exhaustive halving beats the grid on evaluation units.
        let (_, halving_units) = halving_schedule(8, 4, 2, 1000);
        assert!(halving_units < 8 * 4);
    }

    #[test]
    fn winner_selection_breaks_ties_by_cost_then_index() {
        let objective = Objective {
            metric: MetricKind::MatchedAccuracy,
            maximize: true,
            tolerance: 0.02,
            cost: Some(CostAxis::TotalShots),
        };
        let scores = [
            TrialScore {
                index: 0,
                objective: Some(0.99),
                cost: 1024.0,
            },
            TrialScore {
                index: 1,
                objective: Some(0.98),
                cost: 128.0,
            },
            TrialScore {
                index: 2,
                objective: Some(0.90),
                cost: 64.0,
            },
            TrialScore {
                index: 3,
                objective: None,
                cost: 0.0,
            },
            TrialScore {
                index: 4,
                objective: Some(0.98),
                cost: 128.0,
            },
        ];
        // 0.98 is within tolerance of 0.99; trial 1 is cheaper than 0 and
        // earlier than 4.
        let winner = select_winner(&scores, &objective).unwrap();
        assert_eq!(winner.index, 1);

        // Without tolerance the best objective wins outright.
        let strict = Objective {
            tolerance: 0.0,
            ..objective
        };
        assert_eq!(select_winner(&scores, &strict).unwrap().index, 0);

        // Minimization flips the ranking.
        let min = Objective {
            maximize: false,
            tolerance: 0.0,
            ..objective
        };
        assert_eq!(select_winner(&scores, &min).unwrap().index, 2);

        // Everything pruned → no winner.
        assert!(select_winner(
            &[TrialScore {
                index: 0,
                objective: None,
                cost: 0.0
            }],
            &objective
        )
        .is_none());
    }
}
