//! The hyper-parameter search engine behind the `"search"` experiment
//! kind: interprets a [`SearchExperiment`] (space + objective + strategy
//! from [`qsc_search`]) on top of the sweep engine's recipe machinery.
//!
//! Every candidate is a run — workload, seeds and resolved recipe — and
//! its repetition batches take the sweep's path (`runner::run_shared`), so
//! the per-instance seeding discipline carries over and a search's trial
//! table is bit-identical at any worker count. The sweep's sharing rule
//! applies unchanged: candidates whose recipes differ only in the
//! clustering stage (`clusterer.delta`) share one batch — one staged
//! embedding per instance, clustered per candidate. A panicking or
//! failing repetition flows through the resilience layer's `FailureKind`
//! taxonomy; a candidate with no surviving repetitions is *pruned*
//! (shown as `pruned(<kind>)`), never fatal.
//!
//! Successive halving evaluates repetitions *incrementally*: rung `r`
//! only runs the repetition range its predecessors have not, and merges
//! the objective values — per-repetition seeds derive from the
//! repetition index, so ranges compose without re-evaluation.

use crate::runner::{
    assign, run_shared, slot_metric_values, BenchError, InstanceSets, Recipe, Run, RunSlot,
    SweepRunner,
};
use crate::spec::{ExperimentSpec, SearchExperiment};
use qsc_core::report::{fmt, mean, Table};
use qsc_core::FailureKind;
use qsc_graph::spec::GeneratedInstance;
use qsc_search::{halving_schedule, select_winner, Candidate, CostAxis, Strategy, TrialScore};

/// One candidate's resolved run: workload + recipe with the candidate's
/// assignments applied.
struct Prepared {
    candidate: Candidate,
    run: Run,
    /// Resolved `quantum.tomography_shots` (0 without a quantum stage) —
    /// the per-repetition unit of the `total_shots` cost axis.
    shots_per_rep: usize,
}

/// A candidate's accumulated evaluation state across rungs.
struct TrialState {
    /// Objective values of the surviving repetitions.
    values: Vec<f64>,
    /// Cost-metric values of the surviving repetitions (metric cost axes).
    cost_values: Vec<f64>,
    /// `(kind, count)` of failed repetitions, in first-seen order.
    failures: Vec<(FailureKind, usize)>,
    /// Repetitions attempted so far.
    reps_done: usize,
    /// The rung (0-based) this candidate was eliminated after, if any.
    eliminated_after: Option<usize>,
}

impl TrialState {
    fn new() -> Self {
        TrialState {
            values: Vec::new(),
            cost_values: Vec::new(),
            failures: Vec::new(),
            reps_done: 0,
            eliminated_after: None,
        }
    }

    /// Mean objective over the surviving repetitions (`None` = pruned).
    fn score(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(mean(&self.values))
        }
    }

    /// The most frequent failure kind (ties: first seen).
    fn dominant_failure(&self) -> Option<FailureKind> {
        let mut best: Option<(FailureKind, usize)> = None;
        for &(kind, n) in &self.failures {
            if best.is_none_or(|(_, m)| n > m) {
                best = Some((kind, n));
            }
        }
        best.map(|(kind, _)| kind)
    }

    fn record_failure(&mut self, kind: FailureKind) {
        match self.failures.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.failures.push((kind, 1)),
        }
    }

    /// The candidate's cost-axis total.
    fn cost(&self, axis: Option<CostAxis>, shots_per_rep: usize) -> f64 {
        match axis {
            // Budgeted shots: the configured shot count is spent per
            // attempted repetition whether or not it survives.
            Some(CostAxis::TotalShots) => (shots_per_rep * self.reps_done) as f64,
            Some(CostAxis::Metric(_)) => self.cost_values.iter().sum(),
            None => 0.0,
        }
    }
}

/// Interprets one search experiment; returns the trial table and the
/// notes (winner summary + strategy accounting).
pub(crate) fn run_search(
    runner: &SweepRunner,
    spec: &ExperimentSpec,
    se: &SearchExperiment,
) -> Result<(Table, Vec<String>), BenchError> {
    let scale = runner.scale();
    let full_reps = *se.reps.get(scale);

    // Resolve the candidate pool.
    let candidates = match se.search.strategy {
        Strategy::Grid | Strategy::SuccessiveHalving { .. } => se.search.space.grid(),
        Strategy::Random { seed, trials } => se.search.space.random(seed, trials),
    };

    // Resolve each candidate's workload + recipe once, up front — a bad
    // assignment (e.g. `backend.depolarizing` without a backend kind)
    // fails the search before anything runs.
    let prepared: Vec<Prepared> = candidates
        .into_iter()
        .map(|candidate| -> Result<Prepared, BenchError> {
            let (mut graph, mut recipe) =
                runner.scaled(spec, &se.graph, Recipe::from_patch(&se.base))?;
            for (path, value) in se.search.space.assignments(&candidate) {
                assign(&mut graph, &mut recipe, path, value)?;
            }
            let shots_per_rep = recipe
                .quantum
                .as_ref()
                .map_or(0, |params| params.tomography_shots);
            Ok(Prepared {
                candidate,
                run: Run {
                    graph,
                    seeds: se.seeds,
                    recipe,
                },
                shots_per_rep,
            })
        })
        .collect::<Result<_, _>>()?;

    let mut states: Vec<TrialState> = prepared.iter().map(|_| TrialState::new()).collect();
    let objective = &se.search.objective;
    let sign = if objective.maximize { 1.0 } else { -1.0 };

    let strategy_note = match se.search.strategy {
        Strategy::Grid => {
            let all: Vec<usize> = (0..prepared.len()).collect();
            evaluate(runner, se, &prepared, &all, 0, full_reps, &mut states)?;
            format!(
                "strategy: grid — {} candidates × {} reps ({} evaluations)",
                prepared.len(),
                full_reps,
                prepared.len() * full_reps
            )
        }
        Strategy::Random { seed, trials } => {
            let all: Vec<usize> = (0..prepared.len()).collect();
            evaluate(runner, se, &prepared, &all, 0, full_reps, &mut states)?;
            format!(
                "strategy: random — {trials} trials (seed {seed}) × {full_reps} reps \
                 ({} evaluations)",
                trials * full_reps
            )
        }
        Strategy::SuccessiveHalving { budget, eta } => {
            let (rungs, used) = halving_schedule(prepared.len(), full_reps, eta, budget);
            let mut active: Vec<usize> = (0..prepared.len()).collect();
            let mut reps_so_far = 0;
            for (ri, rung) in rungs.iter().enumerate() {
                // Entering survivor count below the active set means the
                // previous rung's ranking takes effect now.
                if rung.survivors < active.len() {
                    active.sort_by(|&a, &b| {
                        match (
                            states[a].score().map(|v| v * sign),
                            states[b].score().map(|v| v * sign),
                        ) {
                            // Descending score; pruned candidates rank
                            // last; ties keep the lower trial index.
                            (Some(x), Some(y)) => y.total_cmp(&x).then(a.cmp(&b)),
                            (Some(_), None) => std::cmp::Ordering::Less,
                            (None, Some(_)) => std::cmp::Ordering::Greater,
                            (None, None) => a.cmp(&b),
                        }
                    });
                    for &ci in &active[rung.survivors..] {
                        states[ci].eliminated_after = Some(ri - 1);
                    }
                    active.truncate(rung.survivors);
                    active.sort_unstable();
                }
                evaluate(
                    runner,
                    se,
                    &prepared,
                    &active,
                    reps_so_far,
                    rung.upto_reps,
                    &mut states,
                )?;
                reps_so_far = rung.upto_reps;
            }
            let shape: Vec<String> = rungs
                .iter()
                .map(|r| format!("{}@{}", r.survivors, r.upto_reps))
                .collect();
            format!(
                "strategy: successive_halving — rungs {}, {used}/{budget} evaluation budget used \
                 (vs {} for exhaustive grid)",
                shape.join(" → "),
                prepared.len() * full_reps
            )
        }
    };

    // Winner: only candidates that were never eliminated compete.
    let finalists: Vec<TrialScore> = prepared
        .iter()
        .zip(&states)
        .enumerate()
        .filter(|(_, (_, st))| st.eliminated_after.is_none())
        .map(|(i, (p, st))| TrialScore {
            index: i,
            objective: st.score(),
            cost: st.cost(objective.cost, p.shots_per_rep),
        })
        .collect();
    let winner = select_winner(&finalists, objective);

    // The trial table: one row per candidate, in trial order.
    let mut columns: Vec<String> = vec!["trial".into()];
    columns.extend(se.search.space.dims.iter().map(|d| d.path.clone()));
    columns.push("status".into());
    columns.push("reps".into());
    columns.push("objective".into());
    if let Some(axis) = objective.cost {
        columns.push(axis.name().to_string());
    }
    let mut table = Table::new(columns);
    for (i, (p, st)) in prepared.iter().zip(&states).enumerate() {
        let mut row: Vec<String> = vec![i.to_string()];
        row.extend(
            se.search
                .space
                .labels(&p.candidate)
                .iter()
                .map(|l| l.to_string()),
        );
        let status = if st.score().is_none() {
            match st.dominant_failure() {
                Some(kind) => format!("pruned({})", kind.name()),
                // Never evaluated: eliminated before its first rung can't
                // happen (rung 0 covers everyone), so this is unreachable
                // in practice but renders honestly if schedules change.
                None => "skipped".to_string(),
            }
        } else if let Some(ri) = st.eliminated_after {
            format!("eliminated(rung {ri})")
        } else if winner.is_some_and(|w| w.index == i) {
            "winner".to_string()
        } else {
            "ok".to_string()
        };
        row.push(status);
        row.push(st.reps_done.to_string());
        row.push(match st.score() {
            Some(v) => fmt(v, 4),
            None => "n/a".to_string(),
        });
        match objective.cost {
            Some(CostAxis::TotalShots) => {
                row.push((p.shots_per_rep * st.reps_done).to_string());
            }
            Some(CostAxis::Metric(_)) => {
                row.push(if st.cost_values.is_empty() {
                    "n/a".to_string()
                } else {
                    fmt(st.cost_values.iter().sum(), 4)
                });
            }
            None => {}
        }
        table.push_row(row);
    }

    let goal = if objective.maximize {
        "maximize"
    } else {
        "minimize"
    };
    let mut notes = vec![
        format!(
            "objective: {goal} {} over {} candidates",
            objective.metric.name(),
            prepared.len()
        ),
        strategy_note,
    ];
    // Lost repetitions are never silent: a candidate surviving on fewer
    // reps than its peers is a different statistical claim, and the note
    // says exactly how many evaluations the failures ate, by kind.
    let mut lost_by_kind: Vec<(FailureKind, usize)> = Vec::new();
    for st in &states {
        for &(kind, n) in &st.failures {
            match lost_by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, total)) => *total += n,
                None => lost_by_kind.push((kind, n)),
            }
        }
    }
    if !lost_by_kind.is_empty() {
        let lost: usize = lost_by_kind.iter().map(|&(_, n)| n).sum();
        let detail: Vec<String> = lost_by_kind
            .iter()
            .map(|(kind, n)| format!("{} ×{n}", kind.name()))
            .collect();
        notes.push(format!(
            "failures: {lost} repetition(s) lost ({})",
            detail.join(", ")
        ));
    }
    match winner {
        Some(w) => {
            let p = &prepared[w.index];
            let config: Vec<String> = se
                .search
                .space
                .dims
                .iter()
                .zip(se.search.space.labels(&p.candidate))
                .map(|(dim, label)| format!("{}={label}", dim.path))
                .collect();
            let mut line = format!(
                "winner: trial {} — {} — {} {}",
                w.index,
                config.join(", "),
                objective.metric.name(),
                // `w.objective` is Some for any winner select_winner returns.
                fmt(w.objective.unwrap_or(f64::NAN), 4),
            );
            if let Some(axis) = objective.cost {
                let cost = match axis {
                    CostAxis::TotalShots => format!("{}", w.cost as u64),
                    CostAxis::Metric(_) => fmt(w.cost, 4),
                };
                line.push_str(&format!(" — {} {cost}", axis.name()));
            }
            notes.push(line);
        }
        None => notes.push("winner: none — every candidate was pruned".to_string()),
    }
    Ok((table, notes))
}

/// Evaluates the repetition range `[rep_lo, rep_hi)` of the active
/// candidates through `run_shared`, accumulating objective/cost values and
/// failures into `states`.
fn evaluate(
    runner: &SweepRunner,
    se: &SearchExperiment,
    prepared: &[Prepared],
    active: &[usize],
    rep_lo: usize,
    rep_hi: usize,
    states: &mut [TrialState],
) -> Result<(), BenchError> {
    if rep_lo >= rep_hi {
        return Ok(());
    }
    let runs: Vec<&Run> = active.iter().map(|&ci| &prepared[ci].run).collect();
    // No two calls evaluate the same repetitions, so no instance set
    // outlives its call.
    let batches = run_shared(
        &mut InstanceSets::default(),
        &runs,
        rep_lo..rep_hi,
        |recipe| Ok(runner.pipeline(recipe)?.resilience(se.resilience.clone())?),
    )?;
    for (&ci, (instances, slots)) in active.iter().zip(batches) {
        accumulate(&mut states[ci], &slots, &instances, &prepared[ci], se);
    }
    Ok(())
}

/// Folds one repetition batch's slots into a candidate's state.
fn accumulate(
    state: &mut TrialState,
    slots: &[RunSlot],
    instances: &[GeneratedInstance],
    prepared: &Prepared,
    se: &SearchExperiment,
) {
    let k = prepared.run.recipe.k;
    state.values.extend(slot_metric_values(
        slots,
        instances,
        k,
        se.search.objective.metric,
    ));
    if let Some(CostAxis::Metric(metric)) = se.search.objective.cost {
        state
            .cost_values
            .extend(slot_metric_values(slots, instances, k, metric));
    }
    for slot in slots {
        if let Some(kind) = slot.failure() {
            state.record_failure(kind);
        }
    }
    state.reps_done += slots.len();
}
