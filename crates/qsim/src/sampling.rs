//! Multinomial sampling from an explicit probability vector.
//!
//! Every finite-shot count in the simulator — tomography's magnitude
//! round, [`ShotSampler`](crate::ShotSampler)'s phase register and the
//! density backend's readout — draws `shots` outcomes from a probability
//! vector with one `gen::<f64>()` each, and picks an outcome by the
//! inverse-CDF scan [`scan_index`]: subtract `p_0, p_1, …` from the draw
//! until it falls below the next probability. [`multinomial_counts`] gives
//! the counts of exactly those picks, without scanning per shot.
//!
//! # Why the table is exact
//!
//! A draw is `u = m·2⁻⁵³` for the 53-bit integer `m = next_u64() >> 11`.
//! Rounded subtraction `fl(x − p)` is monotone in `x`, so the index the
//! scan picks is a non-decreasing step function of `m`. For each
//! `j ≥ 1` let `B_j` be the smallest `m` whose scan picks an index `≥ j`
//! (or `2⁵³`, which no draw reaches). Then the scan of `u` picks
//! `#{j : B_j·2⁻⁵³ ≤ u}`, a branch-free count. Each `B_j` is found by
//! bisecting against the scan itself, starting from the prefix-sum
//! estimate `⌈(p_0 + … + p_{j−1})·2⁵³⌉` and galloping out until the scan
//! brackets it; rounding keeps the estimate within about `j` steps, so a
//! threshold costs a few partial scans. This is the "guide table" idea of
//! inverse-CDF sampling (Chen–Asau; Devroye, *Non-Uniform Random Variate
//! Generation*, §III.2), made exact to the bit rather than approximate.
//! Each shot still takes one `gen::<f64>()`, so the counts **and** the
//! generator's final state equal the per-shot scan's. The argument needs
//! finite probabilities; a vector with a non-finite entry is scanned.
//!
//! # Crossover
//!
//! Building the table costs `O(d²)` rounded subtractions for `d` outcomes;
//! each shot then costs `d − 1` compares instead of a scan of up to `d`
//! dependent subtractions with an unpredictable branch. Measured on a
//! 2-core x86-64 host (release build, SSE2 baseline, best of 5):
//! - on random vectors with `d ≤ 32`, the table took 0.55–1.0× the scan's
//!   time from 4 shots per outcome, and 1.2–2.5× with 1 shot per outcome;
//! - tomography's case, 4096 shots over 18 outcomes, went 87–103 µs →
//!   32–37 µs;
//! - at `d = 64` the table needed 8 shots per outcome on random vectors,
//!   and on a peaked QPE distribution (whose scan stops early and
//!   predictably) it never won: 1.02–1.1× even at 228 shots per outcome.
//!
//! So [`multinomial_counts`] builds the table for `2 ≤ d ≤ 32` outcomes
//! with at least 4 shots per outcome and scans otherwise. Both sides give
//! the same counts and generator state, so the choice never moves a byte.
//!
//! # Examples
//!
//! ```
//! use qsc_sim::sampling::{multinomial_counts, scan_index};
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! let probs = [0.125, 0.5, 0.375];
//! let mut table_rng = StdRng::seed_from_u64(5);
//! let counts = multinomial_counts(&probs, 1000, &mut table_rng);
//!
//! let mut scan_rng = StdRng::seed_from_u64(5);
//! let mut scanned = vec![0usize; probs.len()];
//! for _ in 0..1000 {
//!     scanned[scan_index(&probs, scan_rng.gen::<f64>())] += 1;
//! }
//! assert_eq!(counts, scanned);
//! assert_eq!(table_rng, scan_rng);
//! ```

use crate::error::SimError;
use rand::Rng;

/// Distinct draws behind `gen::<f64>()`: `u = m·2⁻⁵³` with `m < 2⁵³`.
const DRAWS: u64 = 1 << 53;

/// `2⁻⁵³`, the spacing of the draws.
const DRAW_UNIT: f64 = 1.0 / DRAWS as f64;

/// Shots per outcome below which building the table costs more than it
/// saves (see the module docs for the measurement).
const TABLE_MIN_SHOTS_PER_OUTCOME: usize = 4;

/// Outcome count above which a flat table's per-shot compares cost more
/// than the scan they replace (see the module docs).
const TABLE_MAX_OUTCOMES: usize = 32;

/// Largest shot count one request may ask for. A larger request is a
/// typed error rather than a loop that runs for as long as it asks.
const MAX_SHOTS: usize = 1 << 24;

/// The outcome the inverse-CDF scan picks for the draw `u ∈ [0, 1)`: the
/// first `i` with `u − p_0 − … − p_{i−1} < p_i` (rounded subtraction, in
/// index order), or the last index when rounding leaves the draw above
/// every probability. `0` for an empty vector.
pub fn scan_index(probs: &[f64], u: f64) -> usize {
    let mut target = u;
    for (i, &p) in probs.iter().enumerate() {
        if target < p {
            return i;
        }
        target -= p;
    }
    probs.len().saturating_sub(1)
}

/// Counts of `shots` outcomes drawn from `probs`, each picked by
/// [`scan_index`] on one `rng.gen::<f64>()`, in draw order. The counts and
/// the generator's final state are those of the per-shot scan; above the
/// crossover (module docs) the picks come from an exact threshold table.
/// An empty `probs` has no outcome to count: the answer is empty and
/// nothing is drawn.
pub fn multinomial_counts<R: Rng>(probs: &[f64], shots: usize, rng: &mut R) -> Vec<usize> {
    let d = probs.len();
    let mut counts = vec![0usize; d];
    if d == 0 {
        return counts;
    }
    let table = (2..=TABLE_MAX_OUTCOMES).contains(&d)
        && shots / d >= TABLE_MIN_SHOTS_PER_OUTCOME
        && probs.iter().all(|p| p.is_finite());
    if table {
        let thresholds = thresholds(probs);
        for _ in 0..shots {
            let u = rng.gen::<f64>();
            counts[thresholds.iter().filter(|&&t| t <= u).count()] += 1;
        }
    } else {
        for _ in 0..shots {
            counts[scan_index(probs, rng.gen::<f64>())] += 1;
        }
    }
    counts
}

/// Rejects a shot count above the per-request cap of `2²⁴`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] when `shots > 2²⁴`.
pub fn check_shots(shots: usize) -> Result<(), SimError> {
    if shots > MAX_SHOTS {
        return Err(SimError::InvalidParameter {
            context: format!("{shots} shots exceed the per-request cap of {MAX_SHOTS}"),
        });
    }
    Ok(())
}

/// The draws `B_j·2⁻⁵³` (`j = 1 … d−1`) at which the scan of finite
/// `probs` first picks an index `≥ j`; `1.0` where no draw does.
fn thresholds(probs: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(probs.len() - 1);
    let mut lo = 0u64;
    let mut prefix = 0.0f64;
    for j in 1..probs.len() {
        prefix += probs[j - 1];
        // `as u64` saturates (and sends NaN to 0); the clamp keeps the
        // guess inside the range the threshold can lie in.
        let guess = ((prefix * DRAWS as f64).ceil() as u64).clamp(lo, DRAWS);
        lo = first_passing(&probs[..j], lo, guess);
        out.push(lo as f64 * DRAW_UNIT);
    }
    out
}

/// Whether the scan of the draw `m·2⁻⁵³` passes every entry of `head`,
/// i.e. picks an index `≥ head.len()`.
fn passes(head: &[f64], m: u64) -> bool {
    let mut target = m as f64 * DRAW_UNIT;
    for &p in head {
        if target < p {
            return false;
        }
        target -= p;
    }
    true
}

/// The smallest `m ∈ [lo, 2⁵³]` whose draw passes `head`, counting `2⁵³`
/// as passing. `passes` is monotone in `m`; the search gallops from
/// `guess` to bracket the answer, then bisects.
fn first_passing(head: &[f64], lo: u64, guess: u64) -> u64 {
    let pass = |m: u64| m == DRAWS || passes(head, m);
    // The answer lies in `(fail, pass_at]`: `fail` fails, `pass_at` passes.
    let (mut fail, mut pass_at) = if pass(guess) {
        let mut pass_at = guess;
        let mut step = 1u64;
        loop {
            if pass_at == lo {
                return lo;
            }
            let probe = pass_at.saturating_sub(step).max(lo);
            if !pass(probe) {
                break (probe, pass_at);
            }
            pass_at = probe;
            step *= 2;
        }
    } else {
        let mut fail = guess;
        let mut step = 1u64;
        loop {
            let probe = fail.saturating_add(step).min(DRAWS);
            if pass(probe) {
                break (fail, probe);
            }
            fail = probe;
            step *= 2;
        }
    };
    while pass_at - fail > 1 {
        let mid = fail + (pass_at - fail) / 2;
        if pass(mid) {
            pass_at = mid;
        } else {
            fail = mid;
        }
    }
    pass_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-shot scan every count loop ran before the table: the oracle.
    fn scanned(probs: &[f64], shots: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut counts = vec![0usize; probs.len()];
        for _ in 0..shots {
            counts[scan_index(probs, rng.gen::<f64>())] += 1;
        }
        counts
    }

    /// `multinomial_counts` against the scan: equal counts and equal
    /// generator state afterwards.
    fn assert_matches_scan(probs: &[f64], shots: usize, seed: u64) {
        let mut table_rng = StdRng::seed_from_u64(seed);
        let mut scan_rng = StdRng::seed_from_u64(seed);
        let counts = multinomial_counts(probs, shots, &mut table_rng);
        assert_eq!(
            counts,
            scanned(probs, shots, &mut scan_rng),
            "probs {probs:?}, shots {shots}, seed {seed}"
        );
        assert!(table_rng == scan_rng, "rng diverged: probs {probs:?}");
    }

    /// Every threshold is the exact first draw past its boundary: the
    /// scan of `B_j` picks `≥ j` and the scan of `B_j − 1` picks `< j`.
    fn assert_thresholds_exact(probs: &[f64]) {
        for (i, &t) in thresholds(probs).iter().enumerate() {
            let j = i + 1;
            let m = (t / DRAW_UNIT) as u64;
            if m < DRAWS {
                assert!(scan_index(probs, t) >= j, "{probs:?}: B_{j} = {m}");
            }
            if m > 0 {
                let below = (m - 1) as f64 * DRAW_UNIT;
                assert!(scan_index(probs, below) < j, "{probs:?}: B_{j} = {m}");
            }
        }
    }

    #[test]
    fn scan_index_picks_the_first_interval_and_falls_back_to_the_last() {
        let probs = [0.25, 0.5, 0.25];
        assert_eq!(scan_index(&probs, 0.0), 0);
        assert_eq!(scan_index(&probs, 0.25), 1);
        assert_eq!(scan_index(&probs, 0.75), 2);
        // Rounding leaves 0.999 above a sum just below 1: the last index.
        assert_eq!(scan_index(&[0.5, 0.4], 0.999), 1);
        assert_eq!(scan_index(&[], 0.5), 0);
    }

    #[test]
    fn zeros_and_one_hot_vectors_match_the_scan() {
        for d in 1..=12 {
            assert_matches_scan(&vec![0.0; d], 64 * d, d as u64);
            for hot in 0..d {
                let mut probs = vec![0.0; d];
                probs[hot] = 1.0;
                assert_matches_scan(&probs, 64 * d, 100 + hot as u64);
                assert_thresholds_exact(&probs);
            }
        }
    }

    #[test]
    fn subnormal_probabilities_match_the_scan() {
        let tiny = f64::MIN_POSITIVE / 4.0;
        let probs = [tiny, 0.5, tiny, 5e-324, 0.5 - 3.0 * tiny, tiny];
        assert_thresholds_exact(&probs);
        assert_matches_scan(&probs, 4096, 7);
        assert_matches_scan(&[5e-324, 1.0], 512, 8);
        assert_matches_scan(&[1.0, 5e-324], 512, 9);
    }

    #[test]
    fn sums_just_below_one_fall_back_to_the_last_index() {
        let short = 1.0 - 2f64.powi(-20);
        for probs in [
            vec![0.5, short - 0.5],
            vec![0.25, 0.25, 0.25, short - 0.75],
            vec![short / 3.0; 3],
            vec![0.1; 9],
        ] {
            assert_thresholds_exact(&probs);
            assert_matches_scan(&probs, 1 << 16, 11);
        }
        // The draws past the sum (half of them) land on the last index.
        let counts = multinomial_counts(&[0.5, 0.25], 4096, &mut StdRng::seed_from_u64(12));
        assert!(counts[1] > 1500, "{counts:?}");
    }

    #[test]
    fn one_and_two_outcomes_match_the_scan() {
        assert_matches_scan(&[1.0], 1000, 13);
        assert_matches_scan(&[0.3], 1000, 14);
        assert_matches_scan(&[0.3, 0.7], 1000, 15);
        assert_matches_scan(&[0.0, 1.0], 1000, 16);
        assert_thresholds_exact(&[0.3, 0.7]);
    }

    #[test]
    fn shot_counts_on_both_sides_of_the_crossover_match_the_scan() {
        let probs: Vec<f64> = (1..=18).map(|i| i as f64 / 171.0).collect();
        let edge = TABLE_MIN_SHOTS_PER_OUTCOME * probs.len();
        for shots in [0, 1, edge - 1, edge, edge + 1, 4096] {
            assert_matches_scan(&probs, shots, shots as u64);
        }
        let wide = vec![1.0 / 80.0; TABLE_MAX_OUTCOMES + 16];
        assert_matches_scan(&wide, 100 * wide.len(), 17);
        let widest = vec![1.0 / TABLE_MAX_OUTCOMES as f64; TABLE_MAX_OUTCOMES];
        assert_matches_scan(&widest, 100 * widest.len(), 18);
    }

    /// Replays a fixed list of 53-bit draws `m`, cycling.
    struct Replay(Vec<u64>, usize);

    impl Rng for Replay {
        fn next_u64(&mut self) -> u64 {
            let m = self.0[self.1 % self.0.len()];
            self.1 += 1;
            m << 11
        }
    }

    #[test]
    fn draws_on_and_beside_every_threshold_match_the_scan() {
        for probs in [
            vec![0.25, 0.5, 0.25],
            vec![0.1; 10],
            (1..=18).map(|i| i as f64 / 171.0).collect(),
            vec![0.0, 0.5, 0.0, 0.5],
        ] {
            let draws: Vec<u64> = thresholds(&probs)
                .iter()
                .map(|&t| (t / DRAW_UNIT) as u64)
                .flat_map(|m| [m.saturating_sub(1), m, (m + 1).min(DRAWS - 1)])
                .collect();
            let shots = draws.len() * TABLE_MIN_SHOTS_PER_OUTCOME;
            let counts = multinomial_counts(&probs, shots, &mut Replay(draws.clone(), 0));
            let mut replay = Replay(draws, 0);
            let mut want = vec![0usize; probs.len()];
            for _ in 0..shots {
                want[scan_index(&probs, replay.gen::<f64>())] += 1;
            }
            assert_eq!(counts, want, "{probs:?}");
        }
    }

    #[test]
    fn non_finite_probabilities_are_scanned() {
        for probs in [
            [0.5, f64::NAN, 0.5],
            [f64::INFINITY, 0.5, 0.5],
            [0.5, f64::NEG_INFINITY, 0.5],
        ] {
            assert_matches_scan(&probs, 1000, 19);
        }
    }

    #[test]
    fn seeded_random_vectors_match_the_scan() {
        let mut gen = StdRng::seed_from_u64(20);
        for case in 0..3000u64 {
            let d = 1 + (gen.next_u64() % 40) as usize;
            let mut probs: Vec<f64> = (0..d)
                .map(|_| match gen.next_u64() % 8 {
                    0 => 0.0,
                    1 => gen.gen::<f64>() * 1e-300,
                    _ => gen.gen::<f64>(),
                })
                .collect();
            // Normalize most vectors the way the callers do; leave some
            // short of or past 1.
            let total: f64 = probs.iter().sum();
            if total > 0.0 && case % 5 != 0 {
                for p in &mut probs {
                    *p /= total;
                }
            }
            if case % 50 == 0 {
                assert_thresholds_exact(&probs);
            }
            let shots = [d, 4 * d, 64 * d, 4096][(case % 4) as usize];
            assert_matches_scan(&probs, shots, case);
        }
    }

    #[test]
    fn empty_probabilities_draw_nothing() {
        let mut rng = StdRng::seed_from_u64(21);
        assert!(multinomial_counts(&[], 100, &mut rng).is_empty());
        assert!(rng == StdRng::seed_from_u64(21));
    }

    #[test]
    fn shot_cap_rejects_only_counts_above_it() {
        assert!(check_shots(0).is_ok());
        assert!(check_shots(MAX_SHOTS).is_ok());
        let err = check_shots(MAX_SHOTS + 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "{err}");
        assert!(check_shots(1 << 53).is_err());
    }
}
