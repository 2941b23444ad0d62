//! The shipped evaluation suite: every table/figure of the reconstructed
//! paper evaluation as an embedded spec file.
//!
//! The JSON sources live under `specs/` at the repository root (edit them
//! there; they are compiled in via `include_str!`), and each is exposed as
//! a constant for programmatic use. `specs/noise_shots.json` — the
//! cross-axis noise × shots scenario no hand-written function ever covered
//! — is deliberately *not* part of the default suite: it demonstrates that
//! new scenarios are plain spec files loaded with `--spec`.

use crate::spec::ExperimentSpec;
use qsc_json::JsonError;

/// `table1` — accuracy vs `n`, classical / quantum / symmetrized.
pub const TABLE1: &str = include_str!("../../../specs/table1.json");
/// `table2` — direction sensitivity over `η_flow`.
pub const TABLE2: &str = include_str!("../../../specs/table2.json");
/// `table3` — quantum precision sweep (QPE bits / shots / δ).
pub const TABLE3: &str = include_str!("../../../specs/table3.json");
/// `table4` — netlist module recovery.
pub const TABLE4: &str = include_str!("../../../specs/table4.json");
/// `table5` — well-clusterability of the spectral space.
pub const TABLE5: &str = include_str!("../../../specs/table5.json");
/// `table6` — quantum graph construction vs `ε_dist`.
pub const TABLE6: &str = include_str!("../../../specs/table6.json");
/// `fig1` — two-circles embedding dump.
pub const FIG1: &str = include_str!("../../../specs/fig1.json");
/// `fig2` — runtime scaling and cost models.
pub const FIG2: &str = include_str!("../../../specs/fig2.json");
/// `fig3` — QPE resolution.
pub const FIG3: &str = include_str!("../../../specs/fig3.json");
/// `fig4` — rotation-parameter ablation.
pub const FIG4: &str = include_str!("../../../specs/fig4.json");
/// `fig5` — hardware resource forecast.
pub const FIG5: &str = include_str!("../../../specs/fig5.json");
/// `fig6` — Trotterization error.
pub const FIG6: &str = include_str!("../../../specs/fig6.json");
/// `a3` — Lanczos-vs-full-decomposition ablation.
pub const A3: &str = include_str!("../../../specs/a3.json");

/// `(name, JSON source)` of every built-in experiment, in suite order.
pub const BUILTIN: &[(&str, &str)] = &[
    ("table1", TABLE1),
    ("table2", TABLE2),
    ("table3", TABLE3),
    ("table4", TABLE4),
    ("table5", TABLE5),
    ("table6", TABLE6),
    ("fig1", FIG1),
    ("fig2", FIG2),
    ("fig3", FIG3),
    ("fig4", FIG4),
    ("fig5", FIG5),
    ("fig6", FIG6),
    ("a3", A3),
];

/// Parses one built-in spec by name.
///
/// # Errors
///
/// Returns [`JsonError`] if the embedded spec is malformed.
pub fn builtin_spec(name: &str) -> Option<Result<ExperimentSpec, JsonError>> {
    BUILTIN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| ExperimentSpec::parse(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_json::{FromJson, ToJson};

    #[test]
    fn every_builtin_parses_and_matches_its_name() {
        for (name, text) in BUILTIN {
            let spec = ExperimentSpec::parse(text).expect(name);
            assert_eq!(&spec.name, name);
            assert!(!spec.title.is_empty());
        }
    }

    #[test]
    fn every_builtin_round_trips_through_to_json() {
        for (name, text) in BUILTIN {
            let spec = ExperimentSpec::parse(text).expect(name);
            let reserialized = spec.to_json();
            let back = ExperimentSpec::from_json(&reserialized)
                .unwrap_or_else(|e| panic!("{name} reserialization does not parse: {e}"));
            assert_eq!(back, spec, "{name} does not round-trip");
        }
    }

    #[test]
    fn builtin_lookup() {
        assert!(builtin_spec("table1").is_some());
        assert!(builtin_spec("no_such_experiment").is_none());
    }
}
