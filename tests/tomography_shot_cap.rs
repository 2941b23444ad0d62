//! A spec that asks for more tomography shots than a request may draw
//! fails at once with a typed error.
//!
//! This file is its own test binary: its wall-time bound measures the
//! fail-fast path, so no other sweep may run beside it in the same process.

use qsc_bench::{ExperimentSpec, Scale, SweepRunner};

#[test]
fn oversized_tomography_shots_fail_fast_with_a_typed_error() {
    // noise_shots with 10^12 tomography shots: above the 2^24 per-request
    // shot cap every repetition must fail with the typed error at once,
    // not run the multinomial draw for hours.
    let text = include_str!("../specs/noise_shots.json")
        .replace(
            r#""tomography_shots": 512"#,
            r#""tomography_shots": 1000000000000"#,
        )
        .replace(r#""values": [64, 512]"#, r#""values": [1000000000000]"#);
    assert_eq!(text.matches("1000000000000").count(), 2, "spec edit missed");
    let spec = ExperimentSpec::parse(&text).expect("spec parses");
    let start = std::time::Instant::now();
    let output = SweepRunner::new(Scale::Quick)
        .run(&spec)
        .expect("spec runs");
    let elapsed = start.elapsed();
    assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    let table = &output.primary;
    assert_eq!(table.len(), 3, "one row per depolarizing level");
    for header in ["trajectory_acc", "exact_acc"] {
        let col = table.column_index(header).expect(header);
        for row in table.rows() {
            // `failed(<kind>)` marks a cell whose every repetition failed;
            // the shot cap is a typed `InvalidParameter`, kind `error`.
            assert_eq!(row[col], "failed(error)", "{header}: {row:?}");
        }
    }
}
