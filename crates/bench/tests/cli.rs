//! End-to-end tests of the `experiments` binary: output-directory
//! creation (parents included), the error paths' exit codes, and the
//! `--submit` client mode against a live `qsc-serve` instance (spawned
//! from the service crate's own tests — here we only verify the local
//! CLI surface, the service round-trip lives in `qsc-serve`).

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsc-exp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn write_tiny_spec(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("spec dir");
    let path = dir.join("tiny.json");
    std::fs::write(
        &path,
        r#"{
  "name": "cli_tiny",
  "title": "cli test",
  "kind": "pipeline",
  "graph": {"family": "dsbm", "k": 2, "p_intra": 0.4, "p_inter": 0.05},
  "reps": 1,
  "base": {"k": 2},
  "variants": [{"name": "classical"}],
  "axes": [{"name": "n", "path": "graph.n", "values": [32]}],
  "columns": [
    {"header": "n", "axis": "n"},
    {"header": "acc", "variant": "classical", "metric": "matched_accuracy"}
  ]
}"#,
    )
    .expect("write spec");
    path
}

/// `--out-dir` with missing *parents* must be created, not errored on.
#[test]
fn out_dir_parents_are_created() {
    let root = tmp_dir("outdir");
    let spec = write_tiny_spec(&root);
    let nested = root.join("a/b/c/results");
    assert!(!nested.exists());

    let output = experiments()
        .args(["--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&nested)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = nested.join("cli_tiny.csv");
    assert!(csv.exists(), "series written into the nested directory");
    let text = std::fs::read_to_string(&csv).expect("csv readable");
    assert!(text.starts_with("n,acc\n"), "got: {text}");
}

/// An unwritable out-dir (a *file* squatting on the path) is a runtime
/// error: message on stderr, exit 1, no panic.
#[test]
fn unwritable_out_dir_exits_1_with_message() {
    let root = tmp_dir("outdir-err");
    let spec = write_tiny_spec(&root);
    let squatter = root.join("not-a-dir");
    std::fs::write(&squatter, "occupied").expect("squatter file");

    let output = experiments()
        .args(["--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&squatter)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "runtime failures exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("cannot create"),
        "error names the failure: {stderr}"
    );
}

/// Usage errors (unknown flag / unknown experiment) exit 2, runtime
/// errors (unreadable spec file) exit 1 — scripts rely on the split.
#[test]
fn exit_codes_distinguish_usage_from_runtime() {
    let unknown_flag = experiments()
        .args(["--fulll"])
        .output()
        .expect("binary runs");
    assert_eq!(unknown_flag.status.code(), Some(2));

    let unknown_experiment = experiments()
        .args(["tabel1"])
        .output()
        .expect("binary runs");
    assert_eq!(
        unknown_experiment.status.code(),
        Some(2),
        "a misspelled experiment name is a usage error"
    );

    let missing_spec = experiments()
        .args(["--spec", "/nonexistent/spec.json"])
        .output()
        .expect("binary runs");
    assert_eq!(missing_spec.status.code(), Some(1));

    let bad_submit = experiments()
        .args(["--submit"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_submit.status.code(), Some(2), "--submit needs a value");
}

/// `--submit` against a dead server is a runtime error (exit 1) that
/// names the connection failure, and the out-dir (parents included) is
/// still created up front so partial tooling can rely on it.
#[test]
fn submit_to_dead_server_exits_1() {
    let root = tmp_dir("submit-dead");
    let spec = write_tiny_spec(&root);
    let nested = root.join("x/y/results");

    let output = experiments()
        .args(["--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&nested)
        // Port 9 (discard) on localhost: nothing listens there.
        .args(["--submit", "http://127.0.0.1:9"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("submit"), "error names the phase: {stderr}");
    assert!(nested.exists(), "out-dir parents created before submission");
}

/// An unknown `QSC_KERNELS` value is a usage error: named message on
/// stderr, exit 2, no panic — and no sweep runs on a silently different
/// tier. Forced available tiers are honored and run normally.
#[test]
fn bogus_kernel_tier_exits_2_with_named_error() {
    let root = tmp_dir("kernels-env");
    let spec = write_tiny_spec(&root);

    // A value that is not UTF-8 is as bogus as a misspelled tier, not
    // "unset"; it is named by its lossy form.
    let not_utf8 = OsStr::from_bytes(b"sse\xff");
    for (value, named) in [(OsStr::new("sse9"), "sse9"), (not_utf8, "sse\u{fffd}")] {
        let bogus = experiments()
            .env("QSC_KERNELS", value)
            .args(["--spec"])
            .arg(&spec)
            .output()
            .expect("binary runs");
        assert_eq!(bogus.status.code(), Some(2), "{value:?}");
        let stderr = String::from_utf8_lossy(&bogus.stderr);
        assert!(
            stderr.contains("QSC_KERNELS"),
            "names the variable: {stderr}"
        );
        assert!(stderr.contains(named), "names the bad value: {stderr}");
    }

    // The always-available forced tiers run the sweep to completion.
    for tier in ["scalar", "portable"] {
        let out_dir = root.join(format!("out-{tier}"));
        let forced = experiments()
            .env("QSC_KERNELS", tier)
            .args(["--spec"])
            .arg(&spec)
            .args(["--out-dir"])
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert!(
            forced.status.success(),
            "{tier}: {}",
            String::from_utf8_lossy(&forced.stderr)
        );
        assert!(out_dir.join("cli_tiny.csv").exists());
    }
}

/// A `QSC_STATE_BUDGET_BYTES` that is not a byte count is a usage error:
/// named message on stderr, exit 2, and no sweep runs on a silent 4 GiB
/// default. A valid count runs the sweep to completion.
#[test]
fn bogus_state_budget_exits_2_with_named_error() {
    let root = tmp_dir("budget-env");
    let spec = write_tiny_spec(&root);

    for bad in ["4GiB", "-1", ""] {
        let out_dir = root.join("out-bad");
        let bogus = experiments()
            .env("QSC_STATE_BUDGET_BYTES", bad)
            .args(["--spec"])
            .arg(&spec)
            .args(["--out-dir"])
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert_eq!(bogus.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&bogus.stderr);
        assert!(
            stderr.contains("QSC_STATE_BUDGET_BYTES"),
            "names the variable: {stderr}"
        );
        assert!(stderr.contains(bad), "names the bad value: {stderr}");
        assert!(!out_dir.exists(), "no sweep ran for {bad:?}");
    }

    let out_dir = root.join("out-good");
    let good = experiments()
        .env("QSC_STATE_BUDGET_BYTES", "1073741824")
        .args(["--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("binary runs");
    assert!(
        good.status.success(),
        "{}",
        String::from_utf8_lossy(&good.stderr)
    );
    assert!(out_dir.join("cli_tiny.csv").exists());
}

/// The CSV at `path` with its `*_wall_s` columns dropped: the columns a
/// rerun may change.
fn csv_without_wall_columns(path: &Path) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(path).expect("csv readable");
    let header = text.lines().next().expect("header");
    let keep: Vec<bool> = header.split(',').map(|h| !h.ends_with("_wall_s")).collect();
    text.lines()
        .map(|line| {
            line.split(',')
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(cell, _)| cell.to_string())
                .collect()
        })
        .collect()
}

/// A `--spec` file equal to a built-in (here the shipped
/// `specs/table1.json`) runs as that experiment, and only that one: the
/// same CSV as the built-in run, outside the wall-clock columns.
#[test]
fn spec_file_equal_to_a_builtin_runs_as_that_builtin() {
    let root = tmp_dir("builtin-copy");
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/table1.json");
    let (from_file, builtin) = (root.join("from-file"), root.join("builtin"));

    let output = experiments()
        .args(["--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&from_file)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let written: Vec<String> = std::fs::read_dir(&from_file)
        .expect("out dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(written, ["table1.csv"], "only the selected experiment runs");

    let output = experiments()
        .args(["table1", "--out-dir"])
        .arg(&builtin)
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    assert_eq!(
        csv_without_wall_columns(&from_file.join("table1.csv")),
        csv_without_wall_columns(&builtin.join("table1.csv"))
    );
}

/// A different spec under a built-in's name is still refused: exit 1,
/// naming the taken name, before any experiment runs.
#[test]
fn edited_spec_under_a_taken_name_exits_1() {
    let root = tmp_dir("builtin-edit");
    std::fs::create_dir_all(&root).expect("spec dir");
    let shipped = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/table1.json"),
    )
    .expect("shipped spec");
    let edited = shipped.replacen("\"quick\": 3", "\"quick\": 2", 1);
    assert_ne!(edited, shipped, "the edit applies");
    let path = root.join("table1.json");
    std::fs::write(&path, edited).expect("write spec");
    let out_dir = root.join("out");

    let output = experiments()
        .args(["--spec"])
        .arg(&path)
        .args(["--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("`table1` is already taken"),
        "names the taken name: {stderr}"
    );
    assert!(!out_dir.join("table1.csv").exists(), "no experiment ran");
}
