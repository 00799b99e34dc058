//! The benchmark's own checks: the correctness oracle catches corrupted
//! references and plaintexts, the op counts per decrypt are exact, and
//! the result line carries every metric.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use dlr_perfbench::{result_json, run, Corrupt, Opts, Outcome, E2E_METRICS, LAYER_METRICS};
use std::sync::Mutex;

/// Program spans are process-wide: one workload at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_short(workload: &str, seconds: f64, trace: bool, corrupt: Option<Corrupt>) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!(
        "dlr-perfbench-test-{workload}-{}",
        std::process::id()
    ));
    run(&Opts {
        workload: workload.into(),
        seed: 7,
        seconds,
        trace,
        work_dir: dir,
        corrupt,
    })
    .expect("workload runs")
}

fn correct(out: &Outcome) -> bool {
    out.tally.failed == 0 && out.tally.attempted > 0
}

#[test]
fn corrupted_reference_reply_fails_the_run() {
    let out = run_short("toy-serve", 1.0, false, Some(Corrupt::ReferenceReply));
    assert!(
        out.tally.failed >= 1,
        "a flipped reference byte must be caught"
    );
    assert!(result_json(&out, false).starts_with("{\"correct\": false"));
}

#[test]
fn corrupted_expected_plaintext_fails_the_run() {
    let out = run_short("toy-rotate", 1.0, false, Some(Corrupt::ExpectedPlaintext));
    assert!(
        out.tally.failed >= 1,
        "a wrong expected plaintext must be caught"
    );
    assert!(result_json(&out, false).starts_with("{\"correct\": false"));
}

#[test]
fn toy_reuse_op_counts_are_exact() {
    let out = run_short("toy-rotate", 1.0, false, None);
    assert!(correct(&out), "{:?}", out.tally.notes);
    let start = out.ops["dec.p1.start"];
    assert_eq!((start.pairings, start.g_pow), (69, 51));
    assert_eq!(out.ops["dec.p2.respond"].gt_pow, 68);
}

#[test]
fn ss512_reuse_op_counts_are_exact() {
    let out = run_short("ss512-device", 1.0, false, None);
    assert!(correct(&out), "{:?}", out.tally.notes);
    assert_eq!(out.ops["dec.p1.start"].pairings, 43);
}

#[test]
fn result_lines_carry_every_metric() {
    let out = run_short("toy-serve", 1.0, true, None);
    assert!(correct(&out), "{:?}", out.tally.notes);
    let untraced = result_json(&out, false);
    let traced = result_json(&out, true);
    for name in E2E_METRICS {
        assert!(
            untraced.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    for name in LAYER_METRICS {
        assert!(
            traced.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    assert!(!out.spans.is_empty(), "the traced run records spans");
}

#[test]
fn unknown_workload_is_an_error() {
    let err = run(&Opts {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        work_dir: std::env::temp_dir().join("dlr-perfbench-test-nope"),
        corrupt: None,
    });
    assert!(err.is_err());
}
