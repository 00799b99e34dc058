//! Benchmark of the DLR two-device decryption service.
//!
//! `run.py` builds this package and runs its binary once per workload
//! and seed; see README.md for the workloads, the metrics and how the
//! traced run attributes the end-to-end time to layers.

pub mod common;
pub mod metrics;
pub mod phases;
pub mod replay;
pub mod trace;
pub mod workloads;

pub use workloads::{run, Corrupt, Opts, Outcome, WORKLOADS};

/// End-to-end metrics, printed by every untraced run.
pub const E2E_METRICS: [&str; 11] = [
    "dec_rps",
    "dec_p50_ms",
    "dec_p99_ms",
    "refresh_p50_ms",
    "refresh_p99_ms",
    "serve_p50_ms",
    "serve_max_rps",
    "enc_per_s",
    "setup_s",
    "verified_frac",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run.
pub const LAYER_METRICS: [&str; 46] = [
    "core.dec_start_us",
    "core.dec_finish_us",
    "core.dec_respond_us",
    "core.ref_start_us",
    "core.ref_respond_us",
    "core.ref_finish_us",
    "core.enc_us",
    "core.keygen_ms",
    "core.warm_ms",
    "core.pairings_per_dec",
    "core.g_pow_per_dec",
    "core.gt_pow_per_dec",
    "core.g_op_per_dec",
    "core.gt_op_per_dec",
    "curve.pair_us",
    "curve.pair_prepared_us",
    "curve.g_pow_us",
    "curve.gt_pow_us",
    "curve.gt_multiexp_us",
    "curve.g_random_us",
    "curve.g_op_us",
    "curve.gt_op_us",
    "math.fp_mul_ns",
    "math.fp2_mul_ns",
    "ledger.p1_explained_frac",
    "ledger.e2e_explained_frac",
    "wire.req_bytes",
    "wire.reply_bytes",
    "wire.round_us",
    "server.overhead_us",
    "server.exec_busy_frac",
    "server.hot_worker_share",
    "server.wakeups_per_req",
    "server.migrations_per_session",
    "server.refresh_overhead_us",
    "server.error_replies",
    "server.busy_rejects",
    "cluster.open_us",
    "cluster.spawn_ms",
    "cluster.redirects",
    "cluster.failovers",
    "loadgen.offered_rps",
    "loadgen.lag_p99_ms",
    "loadgen.serve_p99_ms",
    "trace.overhead_frac",
    "error_frac",
];

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with the end-to-end metrics (untraced) or the per-layer ones (traced).
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let (names, metrics): (&[&str], _) = if traced {
        (&LAYER_METRICS, &out.layer)
    } else {
        (&E2E_METRICS, &out.e2e)
    };
    let body: Vec<String> = names
        .iter()
        .map(|name| {
            let (value, unit) = metrics
                .0
                .get(*name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
        body.join(", ")
    )
}

/// A finite JSON number with every digit the measurement has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
