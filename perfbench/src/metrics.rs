//! Metric assembly: the end-to-end table of an untraced run and the
//! per-layer table of a traced run, from what the workload measured.

use crate::common::{lower_quartile, mean, median, peak_rss_mb, Metrics, Samples, Tally};
use crate::phases::{ops_per_phase, span_mean_us};
use crate::trace::SpanSum;
use dlr_curve::counters::OpsReport;
use dlr_metrics::SpanStats;
use dlr_server::{ServerConfig, StatsSnapshot};
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-up timings over the repeated set-ups of one run.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub keygen_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub spawn_ms: Vec<f64>,
}

/// Aggregate server counters over every replica.
#[derive(Debug, Default, Clone)]
pub struct ServerAgg {
    pub requests: u64,
    pub hellos: u64,
    pub wakeups: u64,
    pub migrations: u64,
    pub error_replies: u64,
    pub busy_rejects: u64,
    /// Requests per worker loop, all replicas.
    pub per_worker: Vec<u64>,
}

pub fn server_agg(snaps: &[StatsSnapshot]) -> ServerAgg {
    let workers = ServerConfig::default().resolved_workers();
    let mut a = ServerAgg::default();
    for s in snaps {
        a.requests += s.requests_decrypt + s.requests_refresh + s.requests_hello;
        a.hellos += s.requests_hello;
        a.wakeups += s.loop_wakeups;
        a.migrations += s.migrations;
        a.error_replies += s.error_replies;
        a.busy_rejects += s.sessions_rejected_busy;
        let mut per = vec![0u64; workers];
        for (shard, sh) in s.shards.iter().enumerate() {
            per[shard % workers] += sh.requests;
        }
        a.per_worker.extend(per);
    }
    a
}

impl ServerAgg {
    /// Add the counter change from `before` to `after` to `self`.
    pub fn add_delta(&mut self, before: &ServerAgg, after: &ServerAgg) {
        self.requests += after.requests - before.requests;
        self.hellos += after.hellos - before.hellos;
        self.wakeups += after.wakeups - before.wakeups;
        self.migrations += after.migrations - before.migrations;
        self.error_replies += after.error_replies - before.error_replies;
        self.busy_rejects += after.busy_rejects - before.busy_rejects;
        self.per_worker.resize(after.per_worker.len(), 0);
        for ((acc, a), b) in self
            .per_worker
            .iter_mut()
            .zip(&after.per_worker)
            .zip(&before.per_worker)
        {
            *acc += a - b;
        }
    }
}

/// Everything the per-layer metrics are derived from. "Main slices" are
/// the main phase's slices that the layer figures cover: the traced ones
/// in a traced run, every one in an untraced run.
#[derive(Default)]
pub struct LayerInputs {
    /// Program spans over the main slices.
    pub main: BTreeMap<String, SpanStats>,
    /// Benchmark spans over the main slices.
    pub main_trace: BTreeMap<&'static str, SpanSum>,
    pub main_wall: Duration,
    /// Main-phase latency p50 (ms) with tracing off / on.
    pub p50_untraced: f64,
    pub p50_traced: f64,
    /// Mean client-observed decrypt latency of the traced main slices (us).
    pub mean_traced_us: f64,
    /// Program and benchmark spans over the refresh work.
    pub refresh: BTreeMap<String, SpanStats>,
    pub refresh_trace: BTreeMap<&'static str, SpanSum>,
    pub enc: BTreeMap<String, SpanStats>,
    /// Server counters over the main slices.
    pub server: ServerAgg,
    /// Worker loops serving the main phase (all replicas).
    pub workers: usize,
    /// Offered rate and generator lag p99 (ms) of the open-loop replay.
    pub serve_offered: f64,
    pub serve_lag_p99_ms: f64,
    /// p99 due time → verified reply of the open-loop replay, all rounds.
    pub serve_p99_ms: f64,
    pub redirects: u64,
    pub failovers: u64,
    /// The decrypt latency includes a routed open (toy-rotate).
    pub open_in_decrypt: bool,
}

pub fn layer_metrics(
    li: &LayerInputs,
    setup: &SetupTimes,
    units: &Metrics,
    tally: &Tally,
) -> Metrics {
    let mut m = units.clone();
    let main = &li.main;
    let dec_start = span_mean_us(main, "dec.p1.start");
    let dec_finish = span_mean_us(main, "dec.p1.finish");
    let dec_respond = span_mean_us(main, "dec.p2.respond");
    m.set("core.dec_start_us", dec_start, "us");
    m.set("core.dec_finish_us", dec_finish, "us");
    m.set("core.dec_respond_us", dec_respond, "us");
    m.set(
        "core.ref_start_us",
        span_mean_us(&li.refresh, "refresh.p1.start"),
        "us",
    );
    let ref_respond = span_mean_us(&li.refresh, "refresh.p2.respond");
    m.set("core.ref_respond_us", ref_respond, "us");
    m.set(
        "core.ref_finish_us",
        span_mean_us(&li.refresh, "refresh.p1.finish"),
        "us",
    );
    m.set("core.enc_us", span_mean_us(&li.enc, "enc"), "us");
    m.set("core.keygen_ms", median(&setup.keygen_ms), "ms");
    m.set("core.warm_ms", median(&setup.warm_ms), "ms");

    // Exact per-decrypt counts, summed over the three decrypt phases.
    let ops = ops_per_phase(main);
    let total = ops.values().fold(OpsReport::default(), |a, &b| a + b);
    m.set("core.pairings_per_dec", total.pairings as f64, "count");
    m.set("core.g_pow_per_dec", total.g_pow as f64, "count");
    m.set("core.gt_pow_per_dec", total.gt_pow as f64, "count");
    m.set("core.g_op_per_dec", total.g_op as f64, "count");
    m.set("core.gt_op_per_dec", total.gt_op as f64, "count");

    // Ledger: P1's counted work at unit cost against its measured phase,
    // and the phases plus the wire against the mean client decrypt latency.
    let p1 = ops["dec.p1.start"];
    let predicted = p1.pairings as f64 * units.get("curve.pair_prepared_us")
        + p1.g_pow as f64 * units.get("curve.g_pow_us")
        + p1.gt_pow as f64 * units.get("curve.gt_pow_us")
        + p1.g_op as f64 * units.get("curve.g_op_us")
        + p1.gt_op as f64 * units.get("curve.gt_op_us");
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set(
        "ledger.p1_explained_frac",
        frac(predicted, dec_start),
        "ratio",
    );

    let wire_dec = li
        .main_trace
        .get("wire.decrypt")
        .copied()
        .unwrap_or_default();
    let round = wire_dec.mean_us();
    let open_us = li
        .main_trace
        .get("router.open")
        .map_or(0.0, SpanSum::mean_us);
    let explained = dec_start + round + dec_finish + if li.open_in_decrypt { open_us } else { 0.0 };
    let e2e = if dec_start > 0.0 {
        frac(explained, li.mean_traced_us)
    } else {
        0.0
    };
    m.set("ledger.e2e_explained_frac", e2e, "ratio");

    let per = |v: u64| {
        if wire_dec.count == 0 {
            0.0
        } else {
            v as f64 / wire_dec.count as f64
        }
    };
    m.set("wire.req_bytes", per(wire_dec.bytes_out), "count");
    m.set("wire.reply_bytes", per(wire_dec.bytes_in), "count");
    m.set("wire.round_us", round, "us");

    m.set(
        "server.overhead_us",
        if round > 0.0 {
            round - dec_respond
        } else {
            0.0
        },
        "us",
    );
    let exec_ns: u64 = ["dec.p2.respond", "refresh.p2.respond"]
        .iter()
        .filter_map(|n| main.get(*n))
        .map(|s| s.total_ns)
        .sum();
    let capacity_ns = li.main_wall.as_nanos() as f64 * li.workers.max(1) as f64;
    m.set(
        "server.exec_busy_frac",
        frac(exec_ns as f64, capacity_ns),
        "ratio",
    );
    let served: u64 = li.server.per_worker.iter().sum();
    let hot = li.server.per_worker.iter().copied().max().unwrap_or(0);
    m.set(
        "server.hot_worker_share",
        frac(hot as f64, served as f64),
        "ratio",
    );
    m.set(
        "server.wakeups_per_req",
        frac(li.server.wakeups as f64, li.server.requests as f64),
        "ratio",
    );
    m.set(
        "server.migrations_per_session",
        frac(li.server.migrations as f64, li.server.hellos as f64),
        "ratio",
    );
    let ref_round = li
        .refresh_trace
        .get("wire.refresh")
        .map_or(0.0, SpanSum::mean_us);
    m.set(
        "server.refresh_overhead_us",
        if ref_round > 0.0 {
            ref_round - ref_respond
        } else {
            0.0
        },
        "us",
    );
    m.set(
        "server.error_replies",
        li.server.error_replies as f64,
        "count",
    );
    m.set(
        "server.busy_rejects",
        li.server.busy_rejects as f64,
        "count",
    );

    m.set("cluster.open_us", open_us, "us");
    m.set("cluster.spawn_ms", median(&setup.spawn_ms), "ms");
    m.set("cluster.redirects", li.redirects as f64, "count");
    m.set("cluster.failovers", li.failovers as f64, "count");

    m.set("loadgen.offered_rps", li.serve_offered, "req/s");
    m.set("loadgen.lag_p99_ms", li.serve_lag_p99_ms, "ms");
    m.set("loadgen.serve_p99_ms", li.serve_p99_ms, "ms");
    m.set(
        "trace.overhead_frac",
        if li.p50_untraced > 0.0 {
            li.p50_traced / li.p50_untraced - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    m.set(
        "error_frac",
        frac(tally.failed as f64, tally.attempted as f64),
        "ratio",
    );
    m
}

/// End-to-end measurements shared by all workloads, each kept by round.
#[derive(Default)]
pub struct E2e {
    /// Client-observed decrypt latency.
    pub dec: Samples,
    /// Verified decrypts per second of each round's decrypt slices.
    pub dec_rps: Vec<f64>,
    pub refresh: Samples,
    /// Due time → verified reply of the open-loop replay.
    pub serve: Samples,
    /// Verified replies per second of each round's closed-loop replay
    /// slices.
    pub capacity_rps: Vec<f64>,
    /// Per round, the mean over its encrypt slices of each slice's median
    /// encryptions per second over its blocks.
    pub enc_per_s: Vec<f64>,
}

impl E2e {
    /// The per-round figures behind the end-to-end metrics, for the log.
    pub fn per_round(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            ("dec_rps", self.dec_rps.clone()),
            ("dec_p50_ms", self.dec.round_ms(50.0)),
            ("dec_p99_ms", self.dec.round_ms(99.0)),
            ("refresh_p50_ms", self.refresh.round_ms(50.0)),
            ("refresh_p99_ms", self.refresh.round_ms(99.0)),
            ("serve_p50_ms", self.serve.round_ms(50.0)),
            ("serve_max_rps", self.capacity_rps.clone()),
            ("enc_per_s", self.enc_per_s.clone()),
        ]
    }
}

/// Every figure but `setup_s` (the median over set-ups) is combined over
/// the run's rounds in the way that repeats best on a shared host whose
/// speed and contention change over stretches of seconds (the README
/// gives the measurements):
///
/// - central figures: the mean over rounds, which moves smoothly with the
///   share of slow stretches in the run;
/// - tails: the lower quartile over rounds, the program's tail in the
///   run's quieter rounds. Contention lifts a round's p99 by half or more;
///   a tail the program adds to every round still moves this figure;
/// - `serve_p50_ms`: the median over rounds. Open-loop latency counts
///   from due time, so one vCPU stall lifts its round's median many times.
pub fn e2e_metrics(e: &E2e, setup: &SetupTimes, tally: &Tally) -> Metrics {
    let mut m = Metrics::default();
    m.set("dec_rps", mean(&e.dec_rps), "req/s");
    m.set("dec_p50_ms", mean(&e.dec.round_ms(50.0)), "ms");
    m.set("dec_p99_ms", lower_quartile(&e.dec.round_ms(99.0)), "ms");
    m.set("refresh_p50_ms", mean(&e.refresh.round_ms(50.0)), "ms");
    m.set(
        "refresh_p99_ms",
        lower_quartile(&e.refresh.round_ms(99.0)),
        "ms",
    );
    m.set("serve_p50_ms", median(&e.serve.round_ms(50.0)), "ms");
    m.set("serve_max_rps", mean(&e.capacity_rps), "req/s");
    m.set("enc_per_s", mean(&e.enc_per_s), "ops/s");
    m.set("setup_s", median(&setup.total), "s");
    let verified = tally.attempted - tally.failed;
    m.set(
        "verified_frac",
        verified as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m
}
