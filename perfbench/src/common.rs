//! Shared plumbing: sample statistics, sockets, seeded choices, process
//! memory, and the metric table every workload fills.

use dlr_core::CoreError;
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::Transport;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client read deadline: far above any healthy round, so a timeout means a
/// stuck server rather than a slow one.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Latency samples in nanoseconds, kept by round of the run (see
/// `workloads`): a phase runs a slice in every round, and each slice's
/// samples are added as one round.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub ns: Vec<u64>,
    /// End index in `ns` of each round added by [`Samples::add_round`].
    ends: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Append samples to the round being gathered.
    pub fn extend(&mut self, more: &Samples) {
        self.ns.extend_from_slice(&more.ns);
    }

    /// Append one round's samples as a round of their own.
    pub fn add_round(&mut self, round: &Samples) {
        self.ns.extend_from_slice(&round.ns);
        self.ends.push(self.ns.len());
    }

    /// Nearest-rank percentile (`q` in `[0, 100]`) of all samples, in
    /// milliseconds; `0` when empty.
    pub fn pct_ms(&self, q: f64) -> f64 {
        pct(&self.ns, q) as f64 / 1e6
    }

    /// Each round's nearest-rank percentile `q`, in milliseconds (rounds
    /// without samples are skipped). A round with fewer than
    /// `100 / (100 - q)` samples gives its maximum.
    pub fn round_ms(&self, q: f64) -> Vec<f64> {
        self.per_round(|v| pct(v, q) as f64 / 1e6)
    }

    /// `f` of each round's samples, skipping rounds without samples;
    /// samples never split into rounds count as one round.
    pub fn per_round(&self, f: impl Fn(&[u64]) -> f64) -> Vec<f64> {
        let whole = [self.ns.len()];
        let ends = if self.ends.is_empty() {
            &whole[..]
        } else {
            &self.ends
        };
        let mut from = 0;
        let mut out = Vec::new();
        for &end in ends {
            if end > from {
                out.push(f(&self.ns[from..end]));
            }
            from = end;
        }
        out
    }

    /// Arithmetic mean in microseconds; `0` when empty.
    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&v| v as f64).sum::<f64>() / self.ns.len() as f64 / 1e3
    }
}

/// Nearest-rank percentile of unsorted values; `0` when empty.
pub fn pct(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean of floats; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank lower quartile of floats; `0` when empty.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n => v[n.div_ceil(4) - 1],
    }
}

/// Open a client connection the way every in-repo client does: Nagle
/// off (the protocol is strict request/response ping-pong) and a read
/// deadline.
pub fn connect(addr: &str) -> Result<Box<dyn Transport>, CoreError> {
    let stream = TcpStream::connect(addr).map_err(|e| CoreError::Transport(e.into()))?;
    let transport = TcpTransport::new(stream);
    transport.set_nodelay(true)?;
    transport.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(Box::new(transport))
}

/// Seeded Zipf(1) sampler over `n` ranks (rank 0 is the hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut dyn rand::RngCore) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Named metric values with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(v, _)| *v)
    }
}

/// Correctness tally of one run: every check counts once in `attempted`
/// and, if it failed, once in `failed`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}
