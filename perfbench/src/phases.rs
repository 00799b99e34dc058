//! Building blocks the workloads are made of: key material, the encrypt
//! phase, closed-loop decrypts and refreshes through `driver::Router`,
//! program span deltas, and curve/math unit costs.

use crate::common::{connect, timed, Metrics, Samples, Tally};
use crate::trace::{self, TracedTransport};
use dlr_core::dlr::{self, Ciphertext, Party1, PublicKey, Share1, Share2};
use dlr_core::driver::{self, Connector, RetryPolicy, Router, GENERATION_ANY};
use dlr_core::{CoreError, SchemeParams};
use dlr_curve::counters::OpsReport;
use dlr_curve::{Group, Pairing, SsParams};
use dlr_math::{FieldElement, Fp2};
use dlr_metrics::SpanStats;
use dlr_protocol::Transport;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The repository's standard parameters: `n = 16`, `λ = 64`.
pub fn params<E: Pairing>() -> SchemeParams {
    SchemeParams::derive::<E::Scalar>(16, 64)
}

/// One key as generated: id, public key and both shares.
pub struct Key<E: Pairing> {
    pub id: Vec<u8>,
    pub pk: PublicKey<E>,
    pub s1: Share1<E>,
    pub s2: Share2<E>,
}

pub fn keygen_all<E: Pairing>(ids: &[Vec<u8>], rng: &mut StdRng) -> Vec<Key<E>> {
    ids.iter()
        .map(|id| {
            let (pk, s1, s2) = dlr::keygen::<E, _>(params::<E>(), rng);
            Key {
                id: id.clone(),
                pk,
                s1,
                s2,
            }
        })
        .collect()
}

/// Connector for `Router::open`: a TCP_NODELAY connection, wrapped for
/// wire tracing when the run is traced.
pub fn connector() -> impl FnMut(&str) -> Result<Box<dyn Transport>, CoreError> {
    |addr: &str| connect(addr).map(TracedTransport::wrap)
}

/// Fetch the topology from `seed_addr` and build a router on it.
pub fn router(seed_addr: &str) -> Result<Router, CoreError> {
    let mut t = connect(seed_addr)?;
    Router::from_seed(t.as_mut(), RetryPolicy::default())
}

/// Routed session open, traced as `router.open`.
pub fn open(
    router: &mut Router,
    key_id: &[u8],
    connect: &mut Connector<'_>,
) -> Result<(Box<dyn Transport>, u64), CoreError> {
    trace::span("router.open", || {
        router.open(key_id, GENERATION_ANY, connect)
    })
}

/// `dlr::encrypt` on one thread for `dur` (at least one block),
/// cycling over `msgs`. Returns the rate of each block of [`ENC_BLOCK`]
/// encryptions, in encryptions per second.
pub fn enc_phase<E: Pairing>(
    pk: &PublicKey<E>,
    msgs: &[E::Gt],
    dur: Duration,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut ops = 0usize;
    while rates.is_empty() || start.elapsed() < dur {
        let block = Instant::now();
        for _ in 0..ENC_BLOCK {
            let m = &msgs[ops % msgs.len()];
            black_box(trace::span("dlr.encrypt", || dlr::encrypt(pk, m, rng)));
            ops += 1;
        }
        rates.push(ENC_BLOCK as f64 / block.elapsed().as_secs_f64());
    }
    rates
}

/// Encryptions per timed block of [`enc_phase`].
pub const ENC_BLOCK: usize = 64;

/// Decrypt inputs: ciphertexts with the plaintexts they must decrypt to.
pub type Inputs<E> = Vec<(Ciphertext<E>, <E as Pairing>::Gt)>;

/// One device holding one key: its `P1`, the share generation it expects
/// the server to be at, decrypt inputs, and how many operations it has
/// run on its key.
pub struct Device<E: Pairing> {
    pub key_id: Vec<u8>,
    pub p1: Party1<E>,
    pub generation: u64,
    pub inputs: Inputs<E>,
    pub next_input: usize,
    pub ops: usize,
}

impl<E: Pairing> Device<E> {
    pub fn new(key: &Key<E>, inputs: Inputs<E>) -> Self {
        Self {
            key_id: key.id.clone(),
            p1: Party1::new(key.pk.clone(), key.s1.clone()),
            generation: 0,
            inputs,
            next_input: 0,
            ops: 0,
        }
    }

    /// `driver::p1_decrypt` of the next input over `transport`, checking
    /// the plaintext. Returns whether it verified.
    pub fn decrypt(
        &mut self,
        transport: &mut dyn Transport,
        rng: &mut StdRng,
        tally: &mut Tally,
    ) -> bool {
        let (ct, m) = self.inputs[self.next_input % self.inputs.len()];
        self.next_input += 1;
        let got = trace::span("driver.p1_decrypt", || {
            driver::p1_decrypt(&mut self.p1, &ct, transport, rng)
        });
        let ok = matches!(&got, Ok(g) if *g == m);
        tally.check(ok, || match &got {
            Ok(_) => "decrypt returned the wrong plaintext".into(),
            Err(e) => format!("decrypt failed: {e}"),
        });
        ok
    }

    /// Routed open, checking that the server is at the generation this
    /// device expects: the proof that every earlier refresh committed.
    pub fn open(
        &mut self,
        router: &mut Router,
        connect: &mut Connector<'_>,
        tally: &mut Tally,
    ) -> Option<Box<dyn Transport>> {
        match open(router, &self.key_id, connect) {
            Ok((t, generation)) => {
                let want = self.generation;
                tally.check(generation == want, || {
                    format!("server at generation {generation}, device expects {want}")
                });
                (generation == want).then_some(t)
            }
            Err(e) => {
                tally.check(false, || format!("routed open failed: {e}"));
                None
            }
        }
    }

    /// Routed open + `driver::p1_refresh`. The refresh counts as verified
    /// by the generation check on this key's next open.
    pub fn refresh(
        &mut self,
        router: &mut Router,
        connect: &mut Connector<'_>,
        rng: &mut StdRng,
        tally: &mut Tally,
    ) -> bool {
        let Some(mut t) = self.open(router, connect, tally) else {
            return false;
        };
        let out = trace::span("driver.p1_refresh", || {
            driver::p1_refresh(&mut self.p1, t.as_mut(), rng)
        });
        match out {
            Ok(()) => {
                self.generation += 1;
                true
            }
            Err(e) => {
                tally.check(false, || format!("refresh failed: {e}"));
                false
            }
        }
    }

    /// Routed open + one decrypt: the end-of-run proof that both shares
    /// are still in step.
    pub fn final_check(
        &mut self,
        router: &mut Router,
        connect: &mut Connector<'_>,
        rng: &mut StdRng,
        tally: &mut Tally,
    ) {
        if let Some(mut t) = self.open(router, connect, tally) {
            self.decrypt(t.as_mut(), rng, tally);
        }
    }
}

/// Closed-loop refreshes of `devices` in turn for `dur` (at least one),
/// each a routed open + `p1_refresh`; latencies of the successful ones.
pub fn refresh_phase<E: Pairing>(
    devices: &mut [Device<E>],
    router: &mut Router,
    dur: Duration,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> Samples {
    let mut connect = connector();
    let mut lat = Samples::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed() < dur {
        let d = &mut devices[i % devices.len()];
        trace::set_request(i as u64);
        let (ok, t) = timed(|| d.refresh(router, &mut connect, rng, tally));
        if ok {
            lat.push(t);
        }
        i += 1;
    }
    lat
}

/// Add the program span table change between two snapshots to `acc`.
pub fn add_span_delta(
    acc: &mut BTreeMap<String, SpanStats>,
    before: &BTreeMap<String, SpanStats>,
    after: &BTreeMap<String, SpanStats>,
) {
    for (name, d) in span_delta(before, after) {
        let a = acc.entry(name).or_default();
        a.count += d.count;
        a.total_ns += d.total_ns;
        a.child_ns += d.child_ns;
        a.ops += d.ops;
    }
}

/// Program span table (`dlr_metrics`) change between two snapshots.
pub fn span_delta(
    before: &BTreeMap<String, SpanStats>,
    after: &BTreeMap<String, SpanStats>,
) -> BTreeMap<String, SpanStats> {
    after
        .iter()
        .map(|(name, a)| {
            let d = match before.get(name) {
                Some(b) => SpanStats {
                    count: a.count - b.count,
                    total_ns: a.total_ns - b.total_ns,
                    child_ns: a.child_ns - b.child_ns,
                    ops: a.ops - b.ops,
                },
                None => a.clone(),
            };
            (name.clone(), d)
        })
        .collect()
}

/// Mean duration of a program span in microseconds (`0` if absent).
pub fn span_mean_us(spans: &BTreeMap<String, SpanStats>, name: &str) -> f64 {
    spans
        .get(name)
        .filter(|s| s.count > 0)
        .map_or(0.0, |s| s.total_ns as f64 / s.count as f64 / 1e3)
}

/// Operations per call of a program span.
pub fn span_ops(spans: &BTreeMap<String, SpanStats>, name: &str) -> (u64, OpsReport) {
    spans
        .get(name)
        .map_or((0, OpsReport::default()), |s| (s.count, s.ops))
}

/// Per-decrypt operation counts of each decrypt phase span
/// (`dec.p1.start`, `dec.p1.finish`, `dec.p2.respond`), as measured by
/// `dlr_curve::counters` inside the program's own spans.
pub fn ops_per_phase(spans: &BTreeMap<String, SpanStats>) -> BTreeMap<&'static str, OpsReport> {
    ["dec.p1.start", "dec.p1.finish", "dec.p2.respond"]
        .into_iter()
        .map(|name| {
            let (count, ops) = span_ops(spans, name);
            let per = |v: u64| v.checked_div(count).unwrap_or(0);
            (
                name,
                OpsReport {
                    g_op: per(ops.g_op),
                    g_pow: per(ops.g_pow),
                    gt_op: per(ops.gt_op),
                    gt_pow: per(ops.gt_pow),
                    pairings: per(ops.pairings),
                },
            )
        })
        .collect()
}

/// Nanoseconds per call of `f`, over at least `min_iters` calls and
/// about `budget` of wall time.
fn ns_per_call(min_iters: u64, budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily built tables
    let start = Instant::now();
    let mut n = 0u64;
    while n < min_iters || start.elapsed() < budget {
        f();
        n += 1;
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Unit costs of the curve and field operations a decrypt is made of, on
/// the workload's curve: `curve.*_us` and `math.*_ns`.
pub fn unit_costs<P: SsParams>(rng: &mut StdRng, budget: Duration, out: &mut Metrics) {
    type G<P> = <P as Pairing>::G1;
    type Gt<P> = <P as Pairing>::Gt;
    type Sc<P> = <P as Pairing>::Scalar;
    let pr = params::<P>();
    let p = G::<P>::random(rng);
    let q = <P as Pairing>::G2::random(rng);
    let gt = Gt::<P>::random(rng);
    let s = Sc::<P>::random(rng);
    let us = |ns: f64| ns / 1e3;

    out.set(
        "curve.pair_us",
        us(ns_per_call(8, budget, || {
            black_box(P::pair(black_box(&p), black_box(&q)));
        })),
        "us",
    );
    let prep = P::prepare(&p);
    out.set(
        "curve.pair_prepared_us",
        us(ns_per_call(8, budget, || {
            black_box(P::pair_prepared(black_box(&prep), black_box(&q)));
        })),
        "us",
    );
    out.set(
        "curve.g_pow_us",
        us(ns_per_call(8, budget, || {
            black_box(black_box(&p).pow(black_box(&s)));
        })),
        "us",
    );
    out.set(
        "curve.gt_pow_us",
        us(ns_per_call(8, budget, || {
            black_box(black_box(&gt).pow(black_box(&s)));
        })),
        "us",
    );
    out.set(
        "curve.g_op_us",
        us(ns_per_call(64, budget, || {
            black_box(black_box(&p).op(black_box(&q)));
        })),
        "us",
    );
    out.set(
        "curve.gt_op_us",
        us(ns_per_call(64, budget, || {
            black_box(black_box(&gt).op(black_box(&gt)));
        })),
        "us",
    );
    // P2's shape: κ+1 multiexps of ℓ bases each, ℓ(κ+1) bases in all.
    let bases: Vec<Vec<Gt<P>>> = (0..=pr.kappa)
        .map(|_| (0..pr.ell).map(|_| Gt::<P>::random(rng)).collect())
        .collect();
    let exps: Vec<Sc<P>> = (0..pr.ell).map(|_| Sc::<P>::random(rng)).collect();
    out.set(
        "curve.gt_multiexp_us",
        us(ns_per_call(4, budget, || {
            for b in &bases {
                black_box(Gt::<P>::product_of_powers(black_box(b), black_box(&exps)));
            }
        })),
        "us",
    );
    let mut seed_rng = child_rng(rng);
    out.set(
        "curve.g_random_us",
        us(ns_per_call(8, budget, || {
            black_box(G::<P>::random(&mut seed_rng));
        })),
        "us",
    );

    let x = P::Fp::random(rng);
    let y = P::Fp::random(rng);
    const CHAIN: u64 = 4096;
    out.set(
        "math.fp_mul_ns",
        ns_per_call(4, budget, || {
            let mut acc = black_box(x);
            for _ in 0..CHAIN {
                acc *= y;
            }
            black_box(acc);
        }) / CHAIN as f64,
        "ns",
    );
    let x2 = Fp2::new(x, y);
    let y2 = Fp2::new(y, x);
    out.set(
        "math.fp2_mul_ns",
        ns_per_call(4, budget, || {
            let mut acc = black_box(x2);
            for _ in 0..CHAIN {
                acc *= y2;
            }
            black_box(acc);
        }) / CHAIN as f64,
        "ns",
    );
}

/// A generator seeded from the run's generator, so every input stays a
/// function of the seed alone.
pub fn child_rng(rng: &mut StdRng) -> StdRng {
    StdRng::seed_from_u64(rng.next_u64())
}
