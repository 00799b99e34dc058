//! The three workloads, each a [`Spec`] run by one generic driver.
//!
//! A run sets its deployment up once, makes its inputs (encryptions and
//! recorded reference traffic), then runs [`ROUNDS`] rounds. Every round
//! starts with extra set-ups (each torn down again; their median with the
//! first is `setup_s`), then runs [`PASSES`] passes, each a slice of every
//! other phase in a fixed order: single-thread encryption, open-loop
//! replay at a fixed rate, closed-loop replay, decrypts and refreshes.
//! Every end-to-end figure is thus taken over slices
//! spread across the whole run, so a slow stretch of the host weighs on
//! all of them alike instead of on whichever phase it hit. The main phase
//! (decrypts, or the open-loop replay on toy-serve) gets most of the time;
//! the other phases give the remaining end-to-end metrics on the same
//! deployment. A final decrypt on every key ends the run. Every output is
//! checked.

use crate::common::{connect, mean, median, timed, Metrics, Samples, Tally};
use crate::metrics::{
    e2e_metrics, layer_metrics, server_agg, E2e, LayerInputs, ServerAgg, SetupTimes,
};
use crate::phases::{
    add_span_delta, child_rng, connector, enc_phase, keygen_all, open, ops_per_phase,
    refresh_phase, router, unit_costs, Device, Inputs, Key,
};
use crate::replay::{record_pool, run_rate, Conn, KeyPool, SESSION_LEN};
use crate::trace::{self, Span};
use dlr_cluster::{Fleet, FleetConfig};
use dlr_core::driver::Router;
use dlr_curve::counters::OpsReport;
use dlr_curve::{Group, Pairing, Ss512, SsParams, Toy};
use dlr_metrics::{snapshot_spans, SpanStats};
use dlr_protocol::{shard_of, Transport};
use dlr_server::{Keyring, Server, ServerConfig, ServerHandle, StatsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deliberate faults for the benchmark's negative-control tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Flip one byte of one recorded reference reply.
    ReferenceReply,
    /// Replace one expected plaintext with another message.
    ExpectedPlaintext,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for share spools (removed at the end of the run).
    pub work_dir: PathBuf,
    pub corrupt: Option<Corrupt>,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Span lists of the traced run, one per thread.
    pub spans: Vec<Vec<Span>>,
    /// Operation counts per decrypt of each decrypt phase in the main
    /// phase (`dec.p1.start`, `dec.p1.finish`, `dec.p2.respond`).
    pub ops: BTreeMap<&'static str, OpsReport>,
    pub curve: &'static str,
    /// Human-readable lines (sample counts), printed before the result.
    pub log: Vec<String>,
}

pub const WORKLOADS: [&str; 3] = ["ss512-device", "toy-serve", "toy-rotate"];

/// Rounds per run; every phase runs one slice per pass of a round.
pub const ROUNDS: usize = 12;

/// Passes per round. A round runs its phases in this many passes, so a
/// short phase (encryption gets 0.13–0.17 s a round) samples the
/// host's speed modes at `ROUNDS * PASSES` points of the run rather than
/// `ROUNDS`, while every latency figure is still taken over a round's
/// samples.
pub const PASSES: usize = 4;

/// What the main phase does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Main {
    /// One device, one routed session opened at set-up, decrypting back
    /// to back.
    Device,
    /// Open-loop replay at a fixed offered rate. The decrypt slices run
    /// as for `Device`.
    Serve,
    /// Two device threads; every operation opens a routed session; each
    /// key gets [`DECRYPTS_PER_REFRESH`] decrypts then one refresh.
    Rotate,
}

/// Shares of the run's seconds given to each phase, summed over rounds.
struct Shares {
    enc: f64,
    dec: f64,
    refresh: f64,
    serve: f64,
    capacity: f64,
}

struct Spec {
    curve: &'static str,
    ids: Vec<Vec<u8>>,
    /// 1 = standalone `dlr-server`; more = a `dlr-cluster` fleet.
    replicas: usize,
    main: Main,
    /// Keys of the decrypt slices (`Device`/`Serve`: the first only), of
    /// the refresh slices, and of the replay. Replayed keys are never
    /// refreshed, so their recorded references hold all run.
    dec_keys: Range<usize>,
    refresh_keys: Range<usize>,
    serve_keys: Range<usize>,
    /// Set-ups per round, besides the first one whose deployment the run
    /// uses.
    setups_per_round: usize,
    shares: Shares,
    /// Offered rate of the open-loop replay, decrypts/s.
    serve_rate: f64,
}

const DECRYPTS_PER_REFRESH: usize = 4;

fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "ss512-device" => Spec {
            curve: "SS512",
            ids: vec![b"ss512-device".to_vec(), b"ss512-refresh".to_vec()],
            replicas: 1,
            main: Main::Device,
            dec_keys: 0..1,
            refresh_keys: 1..2,
            serve_keys: 0..1,
            setups_per_round: 2,
            shares: Shares {
                enc: 0.05,
                dec: 0.60,
                refresh: 0.12,
                serve: 0.09,
                capacity: 0.08,
            },
            serve_rate: 200.0,
        },
        "toy-serve" => Spec {
            curve: "TOY",
            ids: (0..16)
                .map(|i| format!("serve-{i:02}").into_bytes())
                .chain([b"serve-refresh".to_vec()])
                .collect(),
            replicas: 1,
            main: Main::Serve,
            dec_keys: 0..1,
            refresh_keys: 16..17,
            serve_keys: 0..16,
            setups_per_round: 3,
            shares: Shares {
                enc: 0.04,
                dec: 0.12,
                refresh: 0.16,
                serve: 0.52,
                capacity: 0.10,
            },
            serve_rate: 2000.0,
        },
        "toy-rotate" => Spec {
            curve: "TOY",
            ids: rotate_ids(2, 5),
            replicas: 2,
            main: Main::Rotate,
            dec_keys: 0..8,
            refresh_keys: 8..8,
            serve_keys: 8..10,
            setups_per_round: 3,
            shares: Shares {
                enc: 0.04,
                dec: 0.66,
                refresh: 0.0,
                serve: 0.16,
                capacity: 0.08,
            },
            serve_rate: 2000.0,
        },
        _ => return None,
    })
}

/// Key ids for a fleet: the first `per` ids each replica owns on the
/// ring, interleaved by replica, so every replica serves as many keys and
/// every run of `replicas` consecutive ids holds one key of each.
fn rotate_ids(replicas: usize, per: usize) -> Vec<Vec<u8>> {
    let shards = FleetConfig {
        replicas,
        ..FleetConfig::default()
    }
    .resolved_shards();
    let mut owned: Vec<Vec<Vec<u8>>> = vec![Vec::new(); replicas];
    let mut n = 0;
    while owned.iter().any(|o| o.len() < per) {
        let id = format!("rotate-{n:03}").into_bytes();
        let owner = shard_of(&id, shards) % replicas;
        if owned[owner].len() < per {
            owned[owner].push(id);
        }
        n += 1;
    }
    (0..per)
        .flat_map(|i| owned.iter().map(move |o| o[i].clone()))
        .collect()
}

pub fn run(o: &Opts) -> io::Result<Outcome> {
    let Some(spec) = spec(&o.workload) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {:?} (expected one of {WORKLOADS:?})",
                o.workload
            ),
        ));
    };
    std::fs::create_dir_all(&o.work_dir)?;
    trace::set_enabled(o.trace);
    let out = match spec.curve {
        "SS512" => run_spec::<Ss512>(o, &spec),
        _ => run_spec::<Toy>(o, &spec),
    };
    let _ = std::fs::remove_dir_all(&o.work_dir);
    out
}

fn err<T: std::fmt::Display>(e: T) -> io::Error {
    io::Error::other(e.to_string())
}

/// Seeded generator for one purpose of the run.
fn rng_for(o: &Opts, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(o.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose)
}

/// The P2 side: one standalone server or a fleet. Only deployment
/// settings are set (address, `max_sessions`, `data_dir`, replica
/// count); every tuning option keeps its default.
enum Deployment<E: Pairing> {
    Single {
        handle: ServerHandle,
        thread: JoinHandle<io::Result<StatsSnapshot>>,
    },
    Fleet(Box<Fleet<E>>),
}

fn server_config() -> ServerConfig {
    ServerConfig {
        max_sessions: 64,
        ..ServerConfig::default()
    }
}

impl<E: Pairing> Deployment<E> {
    /// Start serving `keys`; returns the deployment and the fleet spawn
    /// time (zero for a single server).
    fn start(keys: &[Key<E>], replicas: usize, data_dir: &Path) -> io::Result<(Self, Duration)> {
        if replicas > 1 {
            let config = FleetConfig {
                replicas,
                data_dir: data_dir.to_path_buf(),
                base: server_config(),
                ..FleetConfig::default()
            };
            let shares = keys
                .iter()
                .map(|k| (k.id.clone(), k.pk.clone(), k.s2.clone()))
                .collect();
            let (fleet, spawn) =
                timed(|| trace::span("fleet.spawn", || Fleet::spawn(config, shares)));
            return Ok((Self::Fleet(Box::new(fleet?)), spawn));
        }
        let mut ring = Keyring::new();
        for k in keys {
            ring.insert(&k.id, k.pk.clone(), k.s2.clone());
        }
        let server = Server::bind("127.0.0.1:0", Arc::new(ring), server_config())?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server.run())?;
        Ok((Self::Single { handle, thread }, Duration::ZERO))
    }

    fn addr(&self, replica: usize) -> String {
        match self {
            Self::Single { handle, .. } => handle.local_addr().to_string(),
            Self::Fleet(f) => f.addr(replica).to_string(),
        }
    }

    fn replicas(&self) -> usize {
        match self {
            Self::Single { .. } => 1,
            Self::Fleet(f) => f.replica_count(),
        }
    }

    fn owner(&self, key_id: &[u8]) -> usize {
        match self {
            Self::Single { .. } => 0,
            Self::Fleet(f) => f.owner_of(key_id),
        }
    }

    fn stats(&self) -> Vec<StatsSnapshot> {
        match self {
            Self::Single { handle, .. } => vec![handle.stats()],
            Self::Fleet(f) => f.stats().into_iter().flatten().collect(),
        }
    }

    fn stop(self) -> io::Result<()> {
        match self {
            Self::Single { handle, thread } => {
                handle.shutdown();
                thread.join().map_err(|_| err("server thread panicked"))??;
            }
            Self::Fleet(f) => {
                f.shutdown()?;
            }
        }
        Ok(())
    }
}

/// One finished set-up: everything until the first request can go out.
struct Built<E: Pairing> {
    dep: Deployment<E>,
    keys: Vec<Key<E>>,
    /// One router per device thread.
    routers: Vec<Router>,
    /// The device session (Device, Serve) and the replay connections
    /// (Serve).
    session: Option<Box<dyn Transport>>,
    conns: Vec<Box<dyn Transport>>,
}

fn set_up<E: Pairing>(
    o: &Opts,
    spec: &Spec,
    index: usize,
    times: &mut SetupTimes,
) -> io::Result<Built<E>> {
    let start = Instant::now();
    let mut rng = rng_for(o, 1);
    let (keys, keygen) =
        timed(|| trace::span("dlr.keygen", || keygen_all::<E>(&spec.ids, &mut rng)));
    let ((), warm) = timed(|| {
        trace::span("dlr.warm", || keys.iter().for_each(|k| k.pk.warm()));
    });
    let (dep, spawn) = Deployment::start(
        &keys,
        spec.replicas,
        &o.work_dir.join(format!("spool-{index}")),
    )?;
    let threads = if spec.main == Main::Rotate { 2 } else { 1 };
    let mut routers = (0..threads)
        .map(|_| router(&dep.addr(0)).map_err(err))
        .collect::<io::Result<Vec<_>>>()?;
    let session = match spec.main {
        Main::Rotate => None,
        _ => Some(
            open(
                &mut routers[0],
                &keys[spec.dec_keys.start].id,
                &mut connector(),
            )
            .map_err(err)?
            .0,
        ),
    };
    let conns = match spec.main {
        Main::Serve => replay_transports(&dep)?,
        _ => Vec::new(),
    };
    times.total.push(start.elapsed().as_secs_f64());
    times.keygen_ms.push(keygen.as_secs_f64() * 1e3);
    times.warm_ms.push(warm.as_secs_f64() * 1e3);
    times.spawn_ms.push(spawn.as_secs_f64() * 1e3);
    Ok(Built {
        dep,
        keys,
        routers,
        session,
        conns,
    })
}

impl<E: Pairing> Built<E> {
    fn tear_down(self) -> io::Result<()> {
        drop((self.session, self.conns, self.routers));
        self.dep.stop()
    }
}

/// Two replay connections: connection `c` goes to replica `c % replicas`.
fn replay_transports<E: Pairing>(dep: &Deployment<E>) -> io::Result<Vec<Box<dyn Transport>>> {
    (0..2)
        .map(|c| connect(&dep.addr(c % dep.replicas())).map_err(err))
        .collect()
}

/// Move the spans recorded since the last call into `all`; returns a
/// copy for a phase's own summary.
fn take_phase(all: &mut Vec<Vec<Span>>) -> Vec<Vec<Span>> {
    let spans = trace::take_all();
    all.extend(spans.iter().cloned());
    spans
}

fn flip_reference(pools: &mut [KeyPool]) {
    let mut reply = pools[0].decrypts[0].reply.to_vec();
    let last = reply.len() - 1;
    reply[last] ^= 1;
    pools[0].decrypts[0].reply = reply.into();
}

/// Bookkeeping around one slice of the main phase. In a traced run the
/// main phase runs untraced in even rounds and traced in odd ones (for
/// `trace.overhead_frac`), and the layer figures cover the traced slices
/// only; in an untraced run they cover every slice.
struct MainSlice {
    traced: bool,
    counts: bool,
    spans: BTreeMap<String, SpanStats>,
    stats: ServerAgg,
}

impl MainSlice {
    fn begin<E: Pairing>(o: &Opts, round: usize, dep: &Deployment<E>) -> Self {
        let traced = o.trace && round % 2 == 1;
        trace::set_enabled(traced);
        Self {
            traced,
            counts: traced || !o.trace,
            spans: snapshot_spans(),
            stats: server_agg(&dep.stats()),
        }
    }

    fn end<E: Pairing>(
        self,
        o: &Opts,
        dep: &Deployment<E>,
        lat: &Samples,
        wall: Duration,
        acc: &mut MainAcc,
    ) {
        if self.counts {
            add_span_delta(&mut acc.li.main, &self.spans, &snapshot_spans());
            acc.li
                .server
                .add_delta(&self.stats, &server_agg(&dep.stats()));
            acc.li.main_wall += wall;
            acc.spans.extend(take_phase(&mut acc.all));
        } else {
            take_phase(&mut acc.all);
        }
        if self.traced {
            acc.traced.add_round(lat);
        } else {
            acc.untraced.add_round(lat);
        }
        trace::set_enabled(o.trace);
    }
}

/// What the main slices add up to over the run.
#[derive(Default)]
struct MainAcc {
    li: LayerInputs,
    /// Every span of the run, and the main slices' spans.
    all: Vec<Vec<Span>>,
    spans: Vec<Vec<Span>>,
    /// Main-phase latency with tracing off / on.
    untraced: Samples,
    traced: Samples,
}

fn run_spec<P: SsParams>(o: &Opts, spec: &Spec) -> io::Result<Outcome> {
    let slice = |share: f64| Duration::from_secs_f64(share * o.seconds / (ROUNDS * PASSES) as f64);
    let mut setup = SetupTimes::default();
    let mut acc = MainAcc::default();
    let mut setups = 0;
    let Built {
        dep,
        keys,
        mut routers,
        mut session,
        conns,
    } = set_up::<P>(o, spec, setups, &mut setup)?;
    setups += 1;
    take_phase(&mut acc.all);

    // Inputs: per key, encryptions of the messages; for replayed keys,
    // the recorded reference traffic of their decrypts.
    let mut tally = Tally::default();
    let mut rng = rng_for(o, 2);
    let msgs: Vec<<P as Pairing>::Gt> = (0..SESSION_LEN)
        .map(|_| <P as Pairing>::Gt::random(&mut rng))
        .collect();
    let mut devices = Vec::new();
    let mut pools = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        let inputs: Inputs<P> = msgs
            .iter()
            .map(|m| (dlr_core::dlr::encrypt(&k.pk, m, &mut rng), *m))
            .collect();
        if spec.serve_keys.contains(&i) {
            pools.push(record_pool(
                &k.id, &k.pk, &k.s1, &k.s2, &inputs, &mut rng, &mut tally,
            ));
        }
        devices.push(Device::new(k, inputs));
    }
    match o.corrupt {
        Some(Corrupt::ReferenceReply) => flip_reference(&mut pools),
        Some(Corrupt::ExpectedPlaintext) => devices[0].inputs[0].1 = devices[0].inputs[1].1,
        None => {}
    }
    take_phase(&mut acc.all);

    // Replay connection `c` goes to replica `c % replicas` and opens
    // sessions on the replayed keys that replica owns.
    let transports = if conns.is_empty() {
        replay_transports(&dep)?
    } else {
        conns
    };
    let mut replay: Vec<Conn> = transports
        .into_iter()
        .enumerate()
        .map(|(c, t)| {
            let replica = c % dep.replicas();
            let mine = (0..pools.len())
                .filter(|&j| dep.owner(&keys[spec.serve_keys.start + j].id) == replica)
                .collect();
            Conn::new(t, mine, o.seed ^ (c as u64 + 11))
        })
        .collect();

    acc.li.workers = ServerConfig::default().resolved_workers() * dep.replicas();
    acc.li.open_in_decrypt = spec.main == Main::Rotate;
    acc.li.serve_offered = spec.serve_rate;
    let mut e = E2e::default();
    let mut lag = Samples::default();
    let mut refresh_spans = Vec::new();
    let mut seeds: Vec<StdRng> = (0..routers.len()).map(|_| child_rng(&mut rng)).collect();
    for r in 0..ROUNDS {
        for _ in 0..spec.setups_per_round {
            set_up::<P>(o, spec, setups, &mut setup)?.tear_down()?;
            setups += 1;
        }
        take_phase(&mut acc.all);

        // This round's figures, gathered over its passes.
        let [mut dec, mut refresh, mut serve, mut late]: [Samples; 4] = Default::default();
        let (mut enc_rates, mut decrypts, mut dec_wall, mut verified, mut cap_wall) =
            (Vec::new(), 0, Duration::ZERO, 0, Duration::ZERO);
        for _ in 0..PASSES {
            // Single-thread `dlr::encrypt`.
            let before = snapshot_spans();
            let rates = enc_phase(&keys[0].pk, &msgs, slice(spec.shares.enc), &mut rng);
            enc_rates.push(median(&rates));
            add_span_delta(&mut acc.li.enc, &before, &snapshot_spans());
            take_phase(&mut acc.all);

            // Open-loop replay at the fixed offered rate.
            let main = (spec.main == Main::Serve).then(|| MainSlice::begin(o, r, &dep));
            let res = run_rate(
                &mut replay,
                &pools,
                Some(spec.serve_rate),
                slice(spec.shares.serve),
            );
            tally.merge(res.tally);
            serve.extend(&res.from_due);
            late.extend(&res.lag);
            match main {
                Some(m) => m.end(o, &dep, &res.from_due, res.wall, &mut acc),
                None => drop(take_phase(&mut acc.all)),
            }

            // Closed-loop replay: the server's capacity over two connections.
            let cap = run_rate(&mut replay, &pools, None, slice(spec.shares.capacity));
            tally.merge(cap.tally);
            verified += cap.verified;
            cap_wall += cap.wall;
            take_phase(&mut acc.all);

            // Closed-loop decrypts: one device session, or the Rotate devices.
            let main = (spec.main != Main::Serve).then(|| MainSlice::begin(o, r, &dep));
            let start = Instant::now();
            let (lat, refreshes, t) = match spec.main {
                Main::Rotate => rotate_threads(
                    &mut devices[spec.dec_keys.clone()],
                    &mut routers,
                    &mut seeds,
                    slice(spec.shares.dec),
                ),
                _ => device_loop(
                    &mut devices[spec.dec_keys.start],
                    session.as_mut().expect("device session").as_mut(),
                    slice(spec.shares.dec),
                    &mut seeds[0],
                ),
            };
            let wall = start.elapsed();
            tally.merge(t);
            decrypts += lat.len();
            dec_wall += wall;
            dec.extend(&lat);
            refresh.extend(&refreshes);
            match main {
                Some(m) => m.end(o, &dep, &lat, wall, &mut acc),
                None => drop(take_phase(&mut acc.all)),
            }

            // Refreshes, each checked by the generation on the key's next open.
            if !spec.refresh_keys.is_empty() {
                let before = snapshot_spans();
                let lat = refresh_phase(
                    &mut devices[spec.refresh_keys.clone()],
                    &mut routers[0],
                    slice(spec.shares.refresh),
                    &mut rng,
                    &mut tally,
                );
                refresh.extend(&lat);
                add_span_delta(&mut acc.li.refresh, &before, &snapshot_spans());
                refresh_spans.extend(take_phase(&mut acc.all));
            }
        }
        e.enc_per_s.push(mean(&enc_rates));
        e.serve.add_round(&serve);
        lag.add_round(&late);
        e.capacity_rps
            .push(verified as f64 / cap_wall.as_secs_f64());
        e.dec_rps.push(decrypts as f64 / dec_wall.as_secs_f64());
        e.dec.add_round(&dec);
        e.refresh.add_round(&refresh);
    }
    drop(replay);
    drop(session.take());

    // A final routed decrypt on every key proves the shares stayed in step.
    let mut connect = connector();
    for d in &mut devices {
        d.final_check(&mut routers[0], &mut connect, &mut rng, &mut tally);
    }
    take_phase(&mut acc.all);

    let mut li = acc.li;
    li.redirects = routers.iter().map(Router::redirects).sum();
    li.failovers = routers.iter().map(Router::failovers).sum();
    drop(routers);
    dep.stop()?;

    let mut log = vec![format!(
        "samples: {} decrypts, {} refreshes, {} open-loop replies, {} set-ups, over {ROUNDS} rounds; closed-loop replay {:.0} req/s mean",
        e.dec.len(),
        e.refresh.len(),
        e.serve.len(),
        setup.total.len(),
        mean(&e.capacity_rps),
    )];
    for (name, values) in e.per_round() {
        log.push(format!("per round {name}: {values:?}"));
    }
    log.push(format!("per set-up setup_s: {:?}", setup.total));
    let ops = ops_per_phase(&li.main);
    let layer = if o.trace {
        li.main_trace = trace::summarize(&acc.spans);
        if spec.main == Main::Rotate {
            li.refresh = li.main.clone();
            li.refresh_trace = li.main_trace.clone();
        } else {
            li.refresh_trace = trace::summarize(&refresh_spans);
        }
        li.p50_untraced = acc.untraced.pct_ms(50.0);
        li.p50_traced = acc.traced.pct_ms(50.0);
        li.mean_traced_us = acc.traced.mean_us();
        li.serve_lag_p99_ms = lag.pct_ms(99.0);
        li.serve_p99_ms = e.serve.pct_ms(99.0);
        let mut units = Metrics::default();
        unit_costs::<P>(&mut rng_for(o, 4), Duration::from_millis(60), &mut units);
        layer_metrics(&li, &setup, &units, &tally)
    } else {
        Metrics::default()
    };
    Ok(Outcome {
        e2e: e2e_metrics(&e, &setup, &tally),
        layer,
        spans: acc.all,
        ops,
        curve: spec.curve,
        tally,
        log,
    })
}

/// Closed-loop decrypts on one open session for `dur` (at least one).
fn device_loop<E: Pairing>(
    device: &mut Device<E>,
    session: &mut dyn Transport,
    dur: Duration,
    rng: &mut StdRng,
) -> (Samples, Samples, Tally) {
    let mut tally = Tally::default();
    let mut lat = Samples::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed() < dur {
        trace::set_request(i as u64);
        let (ok, t) = timed(|| device.decrypt(session, rng, &mut tally));
        if ok {
            lat.push(t);
        }
        i += 1;
    }
    (lat, Samples::default(), tally)
}

/// The Rotate decrypt slice: one thread per router, each owning an equal
/// share of `devices`.
fn rotate_threads<E: Pairing>(
    devices: &mut [Device<E>],
    routers: &mut [Router],
    seeds: &mut [StdRng],
    dur: Duration,
) -> (Samples, Samples, Tally) {
    let half = devices.len() / routers.len();
    let results: Vec<_> = std::thread::scope(|sc| {
        let handles: Vec<_> = devices
            .chunks_mut(half)
            .zip(routers.iter_mut())
            .zip(seeds.iter_mut())
            .map(|((mine, router), rng)| {
                sc.spawn(move || {
                    let r = rotate_loop(mine, router, dur, rng);
                    trace::gather_thread();
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("device thread"))
            .collect()
    });
    let mut out = (Samples::default(), Samples::default(), Tally::default());
    for (dec, refresh, tally) in results {
        out.0.ns.extend(dec.ns);
        out.1.ns.extend(refresh.ns);
        out.2.merge(tally);
    }
    out
}

/// One device thread of toy-rotate: cycle over its keys; on each key,
/// [`DECRYPTS_PER_REFRESH`] decrypts then one refresh, every operation on
/// a fresh routed session. Decrypt latency includes the routed open.
fn rotate_loop<E: Pairing>(
    devices: &mut [Device<E>],
    router: &mut Router,
    dur: Duration,
    rng: &mut StdRng,
) -> (Samples, Samples, Tally) {
    let mut tally = Tally::default();
    let mut dec = Samples::default();
    let mut refresh = Samples::default();
    let mut connect = connector();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < dur {
        let d = &mut devices[i % devices.len()];
        trace::set_request(i as u64);
        if d.ops % (DECRYPTS_PER_REFRESH + 1) == DECRYPTS_PER_REFRESH {
            let (ok, t) = timed(|| d.refresh(router, &mut connect, rng, &mut tally));
            if ok {
                refresh.push(t);
            }
        } else {
            let (ok, t) = timed(|| match d.open(router, &mut connect, &mut tally) {
                Some(mut session) => d.decrypt(session.as_mut(), rng, &mut tally),
                None => false,
            });
            if ok {
                dec.push(t);
            }
        }
        d.ops += 1;
        i += 1;
    }
    (dec, refresh, tally)
}
