//! Replay of recorded decrypt traffic against a live server, open-loop at
//! a fixed offered rate or closed-loop at the server's capacity.
//!
//! Input generation runs the real client driver (`driver::p1_hello` and
//! `driver::p1_decrypt`) against an in-memory reference `Party2` served
//! by `driver::p2_serve_one`, and records every request frame with the
//! reply the reference produced. Replay then sends exactly those bytes at
//! a fixed offered rate and requires every live reply to be byte-equal to
//! its reference. No client pairing work runs in the loop.
//!
//! Each connection carries device sessions of [`SESSION_LEN`] decrypts for
//! one key, opened by one hello; the key of each session is drawn from a
//! seeded Zipf(1) over the keys the connection may reach. Decrypt `i` of
//! the phase is due at `start + i / rate` and goes to connection
//! `i % connections`; a request whose connection is still busy waits in
//! the generator, and its latency counts from its due time. Closed-loop,
//! each connection sends its next request as soon as the previous reply
//! verified.

use crate::common::{Samples, Tally, Zipf};
use crate::trace::{self, TracedTransport};
use bytes::Bytes;
use dlr_core::dlr::{Ciphertext, Party1, Party2, PublicKey, Share1, Share2};
use dlr_core::driver::{self, GENERATION_ANY};
use dlr_curve::Pairing;
use dlr_protocol::transport::{new_transcript, Direction, RecordingTransport};
use dlr_protocol::{duplex, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Decrypts per device session (one hello each).
pub const SESSION_LEN: usize = 16;

/// One recorded request frame and the reference reply to it.
#[derive(Debug, Clone)]
pub struct Recorded {
    pub req: Bytes,
    pub reply: Bytes,
}

/// Recorded traffic for one key: the session hello and [`SESSION_LEN`]
/// decrypts, replayed in order by every session on that key.
#[derive(Debug, Clone)]
pub struct KeyPool {
    pub hello: Recorded,
    pub decrypts: Vec<Recorded>,
}

/// Record one key's pool: a hello plus one decrypt per `(ct, m)` pair,
/// checking each recovered plaintext against `m`.
pub fn record_pool<E: Pairing>(
    key_id: &[u8],
    pk: &PublicKey<E>,
    s1: &Share1<E>,
    s2: &Share2<E>,
    inputs: &[(Ciphertext<E>, E::Gt)],
    rng: &mut StdRng,
    tally: &mut Tally,
) -> KeyPool {
    let (p1_end, mut p2_end) = duplex();
    let mut p1 = Party1::new(pk.clone(), s1.clone());
    let mut p2 = Party2::new(pk.clone(), s2.clone());
    let mut p2_rng = crate::phases::child_rng(rng);
    let transcript = new_transcript();
    let mut rec = RecordingTransport::new(p1_end, transcript.clone());
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..=inputs.len() {
                driver::p2_serve_one(&mut p2, &mut p2_end, &mut p2_rng)
                    .expect("reference P2 serves recorded requests");
            }
        });
        driver::p1_hello(&mut rec, key_id, GENERATION_ANY).expect("reference hello");
        for (ct, m) in inputs {
            let got = driver::p1_decrypt(&mut p1, ct, &mut rec, rng);
            tally.check(matches!(&got, Ok(g) if g == m), || {
                "reference decrypt returned the wrong plaintext".into()
            });
        }
    });
    // The client strictly alternates: each sent frame, then its reply.
    let frames = transcript.lock().clone();
    let mut log = frames.chunks(2).map(|pair| match pair {
        [(Direction::Sent, req), (Direction::Received, reply)] => Recorded {
            req: req.clone(),
            reply: reply.clone(),
        },
        _ => panic!("recorded traffic is not request/reply pairs"),
    });
    let hello = log.next().expect("hello recorded");
    KeyPool {
        hello,
        decrypts: log.collect(),
    }
}

/// One generator connection and its session state, kept across phases.
pub struct Conn {
    transport: Box<dyn Transport>,
    rng: StdRng,
    /// Pool indices this connection may open sessions on.
    keys: Vec<usize>,
    zipf: Zipf,
    key: usize,
    left: usize,
    next: usize,
}

impl Conn {
    pub fn new(transport: Box<dyn Transport>, keys: Vec<usize>, seed: u64) -> Self {
        let zipf = Zipf::new(keys.len());
        Self {
            transport: TracedTransport::wrap(transport),
            rng: StdRng::seed_from_u64(seed),
            keys,
            zipf,
            key: 0,
            left: 0,
            next: 0,
        }
    }
}

/// Outcome of one replay slice.
#[derive(Debug, Default)]
pub struct RateResult {
    /// Due time → verified reply (closed-loop: send → verified reply).
    pub from_due: Samples,
    /// Send → reply.
    pub service: Samples,
    /// Send time − due time (open-loop only).
    pub lag: Samples,
    pub verified: u64,
    pub wall: Duration,
    pub tally: Tally,
}

/// Read one reply and compare it with its reference.
fn round(conn: &mut Conn, rec: &Recorded, tally: &mut Tally) -> bool {
    let ok = conn.transport.send(rec.req.clone()).is_ok()
        && matches!(conn.transport.recv(), Ok(r) if r == rec.reply);
    tally.check(ok, || "replayed reply differs from its reference".into());
    ok
}

/// Replay for `dur` over every connection: open-loop at `rate` decrypts/s
/// (`Some`), or closed-loop (`None`). Open-loop scheduling stops at
/// `dur`; a connection that falls further behind than `dur / 2` stops
/// sending.
pub fn run_rate(
    conns: &mut [Conn],
    pools: &[KeyPool],
    rate: Option<f64>,
    dur: Duration,
) -> RateResult {
    let n = conns.len();
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<RateResult> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut out = RateResult::default();
                    let give_up = start + dur + dur / 2;
                    for k in 0u64.. {
                        let i = k * n as u64 + c as u64;
                        let due = match rate {
                            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                            None => Instant::now().max(start),
                        };
                        if due >= start + dur || Instant::now() > give_up {
                            break;
                        }
                        if conn.left == 0 {
                            conn.key = conn.keys[conn.zipf.sample(&mut conn.rng)];
                            conn.left = SESSION_LEN;
                            conn.next = 0;
                            trace::set_request(i);
                            trace::span("replay.hello", || {
                                round(conn, &pools[conn.key].hello, &mut out.tally)
                            });
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        trace::set_request(i);
                        let rec = &pools[conn.key].decrypts[conn.next];
                        let ok = trace::span("replay.decrypt", || round(conn, rec, &mut out.tally));
                        let done = Instant::now();
                        conn.left -= 1;
                        conn.next += 1;
                        if rate.is_some() {
                            out.lag.push(sent.saturating_duration_since(due));
                        }
                        if ok {
                            out.verified += 1;
                            out.from_due.push(done - due);
                            out.service.push(done - sent);
                        }
                    }
                    trace::gather_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut total = RateResult {
        wall: start.elapsed(),
        ..RateResult::default()
    };
    for r in results {
        total.from_due.ns.extend(r.from_due.ns);
        total.service.ns.extend(r.service.ns);
        total.lag.ns.extend(r.lag.ns);
        total.verified += r.verified;
        total.tally.merge(r.tally);
    }
    total
}
