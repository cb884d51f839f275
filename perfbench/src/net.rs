//! The two socket workloads against the in-process server:
//! `handshake_churn` (a fresh connection and KEM handshake per session)
//! and `sealed_stream` (long-lived sessions carrying sealed frames), each
//! in an untraced form that yields the end-to-end figures and a traced
//! form that times every call into a layer.

use crate::stats::Spans;
use crate::{derive, Tally};
use rand::RngCore;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{PublicKey, RlweContext, SecretKey};
use rlwe_engine::{Session, SessionError, StreamReceiver, StreamSender};
use rlwe_hash::{kdf2, HmacSha256, Sha256};
use rlwe_server::wire::REJECT_RETRYABLE;
use rlwe_server::{http_get, Client, OpCode, ServerError, Status};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Client threads (and connections) per socket workload; the host has
/// two cores and the server runs two workers.
pub const CLIENTS: usize = 2;

/// Frame payload size classes of `sealed_stream`.
pub const SIZES: [(&str, usize); 3] = [("64b", 64), ("1k", 1024), ("16k", 16 * 1024)];

/// `handshake_churn` scrapes `/metrics` once every this many sessions.
const SCRAPE_EVERY: u64 = 256;

/// What the server's side of one socket workload needs.
pub struct Net {
    pub addr: SocketAddr,
    /// The context `Client::handshake` uses (the engine's pooled default).
    pub ctx: std::sync::Arc<RlweContext>,
    /// The server's key pair, reproduced from the server seed.
    pub pk: PublicKey,
    pub pk_bytes: Vec<u8>,
    pub sk: SecretKey,
}

/// Seeded payloads: size classes cycle through a fresh random
/// permutation every three frames; contents are slices of a random pool.
pub struct Payloads {
    pool: Vec<u8>,
    rng: HashDrbg,
    order: [usize; 3],
    k: usize,
}

impl Payloads {
    pub fn new(seed: [u8; 32]) -> Self {
        let mut rng = HashDrbg::new(seed);
        let mut pool = vec![0u8; 2 * SIZES[2].1];
        rng.fill_bytes(&mut pool);
        Self {
            pool,
            rng,
            order: [0, 1, 2],
            k: 0,
        }
    }

    pub fn next(&mut self) -> (usize, &[u8]) {
        if self.k.is_multiple_of(3) {
            const PERMS: [[usize; 3]; 6] = [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ];
            self.order = PERMS[(self.rng.next_u32() % 6) as usize];
        }
        let class = self.order[self.k % 3];
        self.k += 1;
        let len = SIZES[class].1;
        let off = (self.rng.next_u32() as usize) % (self.pool.len() - len);
        (class, &self.pool[off..off + len])
    }
}

fn payload64(seed: &[u8; 32]) -> Vec<u8> {
    let mut p = seed.to_vec();
    p.extend_from_slice(&Sha256::digest(seed));
    p
}

/// One `/metrics` scrape, counted as an attempted operation.
pub fn scrape(addr: SocketAddr, tally: &mut Tally, spans: Option<&mut Spans>) -> Option<String> {
    tally.attempted += 1;
    tally.scrapes += 1;
    let t0 = Instant::now();
    let resp = http_get(addr, "/metrics");
    let us = t0.elapsed().as_secs_f64() * 1e6;
    match resp {
        Ok(r) if r.status == 200 => {
            let body = String::from_utf8_lossy(&r.body).into_owned();
            if !body.contains("rlwe_server_connections_accepted_total") {
                tally.failed += 1;
                tally.mismatches += 1;
                return None;
            }
            if let Some(spans) = spans {
                spans.record("obs.scrape_us", us);
                spans.record("obs.scrape_bytes", r.body.len() as f64);
            }
            Some(body)
        }
        _ => {
            tally.failed += 1;
            tally.io_errors += 1;
            None
        }
    }
}

/// Sum of every sample of `name` whose label block contains `filter`.
pub fn series_sum(text: &str, name: &str, filter: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let (metric, labels) = match key.split_once('{') {
                Some((m, rest)) => (m, rest),
                None => (key, ""),
            };
            (metric == name && labels.contains(filter) && !labels.contains("quantile"))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// The server-side counters the client-side tally is reconciled against.
#[derive(Debug, Clone, Default)]
pub struct ServerCounts {
    pub accepted: f64,
    pub rejected: f64,
    pub shed: f64,
    pub idle_evictions: f64,
    pub handshake_failures: f64,
    pub requests: BTreeMap<&'static str, f64>,
    pub request_ns_sum: BTreeMap<&'static str, f64>,
}

const OPS: [&str; 4] = ["ping", "public_key", "session_hello", "session_frame"];

impl ServerCounts {
    pub fn parse(text: &str) -> Self {
        let op = |o: &str| format!("op=\"{o}\"");
        Self {
            accepted: series_sum(text, "rlwe_server_connections_accepted_total", ""),
            rejected: series_sum(text, "rlwe_server_connections_rejected_total", ""),
            shed: series_sum(text, "rlwe_server_shed_total", ""),
            idle_evictions: series_sum(text, "rlwe_server_idle_evictions_total", ""),
            handshake_failures: series_sum(text, "rlwe_session_handshake_failures_total", ""),
            requests: OPS
                .iter()
                .map(|o| (*o, series_sum(text, "rlwe_server_requests_total", &op(o))))
                .collect(),
            request_ns_sum: OPS
                .iter()
                .map(|o| (*o, series_sum(text, "rlwe_server_request_ns_sum", &op(o))))
                .collect(),
        }
    }

    pub fn delta(&self, base: &Self) -> Self {
        let sub = |a: &BTreeMap<&'static str, f64>, b: &BTreeMap<&'static str, f64>| {
            a.iter()
                .map(|(k, v)| (*k, v - b.get(k).copied().unwrap_or(0.0)))
                .collect()
        };
        Self {
            accepted: self.accepted - base.accepted,
            rejected: self.rejected - base.rejected,
            shed: self.shed - base.shed,
            idle_evictions: self.idle_evictions - base.idle_evictions,
            handshake_failures: self.handshake_failures - base.handshake_failures,
            requests: sub(&self.requests, &base.requests),
            request_ns_sum: sub(&self.request_ns_sum, &base.request_ns_sum),
        }
    }

    pub fn add(&mut self, o: &Self) {
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.idle_evictions += o.idle_evictions;
        self.handshake_failures += o.handshake_failures;
        for (k, v) in &o.requests {
            *self.requests.entry(k).or_default() += v;
        }
        for (k, v) in &o.request_ns_sum {
            *self.request_ns_sum.entry(k).or_default() += v;
        }
    }

    /// Mean server-side service time of `op` in microseconds.
    pub fn service_us(&self, op: &str) -> Option<f64> {
        let n = *self.requests.get(op)?;
        (n > 0.0).then(|| self.request_ns_sum.get(op).copied().unwrap_or(0.0) / n / 1e3)
    }
}

// ---------------------------------------------------------------------
// handshake_churn
// ---------------------------------------------------------------------

/// Untraced `handshake_churn`: closed loop of connect → handshake →
/// one verified 64-byte exchange → drop, on `CLIENTS` threads.
pub fn churn(addr: SocketAddr, master: &[u8; 32], dur: Duration) -> (Tally, Spans) {
    run_threads(vec![(); CLIENTS], |t, ()| {
        let mut tally = Tally::default();
        let mut spans = Spans::default();
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed() < dur {
            let seed = derive(master, "churn", ((t as u64) << 32) | i);
            let payload = payload64(&seed);
            tally.attempted += 1;
            let t0 = Instant::now();
            match churn_session(addr, &seed, &payload, &mut tally) {
                Outcome::Verified => spans.record("session", t0.elapsed().as_secs_f64() * 1e6),
                Outcome::Rejected => tally.scheme_failures += 1,
                Outcome::Failed => tally.failed += 1,
            }
            i += 1;
            if t == 0 && i.is_multiple_of(SCRAPE_EVERY) {
                scrape(addr, &mut tally, None);
            }
        }
        (tally, spans)
    })
}

/// How one churn session ended.
enum Outcome {
    /// The echo came back verified.
    Verified,
    /// The server rejected the handshake: the scheme's inherent
    /// decryption failure, not a fault of the stack.
    Rejected,
    Failed,
}

fn churn_session(addr: SocketAddr, seed: &[u8; 32], payload: &[u8], tally: &mut Tally) -> Outcome {
    let Ok(mut c) = Client::connect(addr) else {
        tally.io_errors += 1;
        return Outcome::Failed;
    };
    tally.connects += 1;
    match c.handshake(seed, 1) {
        Ok(_) => {
            tally.public_key += 1;
            tally.hellos += 1;
        }
        Err(ServerError::Session(SessionError::HandshakeFailed)) => {
            tally.public_key += 1;
            tally.hellos += 1;
            tally.rejects += 1;
            return Outcome::Rejected;
        }
        Err(_) => {
            tally.io_errors += 1;
            return Outcome::Failed;
        }
    }
    tally.frames += 1;
    match c.exchange(payload) {
        Ok(echo) if echo == payload => Outcome::Verified,
        Ok(_) => {
            tally.mismatches += 1;
            Outcome::Failed
        }
        Err(_) => {
            tally.io_errors += 1;
            Outcome::Failed
        }
    }
}

/// Traced `handshake_churn`: every other session is decomposed into the
/// protocol's calls with a span around each, plus a `ping` right after
/// connect; the sessions in between are untraced twins, the same calls
/// as `churn`, which the overhead and the budget are measured against.
/// The in-process replay of the responder's and the KEM's calls on each
/// traced session's own hello runs after the timed loop, so the loop
/// keeps the untraced one's pacing against the acceptor's poll.
pub fn churn_traced(net: &Net, master: &[u8; 32], dur: Duration) -> (Tally, Spans) {
    run_threads(vec![(); CLIENTS], |t, ()| {
        let mut tally = Tally::default();
        let mut spans = Spans::default();
        let mut replays = Vec::new();
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed() < dur {
            let seed = derive(master, "churn-traced", ((t as u64) << 32) | i);
            let payload = payload64(&seed);
            tally.attempted += 1;
            let t0 = Instant::now();
            if i % 2 == 1 {
                match churn_session(net.addr, &seed, &payload, &mut tally) {
                    Outcome::Verified => spans.record(
                        "trace.untraced.session_us",
                        t0.elapsed().as_secs_f64() * 1e6,
                    ),
                    Outcome::Rejected => tally.scheme_failures += 1,
                    Outcome::Failed => tally.failed += 1,
                }
            } else {
                match churn_session_traced(net, &seed, &payload, &mut tally, &mut spans) {
                    Some((hello, accepted, completed)) => {
                        if completed {
                            spans.record("trace.session_us", t0.elapsed().as_secs_f64() * 1e6);
                        } else if accepted {
                            tally.failed += 1;
                        } else {
                            tally.scheme_failures += 1;
                        }
                        replays.push((seed, hello, accepted));
                    }
                    None => tally.failed += 1,
                }
            }
            i += 1;
            if t == 0 && i.is_multiple_of(SCRAPE_EVERY) {
                scrape(net.addr, &mut tally, Some(&mut spans));
            }
        }
        for (seed, hello, accepted) in &replays {
            replay_responder(net, seed, hello, *accepted, &mut tally, &mut spans);
        }
        (tally, spans)
    })
}

/// Returns the hello sent, whether the server accepted it, and whether
/// the session completed with a verified echo; `None` when it failed
/// before a hello was answered.
fn churn_session_traced(
    net: &Net,
    seed: &[u8; 32],
    payload: &[u8],
    tally: &mut Tally,
    spans: &mut Spans,
) -> Option<(Vec<u8>, bool, bool)> {
    let io = |tally: &mut Tally| {
        tally.io_errors += 1;
        None
    };
    let Ok(mut c) = spans.time("server.connect_us", || Client::connect(net.addr)) else {
        return io(tally);
    };
    tally.connects += 1;
    tally.pings += 1;
    match spans.time("server.first_response_us", || c.ping(&[])) {
        Ok(body) if body.is_empty() => {}
        _ => return io(tally),
    }
    tally.public_key += 1;
    let resp = spans.time("churn.rtt_us.public_key", || {
        c.request_raw(OpCode::PublicKey, &[])
    });
    let pk_bytes = match resp {
        Ok(r) if r.status == Status::Ok => r.body,
        _ => return io(tally),
    };
    if pk_bytes != net.pk_bytes {
        tally.mismatches += 1;
        return None;
    }
    let Ok(pk) = spans.time("core.public_key_parse_us.p1", || {
        PublicKey::from_bytes(&pk_bytes)
    }) else {
        return io(tally);
    };
    let mut rng = HashDrbg::for_stream(seed, 0);
    let Ok((sess, hello)) = spans.time("engine.initiate_us", || {
        Session::initiate(&net.ctx, &pk, &mut rng)
    }) else {
        return io(tally);
    };
    tally.hellos += 1;
    let resp = spans.time("churn.rtt_us.session_hello", || {
        c.request_raw(OpCode::SessionHello, &hello)
    });
    match resp {
        Ok(r) if r.status == Status::Ok => {}
        Ok(r) if r.status == Status::Rejected && r.body.first() == Some(&REJECT_RETRYABLE) => {
            tally.rejects += 1;
            return Some((hello, false, false));
        }
        _ => return io(tally),
    }
    let (mut tx, mut rx) = (sess.sender(), sess.receiver());
    let ok = traced_frame(
        &mut c, &mut tx, &mut rx, "64b", "churn", payload, tally, spans,
    );
    Some((hello, true, ok))
}

/// In-process replay of the responder (`Session::accept`) and of the
/// KEM calls under the handshake, on the session's own hello. The
/// replayed verdict and ciphertext must equal what the wire saw.
fn replay_responder(
    net: &Net,
    seed: &[u8; 32],
    hello: &[u8],
    server_accepted: bool,
    tally: &mut Tally,
    spans: &mut Spans,
) {
    let accepted = spans.time("engine.accept_us", || {
        Session::accept(&net.ctx, &net.sk, hello)
    });
    if accepted.is_ok() != server_accepted {
        tally.mismatches += 1;
    }
    let mut rng = HashDrbg::for_stream(seed, 0);
    let Ok((ct, _)) = spans.time("core.encapsulate_us.p1", || {
        net.ctx.encapsulate(&net.pk, &mut rng)
    }) else {
        tally.mismatches += 1;
        return;
    };
    let parsed = spans.time("core.serialize_us.p1", || {
        ct.to_bytes()
            .and_then(|b| rlwe_core::Ciphertext::from_bytes(&b).map(|c| (b, c)))
    });
    let Ok((bytes, parsed)) = parsed else {
        tally.mismatches += 1;
        return;
    };
    if hello.len() < 32 || bytes != hello[..hello.len() - 32] {
        tally.mismatches += 1;
    }
    let _ = spans.time("core.decapsulate_us.p1", || {
        net.ctx.decapsulate(&net.sk, &parsed)
    });
}

/// Seal → round trip → open of one frame, each timed; `scope` names
/// the round-trip series so each workload keeps its own.
#[allow(clippy::too_many_arguments)]
fn traced_frame(
    c: &mut Client,
    tx: &mut StreamSender,
    rx: &mut StreamReceiver,
    class: &str,
    scope: &str,
    payload: &[u8],
    tally: &mut Tally,
    spans: &mut Spans,
) -> bool {
    tally.frames += 1;
    let sealed = spans.time(&format!("engine.seal_us.{class}"), || tx.seal(payload));
    let resp = spans.time(&format!("{scope}.rtt_us.session_frame.{class}"), || {
        c.request_raw(OpCode::SessionFrame, &sealed)
    });
    let body = match resp {
        Ok(r) if r.status == Status::Ok => r.body,
        _ => {
            tally.io_errors += 1;
            return false;
        }
    };
    match spans.time(&format!("engine.open_us.{class}"), || rx.open(&body)) {
        Ok((echo, _)) if echo == payload => true,
        _ => {
            tally.mismatches += 1;
            false
        }
    }
}

/// Seal → round trip → open of one frame with no span inside: the calls
/// `Client::exchange` makes, on a hand-handshaked session.
fn plain_frame(
    c: &mut Client,
    tx: &mut StreamSender,
    rx: &mut StreamReceiver,
    payload: &[u8],
    tally: &mut Tally,
) -> bool {
    tally.frames += 1;
    let body = match c.request_raw(OpCode::SessionFrame, &tx.seal(payload)) {
        Ok(r) if r.status == Status::Ok => r.body,
        _ => {
            tally.io_errors += 1;
            return false;
        }
    };
    match rx.open(&body) {
        Ok((echo, _)) if echo == payload => true,
        _ => {
            tally.mismatches += 1;
            false
        }
    }
}

// ---------------------------------------------------------------------
// sealed_stream
// ---------------------------------------------------------------------

/// Untraced `sealed_stream`: each client thread runs a closed loop of
/// `Client::exchange` on its own handshaked session.
pub fn stream(clients: Vec<Client>, master: &[u8; 32], dur: Duration) -> (Tally, Spans) {
    run_threads(clients, |t, mut c| {
        let mut tally = Tally::default();
        let mut spans = Spans::default();
        let mut payloads = Payloads::new(derive(master, "stream", t as u64));
        let start = Instant::now();
        while start.elapsed() < dur {
            let (class, payload) = payloads.next();
            tally.attempted += 1;
            tally.frames += 1;
            let t0 = Instant::now();
            match c.exchange(payload) {
                Ok(echo) if echo == payload => {
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    spans.record(SIZES[class].0, us);
                    spans.record("frame", us);
                    tally.payload_bytes += payload.len() as u64;
                }
                Ok(_) => {
                    tally.failed += 1;
                    tally.mismatches += 1;
                }
                Err(_) => {
                    // The session's sequence numbers are out of step now.
                    tally.failed += 1;
                    tally.io_errors += 1;
                    break;
                }
            }
        }
        (tally, spans)
    })
}

/// Handshakes one session by hand, keeping both stream halves so each
/// frame's seal, round trip and open can be timed apart.
fn open_session(
    net: &Net,
    seed: &[u8; 32],
    tally: &mut Tally,
) -> Option<(Client, StreamSender, StreamReceiver)> {
    let mut c = Client::connect(net.addr).ok()?;
    tally.connects += 1;
    tally.public_key += 1;
    let pk = c
        .request_raw(OpCode::PublicKey, &[])
        .ok()
        .and_then(|r| PublicKey::from_bytes(&r.body).ok())?;
    for attempt in 0..16 {
        let mut rng = HashDrbg::for_stream(seed, attempt);
        let (sess, hello) = Session::initiate(&net.ctx, &pk, &mut rng).ok()?;
        tally.hellos += 1;
        let r = c.request_raw(OpCode::SessionHello, &hello).ok()?;
        if r.status == Status::Ok {
            return Some((c, sess.sender(), sess.receiver()));
        }
        tally.rejects += 1;
    }
    None
}

/// Traced `sealed_stream`: the same seeded frames, every other one with
/// seal, round trip and open timed apart and the ones in between timed
/// whole as untraced twins; a 64-byte `ping` every eighth frame for the
/// transport floor; then the frames' hash work replayed in process.
pub fn stream_traced(net: &Net, master: &[u8; 32], dur: Duration) -> (Tally, Spans) {
    let (tally, mut spans) = run_threads(vec![(); CLIENTS], |t, ()| {
        let mut tally = Tally::default();
        let mut spans = Spans::default();
        let Some((mut c, mut tx, mut rx)) = open_session(
            net,
            &derive(master, "stream-traced-hs", t as u64),
            &mut tally,
        ) else {
            tally.attempted += 1;
            tally.failed += 1;
            tally.io_errors += 1;
            return (tally, spans);
        };
        let mut payloads = Payloads::new(derive(master, "stream", t as u64));
        let ping = [0xA5u8; 64];
        let start = Instant::now();
        let mut k = 0u64;
        while start.elapsed() < dur {
            let (class, payload) = payloads.next();
            tally.attempted += 1;
            let traced = k.is_multiple_of(2);
            let t0 = Instant::now();
            let ok = if traced {
                traced_frame(
                    &mut c,
                    &mut tx,
                    &mut rx,
                    SIZES[class].0,
                    "stream",
                    payload,
                    &mut tally,
                    &mut spans,
                )
            } else {
                plain_frame(&mut c, &mut tx, &mut rx, payload, &mut tally)
            };
            if !ok {
                tally.failed += 1;
                break;
            }
            if class == 0 {
                let name = if traced {
                    "trace.frame_us.64b"
                } else {
                    "trace.untraced.frame_us.64b"
                };
                spans.record(name, t0.elapsed().as_secs_f64() * 1e6);
            }
            k += 1;
            if k.is_multiple_of(8) {
                tally.attempted += 1;
                tally.pings += 1;
                match spans.time("server.ping_rtt_us", || c.ping(&ping)) {
                    Ok(echo) if echo == ping => {}
                    _ => {
                        tally.failed += 1;
                        tally.io_errors += 1;
                    }
                }
            }
        }
        (tally, spans)
    });
    replay_hash(master, dur / 4, &mut spans);
    (tally, spans)
}

/// Replays the frames' keystream (KDF2), tag (HMAC) and digest
/// (SHA-256) work on the first client's payload sequence.
fn replay_hash(master: &[u8; 32], budget: Duration, spans: &mut Spans) {
    let key = derive(master, "hash-key", 0);
    // "rlwe-engine/ks" ‖ sid ‖ seq, the engine's keystream info length.
    let mut info = b"rlwe-engine/ks".to_vec();
    info.extend_from_slice(&key[..16]);
    let mut payloads = Payloads::new(derive(master, "stream", 0));
    let start = Instant::now();
    let mut seq = 0u64;
    while start.elapsed() < budget {
        let (class, payload) = payloads.next();
        let name = SIZES[class].0;
        if class == 1 {
            continue;
        }
        info.truncate(14 + 16);
        info.extend_from_slice(&seq.to_be_bytes());
        seq += 1;
        let ks = spans.time(&format!("hash.kdf2_us.{name}"), || {
            kdf2(&key, &info, payload.len())
        });
        std::hint::black_box(ks);
        let tag = spans.time(&format!("hash.hmac_us.{name}"), || {
            HmacSha256::mac(&key, payload)
        });
        std::hint::black_box(tag);
        if class == 2 {
            let t0 = Instant::now();
            std::hint::black_box(Sha256::digest(std::hint::black_box(payload)));
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            spans.record("hash.sha256_ns_per_byte", ns / payload.len() as f64);
        }
    }
}

/// Runs `f(t, input)` on one scoped thread per input and merges their
/// results.
fn run_threads<I: Send>(
    inputs: Vec<I>,
    f: impl Fn(usize, I) -> (Tally, Spans) + Sync,
) -> (Tally, Spans) {
    let results: Vec<(Tally, Spans)> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(t, input)| s.spawn(move || f(t, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    for (t, s) in results {
        tally += t;
        spans.merge(s);
    }
    (tally, spans)
}
