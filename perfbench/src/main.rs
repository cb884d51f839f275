//! End-to-end and per-layer benchmark of the served ring-LWE stack.
//!
//! ```text
//! perfbench --workload <handshake_churn|sealed_stream|paper_pke>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its fixtures (an in-process server from
//! `serve(ServerConfig { .. })` with its default backend, sampler and
//! parameter set; `RlweContext::new` for P1 and P2, with their key
//! pairs) and handshakes two stream sessions. It then runs all three
//! workloads, interleaved in twenty rounds: the named one for 0.6 of
//! `--seconds`, the other two for 0.2 each, so every run measures for
//! `--seconds` and reports every end-to-end metric. Each round starts
//! with one more set-up, timed and shut down again; `setup_s` is the
//! median of all. With `--trace 1` each slice is halved and followed by
//! its traced form, with spans around the calls into each layer, and the
//! per-layer medians, the layer budgets and the tracing overhead are
//! reported instead.
//!
//! The last line of standard output is the result object; the lines
//! before it record the host, the live kernel labels and the checks.

mod net;
mod pke;
mod stats;

use net::{Net, ServerCounts};
use pke::{FailCount, PkeSet};
use rlwe_core::{ParamSet, RlweContext};
use rlwe_engine::SessionError;
use rlwe_server::{serve, Client, ServerConfig, ServerError, ServerHandle};
use stats::Spans;
use std::fmt::Write as _;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["handshake_churn", "sealed_stream", "paper_pke"];

/// Shares of `--seconds` the named workload and each of the other two
/// get; they sum to one.
const NAMED_SHARE: f64 = 0.6;
const COMPANION_SHARE: f64 = 0.2;

/// Quantile of the per-call times the `paper_pke` metrics report. The
/// host's speed for this single-thread code flips between two modes as
/// other tenants load it (for `encrypt` P1 about 19 µs and 32 µs per
/// call, switching within a second), so a median reports whichever mode
/// held longer in the run. The 5th percentile lies in the faster mode
/// whenever it held for a few percent of the run.
const PKE_QUANTILE: f64 = 0.05;

/// Interleaved slices each workload's time is cut into.
const ROUNDS: usize = 20;

/// Ceilings on the scheme's inherent failure rates (a wrong plaintext or
/// CCA implicit reject per PKE iteration, a handshake reject per hello).
/// The rate is a property of the key pair, and the keys come from the
/// seed: over 1000 seeds the P1 keys' rates have median 0.8 % and
/// maximum 3.5 %, the P2 keys' 2.4 % and 7.1 %. Each ceiling sits above
/// that spread of keys and well above a run's binomial noise, so a
/// rate past it is a broken build, not an unlucky key.
const MAX_FAIL_RATIO_P1: f64 = 0.06;
const MAX_FAIL_RATIO_P2: f64 = 0.10;

/// Client-side counts of one run, reconciled against `/metrics`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Faults of the stack: transport errors, non-`Ok` replies other than
    /// a handshake reject, wrong outputs. None is expected.
    pub failed: u64,
    /// The scheme's inherent decryption failures among the attempts: a
    /// handshake reject, a wrong plaintext, a CCA implicit reject. Their
    /// rates are checked and reported; they are not faults, and their
    /// count grows with throughput, so they stay out of `failed`.
    pub scheme_failures: u64,
    /// Wrong outputs: echo, replayed ciphertext or verdict, scrape body.
    pub mismatches: u64,
    /// Transport errors and non-`Ok` replies other than a handshake reject.
    pub io_errors: u64,
    pub connects: u64,
    pub scrapes: u64,
    pub pings: u64,
    pub public_key: u64,
    pub hellos: u64,
    pub rejects: u64,
    pub frames: u64,
    pub payload_bytes: u64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, o: Self) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.scheme_failures += o.scheme_failures;
        self.mismatches += o.mismatches;
        self.io_errors += o.io_errors;
        self.connects += o.connects;
        self.scrapes += o.scrapes;
        self.pings += o.pings;
        self.public_key += o.public_key;
        self.hellos += o.hellos;
        self.rejects += o.rejects;
        self.frames += o.frames;
        self.payload_bytes += o.payload_bytes;
    }
}

/// Domain-separated 32-byte seed: every input of a run comes from one.
pub fn derive(master: &[u8; 32], label: &str, idx: u64) -> [u8; 32] {
    let mut h = rlwe_hash::Sha256::new();
    h.update(master);
    h.update(label.as_bytes());
    h.update(&idx.to_be_bytes());
    h.finalize()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one set-up builds in process: the server, the server key pair
/// reproduced for the replays, and the two PKE sets.
struct Fixture {
    server: ServerHandle,
    net: Net,
    sets: Vec<PkeSet>,
}

/// The timed set-up. Connections are opened after it: a first reply
/// waits for the acceptor's next poll, which would set the figure.
fn set_up(master: &[u8; 32]) -> Result<Fixture, String> {
    let e = |x: &dyn std::fmt::Display| x.to_string();
    let server_seed = derive(master, "server", 0);
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".parse().map_err(|x| e(&x))?,
        workers: 2,
        seed: server_seed,
        ..ServerConfig::default()
    })
    .map_err(|x| e(&x))?;
    let addr = server.local_addr();
    // `serve` builds its engine this way (from the shared context pool,
    // which `Client::handshake` also uses); the same seed gives its keys.
    let engine = rlwe_engine::Engine::new(ParamSet::P1).map_err(|x| e(&x))?;
    let (pk, sk) = engine.generate_keypair(&server_seed).map_err(|x| e(&x))?;
    let net = Net {
        addr,
        ctx: std::sync::Arc::clone(engine.context()),
        pk_bytes: pk.to_bytes().map_err(|x| e(&x))?,
        pk,
        sk,
    };
    let sets = vec![
        PkeSet::new(ParamSet::P1, "p1", master)?,
        PkeSet::new(ParamSet::P2, "p2", master)?,
    ];
    Ok(Fixture { server, net, sets })
}

/// Connects and handshakes the `sealed_stream` sessions, retrying
/// handshake rejects with a fresh seed; not a measured operation.
fn open_stream_clients(
    addr: std::net::SocketAddr,
    key: &[u8; 32],
    tally: &mut Tally,
) -> Result<Vec<Client>, String> {
    let mut clients = Vec::new();
    for t in 0..net::CLIENTS as u64 {
        let mut c = Client::connect(addr).map_err(|x| x.to_string())?;
        tally.connects += 1;
        let mut done = false;
        for attempt in 0..16 {
            tally.public_key += 1;
            tally.hellos += 1;
            match c.handshake(&derive(key, "stream-hs", 16 * t + attempt), 1) {
                Ok(_) => {
                    done = true;
                    break;
                }
                Err(ServerError::Session(SessionError::HandshakeFailed)) => tally.rejects += 1,
                Err(x) => return Err(format!("stream handshake: {x}")),
            }
        }
        if !done {
            return Err("stream handshake rejected 16 times".into());
        }
        clients.push(c);
    }
    Ok(clients)
}

fn host_block(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let (avx2, sha) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("sha"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, sha) = (false, false);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"cpu\": {}, \"avx2\": {avx2}, \"sha_ni\": {sha}, \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn kernel_labels(contexts: &[(&str, &RlweContext)]) -> String {
    let items: Vec<String> = contexts
        .iter()
        .map(|(name, ctx)| {
            format!(
                "{{\"context\": {}, \"params\": {}, \"backend\": {}, \"sampler_kind\": {}, \"sampler_backend\": {}, \"reducer_kind\": {}}}",
                json_str(name),
                json_str(&ctx.params().obs_label()),
                json_str(ctx.backend_label()),
                json_str(ctx.sampler_kind().label()),
                json_str(ctx.sampler_backend()),
                json_str(&format!("{:?}", ctx.reducer_kind())),
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Ordered `(name, value, unit)` result metrics.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.0.push((name.to_string(), v, unit));
                Ok(())
            }
            _ => Err(format!("no measurement for {name}")),
        }
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(n),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let master = rlwe_hash::Sha256::digest(format!("perfbench/{}", args.seed).as_bytes());
    // A traced run measures every slice twice, untraced and traced.
    let passes = if args.trace { 2.0 } else { 1.0 };
    let slice = |w: &str| {
        let share = if w == args.workload {
            NAMED_SHARE
        } else {
            COMPANION_SHARE
        };
        Duration::from_secs_f64(args.seconds * share / passes / ROUNDS as f64)
    };

    // This set-up builds what the run uses. One more at the start of
    // every round is timed and shut down again, so `setup_s`, the median
    // of all of them, sees the same mix of host load as the workloads.
    let t0 = Instant::now();
    let Fixture { server, net, sets } = set_up(&master)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let base = net::scrape(net.addr, &mut Tally::default(), None)
        .map(|t| ServerCounts::parse(&t))
        .ok_or("baseline /metrics scrape failed")?;
    let mut tally = Tally::default();
    let stream_clients = open_stream_clients(net.addr, &master, &mut tally)?;

    println!("perfbench host {}", host_block(args));
    println!(
        "perfbench kernels {}",
        kernel_labels(&[
            ("server_p1", &net.ctx),
            ("pke_p1", &sets[0].ctx),
            ("pke_p2", &sets[1].ctx),
        ])
    );

    // The workloads run in ROUNDS interleaved slices, so each one's
    // samples spread over the whole run and see the same mix of host
    // load. The stream sessions pin both server workers, so they close
    // before each churn slice and are opened afresh for the next round.
    let mut stream_clients = Some(stream_clients);
    let (mut stream, mut churn, mut pke) = (Spans::default(), Spans::default(), Spans::default());
    let (mut stream_s, mut churn_s, mut stream_bytes) = (0.0, 0.0, 0u64);
    let mut fails = [FailCount::default(); 2];
    let mut layer = Spans::default();
    let mut window = ServerCounts::default();
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let spare = set_up(&master)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        spare.server.shutdown();
        let key = derive(&master, "round", round as u64);
        let clients = match stream_clients.take() {
            Some(c) => c,
            None => open_stream_clients(net.addr, &key, &mut tally)?,
        };
        let t0 = Instant::now();
        let (t, s) = net::stream(clients, &key, slice("sealed_stream"));
        stream_s += t0.elapsed().as_secs_f64();
        stream_bytes += t.payload_bytes;
        tally += t;
        stream.merge(s);
        let t0 = Instant::now();
        let (t, s) = net::churn(net.addr, &key, slice("handshake_churn"));
        churn_s += t0.elapsed().as_secs_f64();
        tally += t;
        churn.merge(s);
        let (t, s) = pke::run(&sets, &key, slice("paper_pke"), false, &mut fails);
        tally += t;
        pke.merge(s);
        if args.trace {
            let (t, s) = net::stream_traced(&net, &key, slice("sealed_stream"));
            tally += t;
            layer.merge(s);
            // The churn's server-side service times come from the
            // /metrics delta around its traced slices only.
            let scrape = |tally: &mut Tally, layer: &mut Spans| {
                net::scrape(net.addr, tally, Some(layer))
                    .map(|t| ServerCounts::parse(&t))
                    .ok_or("/metrics scrape around the traced churn failed")
            };
            let before = scrape(&mut tally, &mut layer)?;
            let (t, s) = net::churn_traced(&net, &key, slice("handshake_churn"));
            tally += t;
            layer.merge(s);
            let after = scrape(&mut tally, &mut layer)?;
            window.add(&after.delta(&before));
            let (t, s) = pke::run(&sets, &key, slice("paper_pke"), true, &mut fails);
            tally += t;
            layer.merge(s);
        }
    }
    let rss = peak_rss_mib();

    let sessions = churn.get("session").map_or(0, |r| r.seen());
    let frames = stream.get("frame").map_or(0, |r| r.seen());
    let pke_ops = pke.get("decrypt.p2").map_or(0, |r| r.seen());
    if sessions == 0 || frames == 0 || pke_ops == 0 {
        return Err(format!(
            "a workload completed no operations (sessions {sessions}, frames {frames}, pke iterations {pke_ops})"
        ));
    }

    let mut e2e = Metrics::default();
    e2e.put("setup_s", stats::quantile(&setup_s, 0.5), "s")?;
    e2e.put("peak_rss_mib", rss, "MiB")?;
    let q = |s: &Spans, name: &str, p: f64| s.get(name).and_then(|r| r.quantile(p));
    e2e.put("session_p50_us", q(&churn, "session", 0.5), "us")?;
    e2e.put("sessions_per_s", Some(sessions as f64 / churn_s), "1/s")?;
    e2e.put("frame_p90_us", q(&stream, "frame", 0.9), "us")?;
    e2e.put(
        "goodput_mib_s",
        Some(stream_bytes as f64 / stream_s / (1u64 << 20) as f64),
        "MiB/s",
    )?;
    for set in ["p1", "p2"] {
        for op in ["encrypt", "decrypt", "decap_cca"] {
            e2e.put(
                &format!("{op}_{set}_us"),
                q(&pke, &format!("{op}.{set}"), PKE_QUANTILE),
                "us",
            )?;
        }
    }
    for (name, s) in [("session", &churn), ("64b", &stream), ("frame", &stream)] {
        print_series(&format!("e2e.{name}"), s.get(name), "us");
    }
    for (name, r) in pke.iter() {
        print_series(&format!("e2e.{name}"), Some(r), "us");
    }
    // Reconcile the server's own counters with what the clients did.
    let end = net::scrape(net.addr, &mut tally, None)
        .map(|t| ServerCounts::parse(&t))
        .ok_or("final /metrics scrape failed")?;
    let d = end.delta(&base);
    let mut checks = Vec::new();
    // After a transport error the server may or may not have counted
    // the request, so only an upper bound holds.
    let exact = tally.io_errors == 0;
    let mut expect = |what: &str, server: f64, client: u64, exact: bool| {
        let ok = if exact {
            server == client as f64
        } else {
            server <= client as f64
        };
        checks.push(format!(
            "{{\"check\": {}, \"server\": {server}, \"client\": {client}, \"ok\": {ok}}}",
            json_str(what)
        ));
        ok
    };
    let mut reconciled = true;
    let accepted = tally.connects + tally.scrapes;
    reconciled &= expect("connections_accepted", d.accepted, accepted, exact);
    reconciled &= expect("requests.ping", d.requests["ping"], tally.pings, exact);
    reconciled &= expect(
        "requests.public_key",
        d.requests["public_key"],
        tally.public_key,
        exact,
    );
    reconciled &= expect(
        "requests.session_hello",
        d.requests["session_hello"],
        tally.hellos,
        exact,
    );
    reconciled &= expect(
        "requests.session_frame",
        d.requests["session_frame"],
        tally.frames,
        exact,
    );
    reconciled &= expect(
        "handshake_failures",
        d.handshake_failures,
        tally.rejects,
        exact,
    );
    // Every refused or evicted connection must have cost a client an
    // operation; none is expected at this load.
    reconciled &= expect(
        "refused_or_evicted",
        d.rejected + d.idle_evictions,
        tally.failed,
        false,
    );
    // The handshake runs the server's P1 key.
    let below = |n: u64, of: u64, ceiling: f64| (n as f64) < ceiling * of as f64;
    let ratios_ok = fails
        .iter()
        .zip([MAX_FAIL_RATIO_P1, MAX_FAIL_RATIO_P2])
        .all(|(f, c)| {
            f.decrypts > 0
                && below(f.decrypt_failures, f.decrypts, c)
                && below(f.kem_failures, f.decrypts, c)
        })
        && below(tally.rejects, tally.hellos.max(1), MAX_FAIL_RATIO_P1);
    let correct = tally.mismatches == 0 && reconciled && ratios_ok;
    println!(
        "perfbench checks {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \"scheme_failures\": {}, \"scheme_failure_rate\": {}, \"mismatches\": {}, \"io_errors\": {}, \"handshake_rejects\": {}, \"hellos\": {}, \"decrypt_failures\": [{}, {}], \"kem_failures\": [{}, {}], \"pke_iterations\": [{}, {}], \"shed\": {}, \"reconcile\": [{}]}}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.scheme_failures,
        tally.scheme_failures as f64 / tally.attempted.max(1) as f64,
        tally.mismatches,
        tally.io_errors,
        tally.rejects,
        tally.hellos,
        fails[0].decrypt_failures,
        fails[1].decrypt_failures,
        fails[0].kem_failures,
        fails[1].kem_failures,
        fails[0].decrypts,
        fails[1].decrypts,
        d.shed,
        checks.join(", ")
    );
    let result = if args.trace {
        per_layer(&layer, &window, &d, &tally, &fails)?
    } else {
        e2e
    };
    server.shutdown();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        result.json()
    );
    Ok(())
}

/// Prints one series' p05, median, p90, p99 and count.
fn print_series(name: &str, r: Option<&stats::Reservoir>, unit: &str) {
    if let Some(r) = r {
        println!(
            "perfbench series {name:<36} p05 {:>12.3} p50 {:>12.3} {unit:<5} p90 {:>12.3} p99 {:>12.3} n {}",
            r.quantile(0.05).unwrap_or(f64::NAN),
            r.median().unwrap_or(f64::NAN),
            r.quantile(0.9).unwrap_or(f64::NAN),
            r.quantile(0.99).unwrap_or(f64::NAN),
            r.seen()
        );
    }
}

/// One row of a layer budget: a per-call median times its calls per
/// end-to-end operation, read from the code path.
struct Term<'a> {
    name: &'a str,
    calls: f64,
    us: Option<f64>,
}

/// Prints the budget and returns the unattributed residual.
fn budget(
    title: &str,
    total_name: &str,
    total: f64,
    terms: &[Term],
    nested: &[&str],
) -> Option<f64> {
    println!("perfbench budget {title}: {total_name} = {total:.3} us");
    let mut sum = 0.0;
    for t in terms {
        let us = t.us?;
        sum += t.calls * us;
        println!(
            "perfbench budget   {:<40} {:>5} x {:>10.3} = {:>10.3} us ({:>5.1} %)",
            t.name,
            t.calls,
            us,
            t.calls * us,
            100.0 * t.calls * us / total
        );
    }
    for n in nested {
        println!("perfbench budget   ({n} is inside a row above)");
    }
    let residual = total - sum;
    println!(
        "perfbench budget   {:<40} {:>27.3} us ({:>5.1} %)",
        "unattributed",
        residual,
        100.0 * residual / total
    );
    Some(residual)
}

/// Builds the per-layer metrics of a traced run.
fn per_layer(
    layer: &Spans,
    window: &ServerCounts,
    run: &ServerCounts,
    tally: &Tally,
    fails: &[FailCount],
) -> Result<Metrics, String> {
    for (name, r) in layer.iter() {
        let unit = if name.contains("ns_per_byte") {
            "ns/B"
        } else if name.ends_with("bytes") {
            "B"
        } else {
            "us"
        };
        print_series(name, Some(r), unit);
    }
    let m = |name: &str| layer.median(name);
    let service = |op: &str| window.service_us(op);
    let diff = |a: Option<f64>, b: Option<f64>| Some(a? - b?);
    let mut out = Metrics::default();

    for name in [
        "server.connect_us",
        "server.first_response_us",
        "server.ping_rtt_us",
    ] {
        out.put(name, m(name), "us")?;
    }
    for op in ["public_key", "session_hello", "session_frame"] {
        out.put(&format!("server.service_us.{op}"), service(op), "us")?;
    }
    // Client round trip in the traced churn minus the server's service
    // time over the same window.
    let rtt = |op: &str| match op {
        "session_frame" => m("churn.rtt_us.session_frame.64b"),
        _ => m(&format!("churn.rtt_us.{op}")),
    };
    let transport = |op: &str| diff(rtt(op), service(op));
    for op in ["public_key", "session_hello", "session_frame"] {
        out.put(&format!("server.transport_us.{op}"), transport(op), "us")?;
    }
    // Whole-run counts; the server's own counters, expected 0.
    let end_counts = [
        ("server.shed_total", run.shed),
        ("server.rejected_total", run.rejected),
        ("server.idle_evictions_total", run.idle_evictions),
    ];
    for (name, v) in end_counts {
        out.put(name, Some(v), "count")?;
    }
    for name in ["engine.initiate_us", "engine.accept_us"] {
        out.put(name, m(name), "us")?;
    }
    for (class, _) in net::SIZES {
        out.put(
            &format!("engine.seal_us.{class}"),
            m(&format!("engine.seal_us.{class}")),
            "us",
        )?;
    }
    for (class, _) in net::SIZES {
        out.put(
            &format!("engine.open_us.{class}"),
            m(&format!("engine.open_us.{class}")),
            "us",
        )?;
    }
    out.put(
        "engine.handshake_reject_ratio",
        Some(tally.rejects as f64 / tally.hellos.max(1) as f64),
        "ratio",
    )?;
    for name in [
        "core.encapsulate_us.p1",
        "core.decapsulate_us.p1",
        "core.serialize_us.p1",
        "core.keygen_us.p1",
        "core.keygen_us.p2",
    ] {
        out.put(name, m(name), "us")?;
    }
    for (f, set) in fails.iter().zip(["p1", "p2"]) {
        out.put(
            &format!("core.decrypt_fail_ratio.{set}"),
            Some(f.decrypt_failures as f64 / f.decrypts.max(1) as f64),
            "ratio",
        )?;
    }
    // From the context's own phase spans: `encrypt` samples its three
    // error polynomials under one span and runs its three forward NTTs
    // under another; `decrypt` runs one multiply-add and one inverse NTT.
    let phase = |p: &str, set: &str| m(&format!("span.{p}.{set}"));
    let third = |v: Option<f64>| v.map(|v| v / 3.0);
    for set in ["p1", "p2"] {
        let one_poly = third(phase("encrypt.sample", set));
        out.put(&format!("sampler.poly_us.{set}"), one_poly, "us")?;
        let one_forward = third(phase("encrypt.ntt", set));
        out.put(&format!("ntt.forward_us.{set}"), one_forward, "us")?;
        let inverse = phase("decrypt.ntt", set);
        out.put(&format!("ntt.inverse_us.{set}"), inverse, "us")?;
        let pointwise = phase("decrypt.pointwise", set);
        out.put(&format!("ntt.pointwise_us.{set}"), pointwise, "us")?;
    }
    for name in [
        "hash.kdf2_us.64b",
        "hash.kdf2_us.16k",
        "hash.hmac_us.64b",
        "hash.hmac_us.16k",
        "obs.scrape_us",
    ] {
        out.put(name, m(name), "us")?;
    }
    out.put("hash.drbg_ns_per_byte", m("hash.drbg_ns_per_byte"), "ns/B")?;
    out.put(
        "hash.sha256_ns_per_byte",
        m("hash.sha256_ns_per_byte"),
        "ns/B",
    )?;
    out.put("obs.scrape_bytes", m("obs.scrape_bytes"), "B")?;

    // The budgets' totals are the untraced twins interleaved with the
    // traced operations, so both see the same host load.
    //
    // encrypt = its four phase spans (RlweContext::encrypt_body), each
    // opened once per call.
    let enc = m("trace.untraced.encrypt.p2").ok_or("no untraced encrypt.p2")?;
    let enc_residual = budget(
        "encrypt_p2 (paper_pke)",
        "encrypt_p2_us",
        enc,
        &[
            Term {
                name: "encrypt.sample (3 x sampler.poly_us.p2)",
                calls: 1.0,
                us: phase("encrypt.sample", "p2"),
            },
            Term {
                name: "encrypt.encode",
                calls: 1.0,
                us: phase("encrypt.encode", "p2"),
            },
            Term {
                name: "encrypt.ntt (3 x ntt.forward_us.p2)",
                calls: 1.0,
                us: phase("encrypt.ntt", "p2"),
            },
            Term {
                name: "encrypt.pointwise (2 multiply-adds)",
                calls: 1.0,
                us: phase("encrypt.pointwise", "p2"),
            },
        ],
        &["hash.drbg_ns_per_byte in encrypt.sample"],
    );
    out.put("budget.encrypt_p2.unattributed_us", enc_residual, "us")?;

    // A session: connect, the first reply (which carries the acceptor
    // pick-up), the key fetch and its parse, initiate, hello, then one
    // sealed frame.
    let sess = m("trace.untraced.session_us").ok_or("no untraced session")?;
    let sess_residual = budget(
        "session (handshake_churn)",
        "session_p50_us",
        sess,
        &[
            Term {
                name: "server.connect_us",
                calls: 1.0,
                us: m("server.connect_us"),
            },
            Term {
                name: "server.first_response_us",
                calls: 1.0,
                us: m("server.first_response_us"),
            },
            Term {
                name: "server.service_us.public_key",
                calls: 1.0,
                us: service("public_key"),
            },
            Term {
                name: "core.public_key_parse_us.p1",
                calls: 1.0,
                us: m("core.public_key_parse_us.p1"),
            },
            Term {
                name: "engine.initiate_us",
                calls: 1.0,
                us: m("engine.initiate_us"),
            },
            Term {
                name: "server.transport_us.session_hello",
                calls: 1.0,
                us: transport("session_hello"),
            },
            Term {
                name: "server.service_us.session_hello",
                calls: 1.0,
                us: service("session_hello"),
            },
            Term {
                name: "engine.seal_us.64b",
                calls: 1.0,
                us: m("engine.seal_us.64b"),
            },
            Term {
                name: "server.transport_us.session_frame",
                calls: 1.0,
                us: transport("session_frame"),
            },
            Term {
                name: "server.service_us.session_frame",
                calls: 1.0,
                us: service("session_frame"),
            },
            Term {
                name: "engine.open_us.64b",
                calls: 1.0,
                us: m("engine.open_us.64b"),
            },
        ],
        &[
            "core.encapsulate_us.p1 in engine.initiate_us",
            "engine.accept_us and core.decapsulate_us.p1 in server.service_us.session_hello",
        ],
    );
    out.put("budget.session.unattributed_us", sess_residual, "us")?;

    // Tracing overhead: traced minus untraced twin. The traced session
    // also carries the first-response ping: the twin's key fetch waits
    // for the pick-up instead, so one warm ping round trip is subtracted.
    let overhead = |traced: &str, untraced: &str| diff(m(traced), m(untraced));
    out.put(
        "trace.overhead_us.session_p50",
        diff(
            overhead("trace.session_us", "trace.untraced.session_us"),
            m("server.ping_rtt_us"),
        ),
        "us",
    )?;
    out.put(
        "trace.overhead_us.frame_small_p50",
        overhead("trace.frame_us.64b", "trace.untraced.frame_us.64b"),
        "us",
    )?;
    out.put(
        "trace.overhead_us.encrypt_p2",
        overhead("trace.encrypt.p2", "trace.untraced.encrypt.p2"),
        "us",
    )?;
    Ok(out)
}
