//! The `paper_pke` workload: the paper's measured operations for P1 and
//! P2 through `RlweContext::new(set)`, in process on one thread. Its
//! traced form reads the sampler, NTT and pointwise times from the
//! context's own `rlwe-obs` phase spans.

use crate::stats::Spans;
use crate::{derive, Tally};
use rand::RngCore;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{ParamSet, PublicKey, RlweContext, SecretKey};
use rlwe_obs::span;
use std::time::{Duration, Instant};

/// The phase spans `RlweContext::encrypt` and `decrypt` open: error
/// sampling (three polynomials, DRBG draws included), message encoding,
/// the three forward NTTs, the two multiply-adds; then decryption's
/// multiply-add, inverse NTT and decoding.
pub const PHASES: [&str; 7] = [
    "encrypt.sample",
    "encrypt.encode",
    "encrypt.ntt",
    "encrypt.pointwise",
    "decrypt.pointwise",
    "decrypt.ntt",
    "decrypt.decode",
];

/// Iterations of one set between two reads of the span sink in a traced
/// run, half of them traced; well inside its capacity at seven events
/// per traced iteration.
const TRACED_BATCH: u64 = 32;

/// One parameter set's context and key pair.
pub struct PkeSet {
    pub name: &'static str,
    pub ctx: RlweContext,
    pub pk: PublicKey,
    pub sk: SecretKey,
}

impl PkeSet {
    pub fn new(set: ParamSet, name: &'static str, master: &[u8; 32]) -> Result<Self, String> {
        let ctx = RlweContext::new(set).map_err(|e| e.to_string())?;
        let mut rng = HashDrbg::new(derive(master, "pke-key", u64::from(set.id())));
        let (pk, sk) = ctx.generate_keypair(&mut rng).map_err(|e| e.to_string())?;
        Ok(Self { name, ctx, pk, sk })
    }
}

/// Per-set counts of the scheme's inherent failures: a wrong plaintext
/// from `decrypt`, a different secret from `decapsulate_cca` (its
/// implicit reject). Both follow from the parameters' decryption-failure
/// probability, so they are counted apart from faults of the stack.
#[derive(Default, Clone, Copy)]
pub struct FailCount {
    /// Iterations, each with one decrypt and one KEM round trip.
    pub decrypts: u64,
    pub decrypt_failures: u64,
    pub kem_failures: u64,
}

/// Span names of one set, built once so the loop does not format.
struct Names {
    encrypt: String,
    decrypt: String,
    decap: String,
}

impl Names {
    fn new(prefix: &str, set: &str) -> Self {
        Self {
            encrypt: format!("{prefix}encrypt.{set}"),
            decrypt: format!("{prefix}decrypt.{set}"),
            decap: format!("{prefix}decap_cca.{set}"),
        }
    }
}

/// Runs the closed loop for `dur`. Each iteration does, for P1 then P2:
/// encrypt a seeded random message, decrypt and compare, then
/// `encapsulate_cca` / `decapsulate_cca` and compare the secrets.
///
/// With `traced`, every other iteration has the library's phase spans on
/// around `encrypt` and `decrypt` (not around the CCA calls, whose
/// re-encryption would open the same spans); the iterations in between
/// are the untraced twins the overhead and budgets are measured against.
/// The sets take turns in batches so each batch's events belong to one
/// set, and the DRBG and key generation, which no library span covers,
/// are timed here.
pub fn run(
    sets: &[PkeSet],
    master: &[u8; 32],
    dur: Duration,
    traced: bool,
    fails: &mut [FailCount],
) -> (Tally, Spans) {
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    let names =
        |prefix: &str| -> Vec<Names> { sets.iter().map(|s| Names::new(prefix, s.name)).collect() };
    let (traced_names, untraced_names) = if traced {
        (names("trace."), names("trace.untraced."))
    } else {
        (Vec::new(), names(""))
    };
    let mut rng = HashDrbg::new(derive(master, if traced { "pke-traced" } else { "pke" }, 0));
    let batch = if traced { TRACED_BATCH } else { 1 };
    let start = Instant::now();
    let mut iter = 0u64;
    while start.elapsed() < dur {
        for (k, set) in sets.iter().enumerate() {
            let recorded = span::sink().recorded();
            for j in 0..batch {
                let on = traced && j.is_multiple_of(2);
                let names = if on { &traced_names } else { &untraced_names };
                iteration(
                    set,
                    &names[k],
                    on,
                    &mut rng,
                    &mut tally,
                    &mut fails[k],
                    &mut spans,
                );
            }
            if traced {
                read_phases(set.name, recorded, &mut spans);
                time_uncovered(set, iter, &mut rng, &mut spans);
            }
        }
        iter += 1;
    }
    (tally, spans)
}

fn iteration(
    set: &PkeSet,
    names: &Names,
    traced: bool,
    rng: &mut HashDrbg,
    tally: &mut Tally,
    fails: &mut FailCount,
    spans: &mut Spans,
) {
    let (ctx, pk, sk) = (&set.ctx, &set.pk, &set.sk);
    let mut msg = vec![0u8; ctx.params().message_bytes()];
    rng.fill_bytes(&mut msg);
    tally.attempted += 2;
    span::set_enabled(traced);
    let ct = spans.time(&names.encrypt, || ctx.encrypt(pk, &msg, rng));
    let out = ct
        .as_ref()
        .map(|ct| spans.time(&names.decrypt, || ctx.decrypt(sk, ct)));
    span::set_enabled(false);
    let Ok(out) = out else {
        tally.failed += 2;
        tally.io_errors += 1;
        return;
    };
    fails.decrypts += 1;
    match out {
        Ok(m) if m == msg => {}
        Ok(_) => {
            tally.scheme_failures += 1;
            fails.decrypt_failures += 1;
        }
        Err(_) => {
            tally.failed += 1;
            tally.io_errors += 1;
        }
    }
    match ctx.encapsulate_cca(pk, rng) {
        Ok((ct2, ss)) => match spans.time(&names.decap, || ctx.decapsulate_cca(sk, pk, &ct2)) {
            Ok(s) if s.as_bytes() == ss.as_bytes() => {}
            Ok(_) => {
                tally.scheme_failures += 1;
                fails.kem_failures += 1;
            }
            Err(_) => {
                tally.failed += 1;
                tally.io_errors += 1;
            }
        },
        Err(_) => {
            tally.failed += 1;
            tally.io_errors += 1;
        }
    }
}

/// Moves the phase events recorded since `recorded` out of the global
/// sink into `span.<phase>.<set>` series, in microseconds.
fn read_phases(set: &str, recorded: u64, spans: &mut Spans) {
    let fresh = span::sink().recorded().saturating_sub(recorded) as usize;
    let events = span::sink().events();
    for ev in &events[events.len().saturating_sub(fresh)..] {
        if PHASES.contains(&ev.name) {
            spans.record(&format!("span.{}.{set}", ev.name), ev.dur_ns as f64 / 1e3);
        }
    }
}

/// Times the DRBG on 1 KiB from the workload's stream and, every fourth
/// batch, a key generation: the parts of the layer budget no library span
/// covers.
fn time_uncovered(set: &PkeSet, iter: u64, rng: &mut HashDrbg, spans: &mut Spans) {
    let mut buf = [0u8; 1024];
    let t0 = Instant::now();
    rng.fill_bytes(&mut buf);
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    std::hint::black_box(&buf);
    spans.record("hash.drbg_ns_per_byte", ns / buf.len() as f64);
    if iter.is_multiple_of(4) {
        let kp = spans.time(&format!("core.keygen_us.{}", set.name), || {
            set.ctx.generate_keypair(rng)
        });
        std::hint::black_box(kp.is_ok());
    }
}
