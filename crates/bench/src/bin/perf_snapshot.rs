//! Machine-readable performance snapshot of the suite's hot paths.
//!
//! Measures the NTT (forward/inverse), full negacyclic multiplication and
//! the scheme's encrypt/decrypt throughput on this host, and — with
//! `--json` — writes the numbers as a `BENCH_<PR>.json` snapshot so the
//! repository accumulates a benchmark trajectory across PRs.
//!
//! Since PR 5 every arm comes in two flavours: the default names
//! (`ntt_forward_p1_n256`, `encrypt_p2`, …) measure what the suite
//! actually runs — the **specialized** `Q7681`/`Q12289` reducer plans
//! the dispatch layer selects for the paper's parameter sets — while the
//! `_generic` siblings force the runtime-Barrett fallback on the same
//! ring, making the specialization ablation a one-file diff (DESIGN.md
//! §7).
//!
//! ```text
//! cargo run --release -p rlwe-bench --bin perf_snapshot            # print only
//! cargo run --release -p rlwe-bench --bin perf_snapshot -- --json  # + BENCH_7.json
//! cargo run --release -p rlwe-bench --bin perf_snapshot -- --smoke # CI: few reps
//! ```
//!
//! `--json [PATH]` defaults to `BENCH_7.json` in the working directory;
//! `--smoke` cuts repetition counts ~100× so CI can exercise the binary in
//! seconds (the numbers are then smoke-quality — trend data comes from
//! full runs).

use std::time::Instant;

use rlwe_bench::snapshot::{Snapshot, SnapshotEntry};

/// The PR this snapshot belongs to — bump once per PR; it names the
/// default `--json` output file and is recorded inside the document.
const PR: u32 = 7;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{NttBackend, ParamSet, ReducerPreference, RlweContext};
use rlwe_ntt::NttPlan;
use rlwe_sampler::ct::CtCdtSampler;
use rlwe_sampler::random::{BitSource, BufferedBitSource, SplitMix64};
use rlwe_sampler::ProbabilityMatrix;
use rlwe_zq::reduce::{Q12289, Q7681};
use rlwe_zq::Reducer;

/// Times `f` over `reps` repetitions (after one warm-up call) and returns
/// nanoseconds per call.
fn time_ns<F: FnMut()>(mut f: F, reps: u32) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn demo(n: usize, q: u32, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| (i.wrapping_mul(seed) + 1) % q)
        .collect()
}

/// NTT-layer arms for one plan instantiation; callers pass the full
/// `label` — the bare ring name (`"p1_n256"`) for the dispatched
/// specialized plan, the `_generic`-suffixed form for the forced
/// runtime-Barrett ablation arm.
fn bench_ntt_plan<R: Reducer>(snap: &mut Snapshot, plan: &NttPlan<R>, label: &str, ntt_reps: u32) {
    let n = plan.n();
    let q = plan.q();
    let poly = demo(n, q, 31);
    let other = demo(n, q, 77);

    let mut buf = poly.clone();
    let fwd = time_ns(
        || {
            buf.copy_from_slice(&poly);
            plan.forward(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_forward_{label}"), fwd));

    let hat = plan.forward_copy(&poly);
    let inv = time_ns(
        || {
            buf.copy_from_slice(&hat);
            plan.inverse(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_inverse_{label}"), inv));

    let mut out = vec![0u32; n];
    let mut scratch = rlwe_ntt::PolyScratch::new(n);
    let mul = time_ns(
        || {
            plan.negacyclic_mul_into(
                std::hint::black_box(&poly),
                std::hint::black_box(&other),
                &mut out,
                &mut scratch,
            )
            .expect("lengths match");
        },
        ntt_reps / 2,
    );
    snap.push(SnapshotEntry::ns(format!("negacyclic_mul_{label}"), mul));
}

/// Vector-backend NTT arms for one plan: the AVX2 forward and inverse
/// transforms (`_avx2`). On hosts without AVX2 these measure the
/// bit-identical scalar fallback — the run prints whether the vector
/// unit was live.
fn bench_ntt_avx2<R: Reducer>(snap: &mut Snapshot, plan: &NttPlan<R>, label: &str, ntt_reps: u32) {
    let n = plan.n();
    let q = plan.q();
    let poly = demo(n, q, 31);

    let mut buf = poly.clone();
    let fwd = time_ns(
        || {
            buf.copy_from_slice(&poly);
            plan.forward_avx2(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_forward_{label}_avx2"), fwd));

    let hat = plan.forward_copy(&poly);
    let inv = time_ns(
        || {
            buf.copy_from_slice(&hat);
            plan.inverse_avx2(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_inverse_{label}_avx2"), inv));
}

/// Pre-PR-7 bit-source behavior for the sampler ablation: forwards only
/// `take_bit`, so `take_bits` falls back to the trait's per-bit loop,
/// and wraps an *unbuffered* source, so every register refill is a
/// single-word fetch. Together these reproduce the scalar baseline the
/// bulk-refill and word-at-a-time fast paths replaced.
struct BitAtATime<B>(B);

impl<B: BitSource> BitSource for BitAtATime<B> {
    fn take_bit(&mut self) -> u32 {
        self.0.take_bit()
    }
    fn bits_drawn(&self) -> u64 {
        self.0.bits_drawn()
    }
}

/// Sampler ablation arms (ns **per sample**, constant-time CDT rung,
/// one ring-sized fill per measurement): the pre-PR scalar baseline
/// (`_scalar`), the bulk-refill + word-wise bit extraction path on the
/// same per-sample kernel (`_bulk`) and the 8-lane table scan (`_avx2`
/// where the host has it — otherwise the bit-identical scalar kernel).
fn bench_sampler<R: Reducer>(
    snap: &mut Snapshot,
    pmat: &ProbabilityMatrix,
    r: R,
    n: usize,
    label: &str,
    reps: u32,
) {
    let ct = CtCdtSampler::new(pmat);
    let mut out = vec![0u32; n];

    let scalar = time_ns(
        || {
            let mut bits = BitAtATime(BufferedBitSource::new(SplitMix64::new(0x5EED)));
            for c in out.iter_mut() {
                *c = ct.sample(&mut bits).to_zq_with(&r);
            }
            std::hint::black_box(&out);
        },
        reps,
    );
    snap.push(SnapshotEntry::ns(
        format!("sample_ct_{label}_scalar"),
        scalar / n as f64,
    ));

    let bulk = time_ns(
        || {
            let mut bits = BufferedBitSource::buffered(SplitMix64::new(0x5EED));
            for c in out.iter_mut() {
                *c = ct.sample(&mut bits).to_zq_with(&r);
            }
            std::hint::black_box(&out);
        },
        reps,
    );
    snap.push(SnapshotEntry::ns(
        format!("sample_ct_{label}_bulk"),
        bulk / n as f64,
    ));

    let vector = time_ns(
        || {
            let mut bits = BufferedBitSource::buffered(SplitMix64::new(0x5EED));
            ct.sample_poly_into(&r, &mut bits, &mut out);
            std::hint::black_box(&out);
        },
        reps,
    );
    snap.push(SnapshotEntry::ns(
        format!("sample_ct_{label}_avx2"),
        vector / n as f64,
    ));
}

/// Scheme-layer arms (encrypt/decrypt) for one context; `label` as in
/// [`bench_ntt_plan`].
fn bench_scheme(snap: &mut Snapshot, ctx: &RlweContext, label: &str, scheme_reps: u32) {
    let mut rng = HashDrbg::new([7u8; 32]);
    let (pk, sk) = ctx.generate_keypair(&mut rng).expect("keygen");
    let msg = vec![0xA5u8; ctx.params().message_bytes()];
    let mut scratch = ctx.new_scratch();
    let mut ct = ctx.empty_ciphertext();
    ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)
        .expect("encrypt");

    let enc = time_ns(
        || {
            ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)
                .expect("encrypt");
        },
        scheme_reps,
    );
    snap.push(SnapshotEntry::ns(format!("encrypt_{label}"), enc));

    let mut pt = vec![0u8; ctx.params().message_bytes()];
    let dec = time_ns(
        || {
            ctx.decrypt_into(&sk, &ct, &mut pt, &mut scratch)
                .expect("decrypt");
        },
        scheme_reps,
    );
    snap.push(SnapshotEntry::ns(format!("decrypt_{label}"), dec));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| format!("BENCH_{PR}.json"))
    });

    let (ntt_reps, scheme_reps): (u32, u32) = if smoke { (50, 5) } else { (20_000, 500) };
    let mut snap = Snapshot::new(PR, smoke);

    println!(
        "PERF SNAPSHOT ({} mode, ns/op and ops/s, this host)\n",
        if smoke { "smoke" } else { "full" }
    );
    println!("{:<34}{:>14}{:>16}", "benchmark", "ns/op", "ops/s");

    // --- NTT layer: specialized (the dispatched default) vs generic ------
    let p1 = NttPlan::with_reducer(256, Q7681).expect("paper ring");
    bench_ntt_plan(&mut snap, &p1, "p1_n256", ntt_reps);
    let p1_gen = NttPlan::new(256, 7681).expect("paper ring");
    bench_ntt_plan(&mut snap, &p1_gen, "p1_n256_generic", ntt_reps);

    let p2 = NttPlan::with_reducer(512, Q12289).expect("paper ring");
    bench_ntt_plan(&mut snap, &p2, "p2_n512", ntt_reps);
    let p2_gen = NttPlan::new(512, 12289).expect("paper ring");
    bench_ntt_plan(&mut snap, &p2_gen, "p2_n512_generic", ntt_reps);

    // --- Vector backend: AVX2 forward/inverse arms -----------------------
    println!(
        "(avx2 host: {})",
        if rlwe_ntt::avx2::available() {
            "yes"
        } else {
            "no — vector arms measure the scalar fallback"
        }
    );
    bench_ntt_avx2(&mut snap, &p1, "p1_n256", ntt_reps);
    bench_ntt_avx2(&mut snap, &p2, "p2_n512", ntt_reps);

    // --- Sampler layer: CT-CDT rung ablation (scalar / bulk / avx2), ns
    // per sample over one ring-sized fill ------------------------------
    println!(
        "(sampler avx2: {})",
        if rlwe_sampler::avx2::available() {
            "yes"
        } else {
            "no — the _avx2 arms measure the scalar kernel"
        }
    );
    let pmat1 = ProbabilityMatrix::paper_p1().expect("paper table");
    bench_sampler(&mut snap, &pmat1, Q7681, 256, "p1", ntt_reps / 10);
    let pmat2 = ProbabilityMatrix::paper_p2().expect("paper table");
    bench_sampler(&mut snap, &pmat2, Q12289, 512, "p2", ntt_reps / 10);

    // --- Scheme layer: dispatched context vs forced-generic context ------
    for set in [ParamSet::P1, ParamSet::P2] {
        let label = match set {
            ParamSet::P1 => "p1",
            ParamSet::P2 => "p2",
        };
        let ctx = RlweContext::new(set).expect("named set");
        assert_ne!(
            ctx.reducer_kind(),
            rlwe_zq::ReducerKind::Barrett,
            "default context must dispatch to the specialized plan"
        );
        bench_scheme(&mut snap, &ctx, label, scheme_reps);
        let generic_ctx = RlweContext::builder(set)
            .reducer_preference(ReducerPreference::Generic)
            .build()
            .expect("named set");
        bench_scheme(
            &mut snap,
            &generic_ctx,
            &format!("{label}_generic"),
            scheme_reps,
        );
        // Ablation arm: the AVX2-backend context (headline encrypt
        // through the vector transforms).
        let avx2_ctx = RlweContext::builder(set)
            .ntt_backend(NttBackend::Avx2)
            .build()
            .expect("named set");
        bench_scheme(&mut snap, &avx2_ctx, &format!("{label}_avx2"), scheme_reps);
    }

    for e in snap.entries() {
        println!("{:<34}{:>14.1}{:>16.0}", e.name, e.ns_per_op, e.ops_per_sec);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, snap.to_json()).expect("write snapshot");
        println!("\nwrote {path}");
    }
}
