//! # rlwe-suite
//!
//! Facade crate for the reproduction of *"Efficient Software Implementation
//! of Ring-LWE Encryption"* (De Clercq, Roy, Vercauteren, Verbauwhede —
//! DATE 2015).
//!
//! The workspace is organised bottom-up (see `DESIGN.md` for the full
//! inventory):
//!
//! * [`zq`] — modular arithmetic over NTT-friendly primes.
//! * [`bigfix`] — high-precision fixed point (Gaussian probabilities).
//! * [`ntt`] — negacyclic NTT engine (reference / packed / parallel),
//!   plus schoolbook and Karatsuba baselines.
//! * [`sampler`] — Knuth-Yao discrete Gaussian sampling with the paper's
//!   full optimisation ladder, CDT/rejection baselines, a constant-time
//!   variant, and FIPS 140-2 randomness tests.
//! * [`scheme`] — the ring-LWE public-key encryption scheme itself, plus
//!   KEM ([`scheme::kem`]), CCA ([`scheme::fo`]) extensions and the
//!   seed-deterministic DRBG ([`scheme::drbg`]).
//! * [`hash`] — SHA-256 / HMAC / KDF2 substrate for the ECC baseline and
//!   the engine's session framing.
//! * [`ecc`] — GF(2²³³)/K-233 ECIES baseline the paper compares against.
//! * [`m4sim`] — Cortex-M4F cost model that regenerates the paper's
//!   cycle-count tables.
//! * [`engine`] — the throughput layer: context pooling, batched
//!   multi-threaded scheme operations with deterministic per-item
//!   seeding, authenticated session streams (one KEM handshake, then
//!   symmetric frames), and live metrics. This is the serving-scale
//!   counterpart to the paper's single-operation focus; see `DESIGN.md`
//!   §Engine for the threading model and wire format.
//! * [`leakage`] — the constant-time regression harness: a dudect-style
//!   Welch t-test over `decapsulate_cca` plus the deterministic
//!   operation-count checks that gate CI (see `DESIGN.md` §5).
//! * [`obs`] — unified observability: a metrics registry every layer
//!   reports into (pool, NTT dispatch, batches, sessions, samplers,
//!   KEM latencies), RAII span tracing of the pipeline phases, and
//!   Prometheus/JSON exporters — `rlwe_suite::obs::render()` is a
//!   ready-to-serve metrics endpoint body (see `DESIGN.md` §8).
//! * [`server`] — the TCP serving front-end: a std-only
//!   thread-per-core acceptor/worker architecture over sharded bounded
//!   queues with typed `Busy` backpressure, a length-prefixed protocol
//!   multiplexing the engine's authenticated sessions and raw KEM/PKE
//!   ops, env-driven [`server::ServerConfig`], graceful drain-and-join
//!   shutdown, and a same-port `GET /metrics` endpoint serving
//!   [`obs::render`] verbatim (see `DESIGN.md` §9 and
//!   `examples/serve.rs`).
//!
//! # Quickstart
//!
//! Contexts are configured through the builder: pick a parameter set, an
//! NTT backend (the reference transform or runtime-detected AVX2 with a
//! scalar fallback — bit-identical) and a sampler rung, then encrypt.
//! Keys and ciphertexts store typed [`scheme::Poly`]`<`[`scheme::Ntt`]`>`
//! polynomials, so the coefficient-domain/NTT-domain distinction is
//! checked by the compiler.
//!
//! ```
//! use rlwe_suite::scheme::{NttBackend, ParamSet, RlweContext, SamplerKind};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = RlweContext::builder(ParamSet::P1)
//!     .ntt_backend(NttBackend::Avx2)   // backend choice is API, not module-picking
//!     .sampler(SamplerKind::Lut)
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (pk, sk) = ctx.generate_keypair(&mut rng)?;
//! let msg = vec![0xA5u8; ctx.params().message_bytes()];
//! let ct = ctx.encrypt(&pk, &msg, &mut rng)?;
//! assert_eq!(ctx.decrypt(&sk, &ct)?, msg);
//! # Ok(())
//! # }
//! ```
//!
//! Hot loops should use the allocation-free `_into` siblings with a
//! caller-owned scratch arena (one per worker thread):
//!
//! ```
//! use rlwe_suite::scheme::{ParamSet, RlweContext};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = RlweContext::new(ParamSet::P1)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(11);
//! let (pk, sk) = ctx.generate_keypair(&mut rng)?;
//! let mut scratch = ctx.new_scratch();      // reusable working polynomials
//! let mut ct = ctx.empty_ciphertext();      // reusable output storage
//! let mut plain = Vec::new();
//! for round in 0u8..4 {
//!     let msg = vec![round; ctx.params().message_bytes()];
//!     // After the first round these calls allocate no polynomials at all.
//!     ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)?;
//!     ctx.decrypt_into(&sk, &ct, &mut plain, &mut scratch)?;
//!     assert_eq!(plain, msg);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Serving at scale
//!
//! ```
//! use rlwe_suite::engine::Engine;
//! use rlwe_suite::scheme::ParamSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Contexts are pooled: constructing a second engine for the same
//! // parameter set reuses the NTT plans and sampler tables.
//! let engine = Engine::new(ParamSet::P1)?;
//! let (pk, _sk) = engine.generate_keypair(&[7u8; 32])?;
//! let msgs: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 32]).collect();
//! // Deterministic under the master seed, parallel across workers.
//! let cts = engine.encrypt_batch(&pk, &msgs, &[42u8; 32]);
//! assert!(cts.iter().all(|c| c.is_ok()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use rlwe_bigfix as bigfix;
pub use rlwe_core as scheme;
pub use rlwe_ecc as ecc;
pub use rlwe_engine as engine;
pub use rlwe_hash as hash;
pub use rlwe_leakage as leakage;
pub use rlwe_m4sim as m4sim;
pub use rlwe_ntt as ntt;
pub use rlwe_obs as obs;
pub use rlwe_sampler as sampler;
pub use rlwe_server as server;
pub use rlwe_zq as zq;
