//! # rlwe-engine
//!
//! A throughput-oriented serving layer over `rlwe-core`: where the DATE
//! 2015 paper optimises one operation's latency, this crate amortises
//! setup across millions of operations and saturates every core.
//!
//! Four pieces (see `DESIGN.md` §Engine for the full rationale):
//!
//! * [`ContextPool`] — caches [`rlwe_core::RlweContext`] (NTT plans +
//!   Knuth-Yao tables) per parameter set behind [`std::sync::Arc`]; a
//!   million requests pay table construction once.
//! * [`batch`] — `encrypt_batch` / `decrypt_batch` / `encap_batch` /
//!   `decap_batch` fan items across a fixed worker pool with
//!   [`std::thread::scope`]. Item `i` draws randomness from
//!   `HashDrbg::for_stream(master_seed, i)`, so batched output is
//!   **bit-identical** to the sequential loop — worker count and
//!   scheduling cannot change a single ciphertext bit.
//! * [`session`] — one KEM handshake, then authenticated symmetric
//!   framing (KDF2 keystream + HMAC-SHA256) for arbitrary-length
//!   payloads: the "millions of users" workload where lattice math is
//!   per-session, not per-message.
//! * [`metrics`] — lock-free counters and fixed-bucket latency
//!   histograms with an `m4sim`-style text report. Every cell also
//!   mirrors into the process-wide `rlwe-obs` registry (labelled by
//!   `param_set`), so `rlwe_obs::render()` exports pool, batch and
//!   session metrics in Prometheus exposition format.
//!
//! # Example
//!
//! ```
//! use rlwe_engine::Engine;
//! use rlwe_core::ParamSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::builder(ParamSet::P1).workers(4).build()?;
//! let (pk, sk) = engine.generate_keypair(&[1u8; 32])?;
//! let msgs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 32]).collect();
//! let cts = engine.encrypt_batch(&pk, &msgs, &[2u8; 32]);
//! let ok = cts.iter().filter(|c| c.is_ok()).count();
//! assert_eq!(ok, 64);
//! println!("{}", engine.report());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod metrics;
pub mod pool;
pub mod session;

pub use batch::{
    decap_batch, decap_cca_batch, decrypt_batch, decrypt_batch_into, default_workers, encap_batch,
    encap_cca_batch, encrypt_batch, encrypt_batch_into, fan_out, fan_out_into, fan_out_with,
};
pub use metrics::{EngineMetrics, MetricsReport};
pub use pool::{global as global_pool, ContextConfig, ContextPool};
pub use session::{Role, Session, SessionError, StreamReceiver, StreamSender};

use rand::RngCore;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::kem::SharedSecret;
use rlwe_core::{
    Ciphertext, NttBackend, ParamSet, PublicKey, RlweContext, RlweError, SamplerKind, SecretKey,
};
use std::sync::Arc;
use std::time::Instant;

/// Configures an [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    set: ParamSet,
    config: ContextConfig,
    workers: Option<usize>,
    private_pool: bool,
}

impl EngineBuilder {
    /// Worker-thread count for batch calls (default:
    /// [`default_workers`]).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Use a private context pool instead of the process-wide one
    /// (useful for tests and eviction control).
    pub fn private_pool(mut self) -> Self {
        self.private_pool = true;
        self
    }

    /// Selects the sampler rung for this engine's pooled context —
    /// [`SamplerKind::CtCdt`] makes every error-sampling operation
    /// (key generation, encryption, CCA re-encryption during
    /// decapsulation) constant-operation-count.
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.config.sampler = sampler;
        self
    }

    /// Selects the NTT backend for this engine's pooled context.
    pub fn ntt_backend(mut self, backend: NttBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Selects both context knobs at once (see [`ContextConfig`]).
    pub fn context_config(mut self, config: ContextConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the engine, constructing the context on first use of its
    /// `(parameter set, config)` pair.
    ///
    /// # Errors
    ///
    /// Propagates context construction failures (cannot happen for the
    /// named parameter sets under the default config).
    pub fn build(self) -> Result<Engine, RlweError> {
        let ctx = if self.private_pool {
            ContextPool::new().get_with(self.set, self.config)?
        } else {
            pool::global().get_with(self.set, self.config)?
        };
        let metrics = Arc::new(EngineMetrics::for_params(&ctx.params().obs_label()));
        Ok(Engine {
            ctx,
            workers: self.workers.unwrap_or_else(default_workers),
            metrics,
        })
    }
}

/// A batched, multi-threaded KEM/encryption engine bound to one
/// parameter set.
///
/// Construction is cheap when the parameter set is already pooled; the
/// engine itself is `Send + Sync` and can be shared behind an `Arc` by
/// any number of request handlers.
pub struct Engine {
    ctx: Arc<RlweContext>,
    workers: usize,
    metrics: Arc<EngineMetrics>,
}

impl Engine {
    /// An engine with default worker count using the global pool.
    ///
    /// # Errors
    ///
    /// See [`EngineBuilder::build`].
    pub fn new(set: ParamSet) -> Result<Self, RlweError> {
        Self::builder(set).build()
    }

    /// Starts configuring an engine.
    pub fn builder(set: ParamSet) -> EngineBuilder {
        EngineBuilder {
            set,
            config: ContextConfig::default(),
            workers: None,
            private_pool: false,
        }
    }

    /// The shared context (cheap `Arc` clone to hand elsewhere).
    pub fn context(&self) -> &Arc<RlweContext> {
        &self.ctx
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// A point-in-time metrics report.
    pub fn report(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Deterministic key generation from a 32-byte seed.
    ///
    /// # Errors
    ///
    /// Propagates [`RlweContext::generate_keypair`] failures.
    pub fn generate_keypair(&self, seed: &[u8; 32]) -> Result<(PublicKey, SecretKey), RlweError> {
        let mut rng = HashDrbg::new(*seed);
        self.ctx.generate_keypair(&mut rng)
    }

    /// Batched encryption; see [`batch::encrypt_batch`].
    pub fn encrypt_batch(
        &self,
        pk: &PublicKey,
        msgs: &[impl AsRef<[u8]> + Sync],
        master_seed: &[u8; 32],
    ) -> Vec<Result<Ciphertext, RlweError>> {
        let start = Instant::now();
        self.metrics.batch_begin(msgs.len(), self.workers);
        let out = encrypt_batch(&self.ctx, pk, msgs, master_seed, self.workers);
        self.record(&self.metrics.encrypt, &out, start);
        out
    }

    /// Allocation-free batched encryption; see [`batch::encrypt_batch_into`].
    /// Ciphertext `i` lands in `out[i]`; after the first batch on the same
    /// buffers the workers allocate no polynomials at all.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] if `out.len() != msgs.len()`.
    pub fn encrypt_batch_into(
        &self,
        pk: &PublicKey,
        msgs: &[impl AsRef<[u8]> + Sync],
        master_seed: &[u8; 32],
        out: &mut [Ciphertext],
    ) -> Result<Vec<Result<(), RlweError>>, RlweError> {
        let start = Instant::now();
        self.metrics.batch_begin(msgs.len(), self.workers);
        match encrypt_batch_into(&self.ctx, pk, msgs, master_seed, self.workers, out) {
            Ok(statuses) => {
                self.record(&self.metrics.encrypt, &statuses, start);
                Ok(statuses)
            }
            Err(e) => {
                self.metrics.batch_end(msgs.len());
                Err(e)
            }
        }
    }

    /// Allocation-free batched decryption; see [`batch::decrypt_batch_into`].
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] if `out.len() != cts.len()`.
    pub fn decrypt_batch_into(
        &self,
        sk: &SecretKey,
        cts: &[Ciphertext],
        out: &mut [Vec<u8>],
    ) -> Result<Vec<Result<(), RlweError>>, RlweError> {
        let start = Instant::now();
        self.metrics.batch_begin(cts.len(), self.workers);
        // ct-allow(pool lookup fails on unknown parameter sets, a public property)
        match decrypt_batch_into(&self.ctx, sk, cts, self.workers, out) {
            Ok(statuses) => {
                self.record(&self.metrics.decrypt, &statuses, start);
                Ok(statuses)
            }
            Err(e) => {
                self.metrics.batch_end(cts.len());
                Err(e)
            }
        }
    }

    /// Batched decryption; see [`batch::decrypt_batch`].
    pub fn decrypt_batch(
        &self,
        sk: &SecretKey,
        cts: &[Ciphertext],
    ) -> Vec<Result<Vec<u8>, RlweError>> {
        let start = Instant::now();
        self.metrics.batch_begin(cts.len(), self.workers);
        let out = decrypt_batch(&self.ctx, sk, cts, self.workers);
        self.record(&self.metrics.decrypt, &out, start);
        out
    }

    /// Batched encapsulation; see [`batch::encap_batch`].
    pub fn encap_batch(
        &self,
        pk: &PublicKey,
        count: usize,
        master_seed: &[u8; 32],
    ) -> Vec<Result<(Ciphertext, SharedSecret), RlweError>> {
        let start = Instant::now();
        self.metrics.batch_begin(count, self.workers);
        let out = encap_batch(&self.ctx, pk, count, master_seed, self.workers);
        self.record(&self.metrics.encap, &out, start);
        out
    }

    /// Batched decapsulation; see [`batch::decap_batch`].
    pub fn decap_batch(
        &self,
        sk: &SecretKey,
        cts: &[Ciphertext],
    ) -> Vec<Result<SharedSecret, RlweError>> {
        let start = Instant::now();
        self.metrics.batch_begin(cts.len(), self.workers);
        let out = decap_batch(&self.ctx, sk, cts, self.workers);
        self.record(&self.metrics.decap, &out, start);
        out
    }

    /// Batched CCA (FO-transform) encapsulation; see
    /// [`batch::encap_cca_batch`].
    pub fn encap_cca_batch(
        &self,
        pk: &PublicKey,
        count: usize,
        master_seed: &[u8; 32],
    ) -> Vec<Result<(Ciphertext, SharedSecret), RlweError>> {
        let start = Instant::now();
        self.metrics.batch_begin(count, self.workers);
        let out = encap_cca_batch(&self.ctx, pk, count, master_seed, self.workers);
        self.record(&self.metrics.encap, &out, start);
        out
    }

    /// Batched CCA (FO-transform) decapsulation with implicit rejection,
    /// through the branch-free constant-time path; see
    /// [`batch::decap_cca_batch`]. This — on an engine built with
    /// [`EngineBuilder::sampler`]`(SamplerKind::CtCdt)` — is the
    /// attacker-facing serving configuration.
    pub fn decap_cca_batch(
        &self,
        sk: &SecretKey,
        pk: &PublicKey,
        cts: &[Ciphertext],
    ) -> Vec<Result<SharedSecret, RlweError>> {
        let start = Instant::now();
        self.metrics.batch_begin(cts.len(), self.workers);
        let out = decap_cca_batch(&self.ctx, sk, pk, cts, self.workers);
        self.record(&self.metrics.decap, &out, start);
        out
    }

    /// Opens a session toward a responder's public key; returns the
    /// session and the handshake message to deliver.
    ///
    /// # Errors
    ///
    /// See [`Session::initiate`].
    pub fn initiate_session<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Result<(Session, Vec<u8>), SessionError> {
        let out =
            Session::initiate_with_metrics(&self.ctx, pk, rng, Some(Arc::clone(&self.metrics)));
        match &out {
            Ok(_) => self.metrics.handshakes_initiated.inc(),
            Err(_) => self.metrics.handshake_failures.inc(),
        }
        out
    }

    /// Accepts an initiator's handshake message.
    ///
    /// # Errors
    ///
    /// See [`Session::accept`]; in particular
    /// [`SessionError::HandshakeFailed`] is the retryable ~1% KEM
    /// decryption-failure case.
    pub fn accept_session(&self, sk: &SecretKey, hello: &[u8]) -> Result<Session, SessionError> {
        let out =
            Session::accept_with_metrics(&self.ctx, sk, hello, Some(Arc::clone(&self.metrics)));
        // ct-allow(handshake accept/reject is the wire-visible protocol verdict)
        match &out {
            Ok(_) => self.metrics.handshakes_accepted.inc(),
            Err(_) => self.metrics.handshake_failures.inc(),
        }
        out
    }

    /// Counts one finished batch: ok/failed item tallies, the batch
    /// latency sample, and the queue-depth drop matching the
    /// `batch_begin` issued when the batch entered.
    fn record<T, E>(&self, op: &metrics::OpMetrics, results: &[Result<T, E>], start: Instant) {
        let failed = results.iter().filter(|r| r.is_err()).count() as u64;
        op.ok.add(results.len() as u64 - failed);
        op.failed.add(failed);
        op.batch_latency.record(start.elapsed());
        self.metrics.batch_end(results.len());
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("params", self.ctx.params())
            .field("workers", &self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_records_metrics_for_batches() {
        let engine = Engine::builder(ParamSet::P1).workers(2).build().unwrap();
        let (pk, sk) = engine.generate_keypair(&[8u8; 32]).unwrap();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 32]).collect();
        let cts: Vec<_> = engine
            .encrypt_batch(&pk, &msgs, &[9u8; 32])
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let _ = engine.decrypt_batch(&sk, &cts);
        let report = engine.report();
        let enc = &report.ops[0];
        assert_eq!((enc.name, enc.ok, enc.failed), ("encrypt", 6, 0));
        assert_eq!(enc.latency.samples, 1);
        let dec = &report.ops[1];
        assert_eq!((dec.name, dec.ok), ("decrypt", 6));
    }

    #[test]
    fn failed_items_are_counted_as_failures() {
        let engine = Engine::builder(ParamSet::P1).workers(2).build().unwrap();
        let (pk, _) = engine.generate_keypair(&[8u8; 32]).unwrap();
        let msgs: Vec<Vec<u8>> = vec![vec![0u8; 32], vec![0u8; 5]];
        let out = engine.encrypt_batch(&pk, &msgs, &[9u8; 32]);
        assert!(out[0].is_ok() && out[1].is_err());
        let report = engine.report();
        assert_eq!(report.ops[0].ok, 1);
        assert_eq!(report.ops[0].failed, 1);
    }

    #[test]
    fn sessions_through_the_engine_count_frames() {
        let engine = Engine::new(ParamSet::P1).unwrap();
        let (pk, sk) = engine.generate_keypair(&[3u8; 32]).unwrap();
        // Retry the handshake over independent DRBG streams on the
        // documented ~1% KEM failure.
        let (alice, bob) = (0..8u64)
            .find_map(|attempt| {
                let mut rng = HashDrbg::for_stream(&[4u8; 32], attempt);
                let (a, hello) = engine.initiate_session(&pk, &mut rng).unwrap();
                match engine.accept_session(&sk, &hello) {
                    Ok(b) => Some((a, b)),
                    Err(SessionError::HandshakeFailed) => None,
                    Err(e) => panic!("unexpected: {e}"),
                }
            })
            .expect("eight consecutive KEM failures");
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let frame = tx.seal(b"metered");
        rx.open(&frame).unwrap();
        let mut bad = tx.seal(b"tampered");
        bad[HEADER_PROBE] ^= 1;
        assert!(rx.open(&bad).is_err());
        let report = engine.report();
        assert_eq!(report.frames_sealed, 2);
        assert_eq!(report.frames_opened, 1);
        assert_eq!(report.frames_rejected, 1);
    }

    /// Index well inside the sealed body for tamper tests.
    const HEADER_PROBE: usize = 14;

    #[test]
    fn constant_time_engines_pool_the_ct_rung() {
        let a = Engine::builder(ParamSet::P1)
            .sampler(SamplerKind::CtCdt)
            .build()
            .unwrap();
        let b = Engine::builder(ParamSet::P1)
            .context_config(ContextConfig::constant_time())
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(a.context(), b.context()));
        assert_eq!(a.context().sampler_kind(), SamplerKind::CtCdt);
        // The default-config engine keeps its own (variable-time) context.
        let c = Engine::new(ParamSet::P1).unwrap();
        assert!(!Arc::ptr_eq(a.context(), c.context()));
        // The CT rung serves real hostile-input traffic: the CCA batch
        // path (branch-free FO decapsulation + CT sampling) round-trips.
        let (pk, sk) = a.generate_keypair(&[21u8; 32]).unwrap();
        let out = a.encap_cca_batch(&pk, 8, &[22u8; 32]);
        let (cts, secrets): (Vec<_>, Vec<_>) = out.into_iter().map(|r| r.unwrap()).unzip();
        let decapped = a.decap_cca_batch(&sk, &pk, &cts);
        let agree = decapped
            .iter()
            .zip(&secrets)
            .filter(|(got, want)| got.as_ref().unwrap() == *want)
            .count();
        assert!(agree >= 6, "only {agree}/8 secrets agreed");
    }

    #[test]
    fn global_render_exposes_the_stack_metrics() {
        // Drive the whole serving stack once, then check the global
        // registry export names every layer's series. Presence checks
        // only: other tests in this process write the same global
        // series concurrently, so exact counts belong to the per-engine
        // cells (tested above), not the aggregated export.
        let engine = Engine::builder(ParamSet::P1).workers(2).build().unwrap();
        let (pk, sk) = engine.generate_keypair(&[31u8; 32]).unwrap();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 32]).collect();
        let cts: Vec<_> = engine
            .encrypt_batch(&pk, &msgs, &[32u8; 32])
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let _ = engine.decrypt_batch(&sk, &cts);
        let _ = engine.encap_batch(&pk, 2, &[33u8; 32]);
        let mut rng = HashDrbg::new([34u8; 32]);
        let _ = engine.initiate_session(&pk, &mut rng);
        let text = rlwe_obs::render();
        for name in [
            "rlwe_pool_hits_total",
            "rlwe_pool_misses_total",
            "rlwe_pool_build_ns",
            "rlwe_ntt_dispatch_total",
            "rlwe_batch_items_total",
            "rlwe_batch_failures_total",
            "rlwe_batch_latency_ns",
            "rlwe_batch_queue_depth",
            "rlwe_batch_items_per_worker",
            "rlwe_session_frames_sealed_total",
            "rlwe_session_handshakes_total",
            "rlwe_sampler_draws_total",
            "rlwe_kem_op_ns",
        ] {
            assert!(text.contains(name), "render() missing {name}:\n{text}");
        }
        // The label dimensions the issue pins.
        assert!(text.contains("param_set=\"P1\""));
        assert!(text.contains("reducer_kind=\"q7681\""));
    }

    #[test]
    fn engines_share_pooled_contexts() {
        let a = Engine::new(ParamSet::P1).unwrap();
        let b = Engine::new(ParamSet::P1).unwrap();
        assert!(Arc::ptr_eq(a.context(), b.context()));
        let c = Engine::builder(ParamSet::P1)
            .private_pool()
            .build()
            .unwrap();
        assert!(!Arc::ptr_eq(a.context(), c.context()));
    }
}
