//! The [`RlweContext`]: key generation, encryption, decryption.
//!
//! Two API generations coexist here:
//!
//! * The **allocating** entry points ([`RlweContext::encrypt`],
//!   [`RlweContext::decrypt`], [`RlweContext::generate_keypair`]) — the
//!   original per-call surface, convenient for one-off use.
//! * The **`_into` siblings** ([`RlweContext::encrypt_into`],
//!   [`RlweContext::decrypt_into`], [`RlweContext::generate_keypair_into`])
//!   — allocation-free after warm-up: every working polynomial comes from a
//!   caller-provided [`PolyScratch`] arena and the outputs reuse the
//!   storage already inside the destination objects. The engine's batch
//!   workers (one scratch per thread) run exclusively on these.
//!
//! Construction goes through [`RlweContextBuilder`], which also selects the
//! NTT backend ([`NttBackend`]) and the Knuth-Yao sampler variant
//! ([`SamplerKind`]) — backend choice is API now, not module-picking, and
//! every backend produces bit-identical transforms (the cross-backend
//! equivalence tests in `rlwe-ntt` enforce it).

use rand::RngCore;
use rlwe_ntt::{parallel, pointwise, AnyNttPlan, NttPlan, PolyScratch};
use rlwe_sampler::ct::CtCdtSampler;
use rlwe_sampler::random::{BitSource, BufferedBitSource, WordSource};
use rlwe_sampler::{KnuthYao, ProbabilityMatrix};
use rlwe_zq::{Reducer, ReducerKind};

use crate::encode::{decode_message_into, encode_message_add_assign};
use crate::keys::{Ciphertext, PublicKey, SecretKey};
use crate::params::{ParamSet, Params};
use crate::poly::{Ntt, Poly};
use crate::RlweError;

/// Adapter turning any [`rand::RngCore`] into the sampler's word source.
struct RngWords<'a, R: ?Sized>(&'a mut R);

impl<R: RngCore + ?Sized> WordSource for RngWords<'_, R> {
    fn next_word(&mut self) -> u32 {
        self.0.next_u32()
    }

    /// Bulk override feeding `BufferedBitSource::buffered`'s block
    /// refill: one `fill_bytes` per 16-word chunk (64 bytes — two
    /// SHA-256 DRBG output blocks), byte-stream identical to repeated
    /// `next_u32` calls.
    fn fill_words(&mut self, out: &mut [u32]) {
        let mut buf = [0u8; 64];
        for chunk in out.chunks_mut(16) {
            let bytes = &mut buf[..4 * chunk.len()];
            self.0.fill_bytes(bytes);
            for (w, b) in chunk.iter_mut().zip(bytes.chunks_exact(4)) {
                *w = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
            }
        }
    }
}

/// Which NTT implementation the context routes transforms through.
///
/// Both are bit-for-bit equivalent (see `crates/ntt/tests/avx2.rs`); they
/// differ only in speed per platform. The paper's §III-D packed layout
/// ([`rlwe_ntt::packed`], [`rlwe_ntt::parallel::forward3_packed`]) is kept
/// as a kernel with its own tests and bench, not as a context option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum NttBackend {
    /// The scalar in-place reference transform ([`NttPlan::forward`]) —
    /// the ground truth every other path is tested against.
    #[default]
    Reference,
    /// Eight 32-bit lanes per AVX2 vector ([`rlwe_ntt::avx2`]). Selects
    /// the explicit `std::arch` kernels when the host supports AVX2
    /// (runtime-detected at plan construction) and falls back to the
    /// bit-identical scalar reference transform otherwise, so the
    /// backend is safe to configure unconditionally.
    Avx2,
}

impl NttBackend {
    /// Stable lowercase identifier for the `ntt_backend` metric label.
    pub fn label(self) -> &'static str {
        match self {
            NttBackend::Reference => "reference",
            NttBackend::Avx2 => "avx2",
        }
    }
}

/// Which sampler rung draws the error polynomials. All rungs sample the
/// *same* distribution exactly; they trade table memory and speed against
/// leakage (and consume random bits differently, so ciphertexts differ
/// across kinds for the same seed).
///
/// The Knuth-Yao rungs ([`SamplerKind::Basic`], [`SamplerKind::Lut1`],
/// [`SamplerKind::Lut`]) are **variable-time**: the DDG walk length — and
/// therefore the number of random bits consumed — depends on the sampled
/// value. [`SamplerKind::CtCdt`] is the constant-operation-count CDT
/// sampler ([`CtCdtSampler`]): exactly 129 bit draws and one full-table
/// scan per sample, regardless of the value. Choose it for any context
/// that processes attacker-supplied inputs (CCA decapsulation servers);
/// the variable-time rungs stay available for throughput work on trusted
/// inputs (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SamplerKind {
    /// The bit-by-bit DDG random walk (`sample_basic`).
    Basic,
    /// One 8-bit lookup, walk on miss (`sample_lut1`).
    Lut1,
    /// Two-level lookup — the paper's fastest variant (`sample_lut`).
    #[default]
    Lut,
    /// Constant-operation-count CDT inversion ([`CtCdtSampler`]): fixed
    /// bit draws and comparison count per sample, branchless accumulation.
    CtCdt,
}

impl SamplerKind {
    /// Stable lowercase identifier for the `sampler_kind` metric label.
    pub fn label(self) -> &'static str {
        match self {
            SamplerKind::Basic => "basic",
            SamplerKind::Lut1 => "lut1",
            SamplerKind::Lut => "lut",
            SamplerKind::CtCdt => "ct_cdt",
        }
    }
}

/// Which sampler kernel a rung's polynomial fills run on, as a stable
/// metric-label string. Only the constant-time CDT rung has a vector
/// backend (the 8-lane AVX2 table scan in `rlwe_sampler::avx2`); the
/// Knuth-Yao rungs batch their LUT probes lane-wise but execute scalar
/// code, so they report `scalar`.
fn sampler_backend_label(sampler: SamplerKind) -> &'static str {
    match sampler {
        SamplerKind::CtCdt if rlwe_sampler::avx2::available() => "avx2",
        _ => "scalar",
    }
}

/// Observability handles a context resolves **once at construction**
/// and records through on the hot paths (one relaxed atomic op per
/// event, no registry lookups). Every label is public data — parameter
/// set, reducer kind, backend, sampler rung — never key or message
/// material, and recording never branches on secret values, so the
/// `crates/leakage` invariance gates hold with tracing enabled.
#[derive(Debug, Clone)]
pub(crate) struct ObsHooks {
    /// `rlwe_sampler_draws_total{param_set, sampler_kind}`.
    pub sampler_draws: rlwe_obs::Counter,
    /// `rlwe_sampler_dispatch_total{param_set, sampler_kind, sampler_backend}`
    /// — one increment per polynomial-sized sampling dispatch, labelled
    /// with the kernel that actually ran (`avx2` vs `scalar`).
    pub sampler_dispatch: rlwe_obs::Counter,
    /// `rlwe_kem_op_ns{op, param_set, reducer_kind, ntt_backend}`.
    pub encap_ns: rlwe_obs::Histogram,
    /// As above, `op="decap"`.
    pub decap_ns: rlwe_obs::Histogram,
    /// As above, `op="encap_cca"`.
    pub encap_cca_ns: rlwe_obs::Histogram,
    /// As above, `op="decap_cca"`.
    pub decap_cca_ns: rlwe_obs::Histogram,
    /// Pipeline-phase spans: encrypt sample → encode → NTT → pointwise.
    pub sp_enc_sample: rlwe_obs::SpanId,
    /// Encrypt message-encode phase.
    pub sp_enc_encode: rlwe_obs::SpanId,
    /// Encrypt fused triple forward NTT phase.
    pub sp_enc_ntt: rlwe_obs::SpanId,
    /// Encrypt pointwise multiply-add phase.
    pub sp_enc_pointwise: rlwe_obs::SpanId,
    /// Decrypt pointwise multiply-add phase.
    pub sp_dec_pointwise: rlwe_obs::SpanId,
    /// Decrypt inverse NTT phase.
    pub sp_dec_ntt: rlwe_obs::SpanId,
    /// Decrypt threshold-decode phase.
    pub sp_dec_decode: rlwe_obs::SpanId,
}

impl ObsHooks {
    fn resolve(
        params: &Params,
        kind: ReducerKind,
        backend: NttBackend,
        sampler: SamplerKind,
    ) -> Self {
        let reg = rlwe_obs::global();
        let set = params.obs_label();
        let kem = |op: &str| {
            reg.histogram(
                "rlwe_kem_op_ns",
                "KEM operation wall-clock latency by operation kind.",
                &[
                    ("op", op),
                    ("param_set", &set),
                    ("reducer_kind", kind.label()),
                    ("ntt_backend", backend.label()),
                ],
            )
        };
        Self {
            sampler_draws: reg.counter(
                "rlwe_sampler_draws_total",
                "Error-polynomial coefficients drawn through the sampler rung.",
                &[("param_set", &set), ("sampler_kind", sampler.label())],
            ),
            sampler_dispatch: reg.counter(
                "rlwe_sampler_dispatch_total",
                "Polynomial sampling dispatches by the kernel that ran.",
                &[
                    ("param_set", &set),
                    ("sampler_kind", sampler.label()),
                    ("sampler_backend", sampler_backend_label(sampler)),
                ],
            ),
            encap_ns: kem("encap"),
            decap_ns: kem("decap"),
            encap_cca_ns: kem("encap_cca"),
            decap_cca_ns: kem("decap_cca"),
            sp_enc_sample: rlwe_obs::SpanId::register("encrypt.sample"),
            sp_enc_encode: rlwe_obs::SpanId::register("encrypt.encode"),
            sp_enc_ntt: rlwe_obs::SpanId::register("encrypt.ntt"),
            sp_enc_pointwise: rlwe_obs::SpanId::register("encrypt.pointwise"),
            sp_dec_pointwise: rlwe_obs::SpanId::register("decrypt.pointwise"),
            sp_dec_ntt: rlwe_obs::SpanId::register("decrypt.ntt"),
            sp_dec_decode: rlwe_obs::SpanId::register("decrypt.decode"),
        }
    }
}

/// Which modular-reduction instantiation the context's kernels run on.
///
/// The default, [`ReducerPreference::Auto`], dispatches on the modulus
/// once at construction: `q = 7681` and `q = 12289` (the paper's P1/P2
/// primes) get the fully monomorphized special-prime reducers
/// ([`rlwe_zq::reduce::Q7681`] / [`rlwe_zq::reduce::Q12289`]), every
/// other prime the runtime-Barrett fallback. All instantiations are
/// bit-identical; [`ReducerPreference::Generic`] forces the fallback
/// even for the paper's primes — the ablation/bench knob, not something
/// a server wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ReducerPreference {
    /// Specialize when the modulus is one of the paper's primes.
    #[default]
    Auto,
    /// Always use the runtime-Barrett reducer.
    Generic,
}

/// Configures and builds an [`RlweContext`].
///
/// # Example
///
/// ```
/// use rlwe_core::{NttBackend, ParamSet, RlweContext, SamplerKind};
///
/// # fn main() -> Result<(), rlwe_core::RlweError> {
/// let ctx = RlweContext::builder(ParamSet::P1)
///     .ntt_backend(NttBackend::Avx2)
///     .sampler(SamplerKind::Lut)
///     .build()?;
/// assert_eq!(ctx.backend(), NttBackend::Avx2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RlweContextBuilder {
    params: Params,
    backend: NttBackend,
    sampler: SamplerKind,
    reducer: ReducerPreference,
}

impl RlweContextBuilder {
    /// Starts from a named parameter set.
    pub fn new(set: ParamSet) -> Self {
        Self::with_params(set.params())
    }

    /// Starts from custom parameters.
    pub fn with_params(params: Params) -> Self {
        Self {
            params,
            backend: NttBackend::default(),
            sampler: SamplerKind::default(),
            reducer: ReducerPreference::default(),
        }
    }

    /// Selects the NTT backend (default: [`NttBackend::Reference`]).
    pub fn ntt_backend(mut self, backend: NttBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the Knuth-Yao sampler variant (default: [`SamplerKind::Lut`]).
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Selects the reducer instantiation (default:
    /// [`ReducerPreference::Auto`] — specialize for the paper's primes).
    /// [`ReducerPreference::Generic`] exists for ablation benches and
    /// bit-identity tests.
    pub fn reducer_preference(mut self, reducer: ReducerPreference) -> Self {
        self.reducer = reducer;
        self
    }

    /// Builds the context.
    ///
    /// # Errors
    ///
    /// * [`RlweError::Ntt`] if `q` is not an NTT-friendly prime for `n`.
    /// * [`RlweError::Sampler`] if the Gaussian tables cannot meet the
    ///   2⁻⁹⁰ statistical-distance bound.
    pub fn build(self) -> Result<RlweContext, RlweError> {
        let plan = NttPlan::new(self.params.n(), self.params.q())?;
        // Dispatch the reducer instantiation exactly once, here: every
        // hot path below routes through `dispatch`, so the P1/P2 kernels
        // run fully monomorphized with compile-time constants. The
        // generic `plan` is kept alongside for the `plan()` accessor
        // (cost-model and bench consumers) — same twiddles, same
        // outputs, different reduction tail; `promote` moves a clone's
        // tables into the specialized type rather than rebuilding them.
        let dispatch = match self.reducer {
            ReducerPreference::Auto => {
                AnyNttPlan::promote_for_backend(plan.clone(), self.backend.label())
            }
            ReducerPreference::Generic => {
                AnyNttPlan::generic_for_backend(plan.clone(), self.backend.label())
            }
        };
        let spec = self.params.spec();
        let pmat = ProbabilityMatrix::build(spec, spec.paper_rows(), 109)?;
        // The CT sampler inverts the same probability table the Knuth-Yao
        // ladder walks, so the rungs are distribution-identical by
        // construction; it is only built when selected. The KY ladder is
        // built unconditionally even on the CtCdt rung: the public
        // `sampler()` accessor and the m4sim cost model read it, and the
        // one-time table cost is amortized by the engine's context pool.
        let ct = match self.sampler {
            SamplerKind::CtCdt => Some(CtCdtSampler::new(&pmat)),
            _ => None,
        };
        let ky = KnuthYao::new(pmat)?;
        // Observability handles resolve here, once: hot paths below
        // record through them without touching the registry again.
        let obs = ObsHooks::resolve(&self.params, dispatch.kind(), self.backend, self.sampler);
        Ok(RlweContext {
            params: self.params,
            plan,
            dispatch,
            ky,
            ct,
            backend: self.backend,
            sampler: self.sampler,
            obs,
        })
    }
}

/// Runs `$body` with `$p` bound to the context's dispatched, typed
/// [`NttPlan`] — the single point where the reducer instantiation is
/// selected; everything inside `$body` monomorphizes per reducer.
macro_rules! with_dispatch {
    ($self:expr, |$p:ident| $body:expr) => {
        match &$self.dispatch {
            AnyNttPlan::Q7681($p) => $body,
            AnyNttPlan::Q12289($p) => $body,
            AnyNttPlan::Generic($p) => $body,
        }
    };
}

/// Everything needed to run the scheme for one parameter set: the NTT plan
/// (twiddle tables) and the Knuth-Yao sampler (probability matrix + DDG
/// lookup tables).
///
/// Construction is comparatively expensive (it builds 192-bit-precision
/// Gaussian tables); clone or share one context per parameter set.
///
/// # Example
///
/// ```
/// use rlwe_core::{ParamSet, RlweContext};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), rlwe_core::RlweError> {
/// let ctx = RlweContext::new(ParamSet::P2)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(99);
/// let (pk, sk) = ctx.generate_keypair(&mut rng)?;
/// let msg = vec![0x42u8; ctx.params().message_bytes()];
/// let ct = ctx.encrypt(&pk, &msg, &mut rng)?;
/// assert_eq!(ctx.decrypt(&sk, &ct)?, msg);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RlweContext {
    params: Params,
    /// The runtime-Barrett view of the plan (twiddles identical to
    /// `dispatch`'s) — what [`RlweContext::plan`] exposes to the cost
    /// model and benches.
    plan: NttPlan,
    /// The reducer-dispatched plan every scheme operation routes
    /// through; for P1/P2 this holds the monomorphized special-prime
    /// kernels (unless [`ReducerPreference::Generic`] was selected).
    dispatch: AnyNttPlan,
    ky: KnuthYao,
    /// Present exactly when `sampler == SamplerKind::CtCdt`.
    ct: Option<CtCdtSampler>,
    backend: NttBackend,
    sampler: SamplerKind,
    /// Pre-resolved observability handles (see [`ObsHooks`]).
    pub(crate) obs: ObsHooks,
}

impl RlweContext {
    /// Builds a context for a named parameter set with default backend and
    /// sampler.
    ///
    /// # Errors
    ///
    /// Propagates NTT-plan or sampler construction failures (cannot happen
    /// for [`ParamSet::P1`]/[`ParamSet::P2`], which are known-good).
    pub fn new(set: ParamSet) -> Result<Self, RlweError> {
        RlweContextBuilder::new(set).build()
    }

    /// Builds a context for custom parameters with default backend and
    /// sampler.
    ///
    /// # Errors
    ///
    /// See [`RlweContextBuilder::build`].
    pub fn with_params(params: Params) -> Result<Self, RlweError> {
        RlweContextBuilder::with_params(params).build()
    }

    /// Starts configuring a context (parameter set + NTT backend + sampler).
    pub fn builder(set: ParamSet) -> RlweContextBuilder {
        RlweContextBuilder::new(set)
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The NTT plan (exposed for benches and the M4F cost model).
    pub fn plan(&self) -> &NttPlan {
        &self.plan
    }

    /// The Knuth-Yao sampler (exposed for benches and the M4F cost model).
    pub fn sampler(&self) -> &KnuthYao {
        &self.ky
    }

    /// The constant-time CDT sampler — present exactly when the context
    /// was built with [`SamplerKind::CtCdt`] (exposed for the leakage
    /// harness's operation-count checks).
    pub fn ct_sampler(&self) -> Option<&CtCdtSampler> {
        self.ct.as_ref()
    }

    /// The NTT backend this context routes transforms through.
    pub fn backend(&self) -> NttBackend {
        self.backend
    }

    /// Stable label of the configured NTT backend — the value this
    /// context exported on the `ntt_backend` dimension of
    /// `rlwe_ntt_dispatch_total` at construction (surfaced alongside
    /// [`RlweContext::reducer_kind`], which CI pins the same way).
    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    /// Whether the dispatched plan carries AVX2 twiddle tables — i.e.
    /// the host supports AVX2 (runtime-detected once at construction)
    /// and the ring is wide enough for the eight-lane kernels. When
    /// `false`, [`NttBackend::Avx2`] transparently serves the
    /// bit-identical scalar reference transform.
    pub fn has_avx2(&self) -> bool {
        self.dispatch.has_avx2()
    }

    /// Which reducer instantiation the scheme kernels dispatched to —
    /// [`ReducerKind::Q7681`]/[`ReducerKind::Q12289`] for the paper's
    /// parameter sets under [`ReducerPreference::Auto`],
    /// [`ReducerKind::Barrett`] otherwise. CI pins this for P1/P2.
    pub fn reducer_kind(&self) -> ReducerKind {
        self.dispatch.kind()
    }

    /// The sampler variant drawing the error polynomials.
    pub fn sampler_kind(&self) -> SamplerKind {
        self.sampler
    }

    /// Stable label of the sampler kernel polynomial fills dispatch to —
    /// the value this context exports on the `sampler_backend` dimension
    /// of `rlwe_sampler_dispatch_total`. `"avx2"` exactly when the rung
    /// is [`SamplerKind::CtCdt`] and the host has AVX2 (the 8-lane table
    /// scan), `"scalar"` otherwise.
    pub fn sampler_backend(&self) -> &'static str {
        sampler_backend_label(self.sampler)
    }

    /// A fresh scratch arena sized for this context's ring — hand one to
    /// each worker thread that calls the `_into` entry points. Creating an
    /// arena is free; its buffers are allocated lazily on first use.
    pub fn new_scratch(&self) -> PolyScratch {
        PolyScratch::new(self.params.n())
    }

    /// An all-zero ciphertext for this parameter set — the warm-up
    /// destination for [`RlweContext::encrypt_into`].
    pub fn empty_ciphertext(&self) -> Ciphertext {
        let m = *self.plan.modulus();
        let n = self.params.n();
        Ciphertext {
            params: self.params,
            c1_hat: Poly::zeroed(n, m),
            c2_hat: Poly::zeroed(n, m),
        }
    }

    /// An all-zero keypair for this parameter set — the warm-up
    /// destination for [`RlweContext::generate_keypair_into`].
    pub fn empty_keypair(&self) -> (PublicKey, SecretKey) {
        let m = *self.plan.modulus();
        let n = self.params.n();
        (
            PublicKey {
                params: self.params,
                a_hat: Poly::zeroed(n, m),
                p_hat: Poly::zeroed(n, m),
            },
            SecretKey {
                params: self.params,
                r2_hat: Poly::zeroed(n, m),
            },
        )
    }

    // ------------------------------------------------------------------
    // Backend dispatch
    // ------------------------------------------------------------------

    /// Fills `out` with error-polynomial residues through the configured
    /// sampler rung (the default rung delegates to the sampler crate's
    /// own fill loop). Generic over the dispatched reducer, so the
    /// per-coefficient sign application ([`Reducer::signed_residue`])
    /// monomorphizes with compile-time `q` on the specialized plans.
    fn sample_error_into<R: Reducer, B: BitSource>(&self, r: &R, bits: &mut B, out: &mut [u32]) {
        // One relaxed add keyed only by the (public) output length; the
        // draw loop itself is untouched, so the sampler's operation
        // trace — which the leakage gates pin exactly — cannot shift.
        self.obs.sampler_draws.add(out.len() as u64);
        self.obs.sampler_dispatch.add(1);
        match self.sampler {
            SamplerKind::Lut => self.ky.sample_poly_reduced_into(r, bits, out),
            SamplerKind::Basic => {
                for c in out.iter_mut() {
                    *c = self.ky.sample_basic(bits).to_zq_with(r);
                }
            }
            SamplerKind::Lut1 => {
                for c in out.iter_mut() {
                    *c = self.ky.sample_lut1(bits).to_zq_with(r);
                }
            }
            SamplerKind::CtCdt => {
                let ct = self
                    .ct
                    .as_ref()
                    .expect("CtCdt contexts always carry the CT sampler");
                // Block fill: 8-at-a-time through the lane-parallel table
                // scan (AVX2 when the host has it, the bit-identical
                // scalar kernel otherwise), per-sample on the tail.
                ct.sample_poly_into(r, bits, out);
            }
        }
    }

    /// In-place forward NTT through the configured backend, on the
    /// dispatched plan.
    fn ntt_forward<R: Reducer>(&self, plan: &NttPlan<R>, a: &mut [u32]) {
        match self.backend {
            NttBackend::Reference => plan.forward(a),
            NttBackend::Avx2 => plan.forward_avx2(a),
        }
    }

    /// Three forward NTTs — the paper's parallel NTT: one fused loop nest
    /// on the reference backend, three vectorized transforms on AVX2
    /// (twiddle loads are amortized across eight in-register lanes
    /// instead of across the three polynomials, so no fused loop nest is
    /// needed).
    fn ntt_forward3<R: Reducer>(&self, plan: &NttPlan<R>, polys: [&mut [u32]; 3]) {
        match self.backend {
            NttBackend::Reference => parallel::forward3(plan, polys),
            NttBackend::Avx2 => {
                for p in polys {
                    plan.forward_avx2(p);
                }
            }
        }
    }

    /// In-place inverse NTT through the configured backend, on the
    /// dispatched plan.
    fn ntt_inverse<R: Reducer>(&self, plan: &NttPlan<R>, a: &mut [u32]) {
        match self.backend {
            NttBackend::Reference => plan.inverse(a),
            NttBackend::Avx2 => plan.inverse_avx2(a),
        }
    }

    // ------------------------------------------------------------------
    // Sampling
    // ------------------------------------------------------------------

    /// Samples a uniform NTT-domain polynomial (the global `ã`).
    ///
    /// Coefficients are drawn by rejection from `coeff_bits`-bit strings,
    /// so the distribution is exactly uniform over `Z_q`.
    pub fn sample_uniform<R: RngCore + ?Sized>(&self, rng: &mut R) -> Poly<Ntt> {
        let mut poly = Poly::zeroed(self.params.n(), *self.plan.modulus());
        self.sample_uniform_into(rng, poly.as_mut_slice());
        poly
    }

    /// Rejection-samples uniform residues into `out`.
    fn sample_uniform_into<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        let mut bits = BufferedBitSource::buffered(RngWords(rng));
        let q = self.params.q();
        let w = self.params.coeff_bits();
        for c in out.iter_mut() {
            *c = loop {
                let cand = bits.take_bits(w);
                if cand < q {
                    break cand;
                }
            };
        }
    }

    // ------------------------------------------------------------------
    // Key generation
    // ------------------------------------------------------------------

    /// Key generation (§II-A.1) with a caller-supplied global `ã`
    /// (the paper's `KeyGeneration(ã)`; several keypairs may share `ã`).
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if `a_hat` does not match this
    /// context's ring.
    pub fn generate_keypair_with_a_poly<R: RngCore + ?Sized>(
        &self,
        a_hat: Poly<Ntt>,
        rng: &mut R,
    ) -> Result<(PublicKey, SecretKey), RlweError> {
        if a_hat.len() != self.params.n() || a_hat.q() != self.params.q() {
            return Err(RlweError::ParamMismatch);
        }
        let (mut pk, mut sk) = self.empty_keypair();
        pk.a_hat = a_hat;
        let mut scratch = self.new_scratch();
        self.keypair_body(rng, &mut pk, &mut sk, &mut scratch)?;
        Ok((pk, sk))
    }

    /// Key generation with a fresh uniform `ã`.
    ///
    /// # Errors
    ///
    /// See [`RlweContext::generate_keypair_with_a_poly`].
    pub fn generate_keypair<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(PublicKey, SecretKey), RlweError> {
        let a_hat = self.sample_uniform(rng);
        self.generate_keypair_with_a_poly(a_hat, rng)
    }

    /// Allocation-free key generation: samples a fresh `ã` and writes the
    /// keypair into existing storage (start from
    /// [`RlweContext::empty_keypair`]), borrowing working polynomials from
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// [`RlweError::Ntt`] if the scratch arena was built for another ring
    /// dimension.
    pub fn generate_keypair_into<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        pk: &mut PublicKey,
        sk: &mut SecretKey,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        self.check_scratch(scratch)?;
        let n = self.params.n();
        let m = *self.plan.modulus();
        pk.params = self.params;
        sk.params = self.params;
        pk.a_hat.reset(n, m);
        pk.p_hat.reset(n, m);
        sk.r2_hat.reset(n, m);
        self.sample_uniform_into(rng, pk.a_hat.as_mut_slice());
        self.keypair_body(rng, pk, sk, scratch)
    }

    /// Shared tail of key generation: `pk.a_hat` is already populated;
    /// draws `r₁, r₂`, transforms them, and fills `p̃` and the secret key.
    /// Dispatches the reducer once and runs the monomorphized body.
    fn keypair_body<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        pk: &mut PublicKey,
        sk: &mut SecretKey,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        with_dispatch!(self, |p| self.keypair_body_with(p, rng, pk, sk, scratch))
    }

    fn keypair_body_with<RR: Reducer, R: RngCore + ?Sized>(
        &self,
        plan: &NttPlan<RR>,
        rng: &mut R,
        pk: &mut PublicKey,
        sk: &mut SecretKey,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        let mut bits = BufferedBitSource::buffered(RngWords(rng));
        // r₁, r₂ ← X_σ (time domain), then into the NTT domain.
        let mut r1 = scratch.take();
        self.sample_error_into(plan.reducer(), &mut bits, &mut r1);
        self.sample_error_into(plan.reducer(), &mut bits, sk.r2_hat.as_mut_slice());
        self.ntt_forward(plan, &mut r1);
        self.ntt_forward(plan, sk.r2_hat.as_mut_slice());
        // p̃ = r̃₁ − ã ∘ r̃₂.
        let mut ar2 = scratch.take();
        pointwise::mul_into(
            &mut ar2,
            pk.a_hat.as_slice(),
            sk.r2_hat.as_slice(),
            plan.reducer(),
        )?; // ct-allow(keygen pointwise ops fail only on parameter-shape mismatch, not key bits)
            // ct-allow(keygen pointwise ops fail only on parameter-shape mismatch, not key bits)
        pointwise::sub_into(pk.p_hat.as_mut_slice(), &r1, &ar2, plan.reducer())?;
        scratch.put(r1);
        scratch.put(ar2);
        Ok(())
    }

    /// Validates that a scratch arena matches this context's ring.
    fn check_scratch(&self, scratch: &PolyScratch) -> Result<(), RlweError> {
        if scratch.n() != self.params.n() {
            return Err(RlweError::Ntt(rlwe_ntt::NttError::LengthMismatch {
                expected: self.params.n(),
                got: scratch.n(),
            }));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Encryption
    // ------------------------------------------------------------------

    /// Encryption (§II-A.2): three Gaussian error polynomials, **three
    /// forward NTTs fused in one loop** (the paper's parallel NTT), two
    /// pointwise multiply-adds.
    ///
    /// Allocating convenience over [`RlweContext::encrypt_into`].
    ///
    /// # Errors
    ///
    /// * [`RlweError::MessageLength`] unless `msg.len() == n/8`.
    /// * [`RlweError::ParamMismatch`] if the key belongs to another set.
    pub fn encrypt<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
    ) -> Result<Ciphertext, RlweError> {
        let mut scratch = self.new_scratch();
        self.encrypt_with_scratch(pk, msg, rng, &mut scratch)
    }

    /// Encryption reusing a caller's scratch arena; allocates only the two
    /// output polynomials.
    ///
    /// # Errors
    ///
    /// See [`RlweContext::encrypt_into`].
    pub fn encrypt_with_scratch<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
        scratch: &mut PolyScratch,
    ) -> Result<Ciphertext, RlweError> {
        let mut ct = self.empty_ciphertext();
        self.encrypt_into(pk, msg, rng, &mut ct, scratch)?;
        Ok(ct)
    }

    /// Allocation-free encryption: writes the ciphertext into existing
    /// storage (start from [`RlweContext::empty_ciphertext`]) and borrows
    /// every working polynomial from `scratch`. After the first call on a
    /// given scratch/ciphertext pair, the hot path performs **zero**
    /// polynomial allocations (the engine's counting-allocator test pins
    /// this down).
    ///
    /// Output is bit-identical to [`RlweContext::encrypt`] for the same
    /// RNG state.
    ///
    /// # Errors
    ///
    /// * [`RlweError::MessageLength`] unless `msg.len() == n/8`.
    /// * [`RlweError::ParamMismatch`] if the key belongs to another set.
    /// * [`RlweError::Ntt`] if the scratch arena has the wrong dimension.
    pub fn encrypt_into<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
        ct: &mut Ciphertext,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        if pk.params != self.params {
            return Err(RlweError::ParamMismatch);
        }
        if msg.len() != self.params.message_bytes() {
            return Err(RlweError::MessageLength {
                got: msg.len(),
                expected: self.params.message_bytes(),
            });
        }
        self.check_scratch(scratch)?;
        with_dispatch!(self, |p| self.encrypt_body(p, pk, msg, rng, ct, scratch))
    }

    /// The monomorphized encryption body: sampling, the fused triple
    /// forward NTT and both multiply-adds all run on `plan`'s reducer.
    fn encrypt_body<RR: Reducer, R: RngCore + ?Sized>(
        &self,
        plan: &NttPlan<RR>,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
        ct: &mut Ciphertext,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        let n = self.params.n();
        let q = self.params.q();
        let modulus = self.plan.modulus();
        let mut bits = BufferedBitSource::buffered(RngWords(rng));
        let mut e1 = scratch.take();
        let mut e2 = scratch.take();
        let mut e3m = scratch.take();
        {
            let _span = self.obs.sp_enc_sample.enter();
            self.sample_error_into(plan.reducer(), &mut bits, &mut e1);
            self.sample_error_into(plan.reducer(), &mut bits, &mut e2);
            self.sample_error_into(plan.reducer(), &mut bits, &mut e3m);
        }
        {
            // e₃ + m̄ (time domain) becomes the third parallel-NTT operand.
            let _span = self.obs.sp_enc_encode.enter();
            encode_message_add_assign(msg, &mut e3m, q);
        }
        {
            let _span = self.obs.sp_enc_ntt.enter();
            self.ntt_forward3(plan, [&mut e1, &mut e2, &mut e3m]);
        }
        let _span = self.obs.sp_enc_pointwise.enter();
        // c̃₁ = ã∘ẽ₁ + ẽ₂ ; c̃₂ = p̃∘ẽ₁ + NTT(e₃ + m̄).
        ct.params = pk.params;
        ct.c1_hat.reset(n, *modulus);
        ct.c2_hat.reset(n, *modulus);
        ct.c1_hat.as_mut_slice().copy_from_slice(&e2);
        pointwise::mul_add_assign(
            ct.c1_hat.as_mut_slice(),
            pk.a_hat.as_slice(),
            &e1,
            plan.reducer(),
        )?;
        ct.c2_hat.as_mut_slice().copy_from_slice(&e3m);
        pointwise::mul_add_assign(
            ct.c2_hat.as_mut_slice(),
            pk.p_hat.as_slice(),
            &e1,
            plan.reducer(),
        )?;
        scratch.put(e1);
        scratch.put(e2);
        scratch.put(e3m);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Decryption
    // ------------------------------------------------------------------

    /// Decryption (§II-A.3): one pointwise multiply, one addition, one
    /// inverse NTT, then the threshold decoder.
    ///
    /// Allocating convenience over [`RlweContext::decrypt_into`].
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if key and ciphertext come from
    /// different parameter sets.
    pub fn decrypt(&self, sk: &SecretKey, ct: &Ciphertext) -> Result<Vec<u8>, RlweError> {
        let mut out = Vec::with_capacity(self.params.message_bytes());
        let mut scratch = self.new_scratch();
        // ct-allow(decode errors depend on ciphertext structure, not the secret key)
        self.decrypt_into(sk, ct, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Allocation-free decryption: decodes into a caller-provided byte
    /// buffer (cleared and refilled, capacity reused) and borrows the
    /// working polynomial from `scratch`.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets,
    /// [`RlweError::Ntt`] on a wrong-dimension scratch arena.
    pub fn decrypt_into(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
        out: &mut Vec<u8>,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        if sk.params != self.params || ct.params != sk.params {
            return Err(RlweError::ParamMismatch);
        }
        self.check_scratch(scratch)?;
        with_dispatch!(self, |p| {
            let mut m = scratch.take();
            {
                // m ← c̃₂ + c̃₁∘r̃₂, then out of the NTT domain.
                let _span = self.obs.sp_dec_pointwise.enter();
                m.copy_from_slice(ct.c2_hat.as_slice());
                pointwise::mul_add_assign(
                    &mut m,
                    ct.c1_hat.as_slice(),
                    sk.r2_hat.as_slice(),
                    p.reducer(),
                    // ct-allow(decode errors depend on ciphertext structure, not the message)
                )?;
            }
            {
                let _span = self.obs.sp_dec_ntt.enter();
                self.ntt_inverse(p, &mut m);
            }
            {
                let _span = self.obs.sp_dec_decode.enter();
                decode_message_into(&m, self.params.q(), out);
            }
            scratch.put(m);
            Ok(())
        })
    }

    /// The pre-decoder decryption output `m' = INTT(c̃₁∘r̃₂ + c̃₂)` —
    /// exposed so noise margins can be measured (EXPERIMENTS.md).
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets.
    pub fn decrypt_to_coefficients(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
    ) -> Result<Vec<u32>, RlweError> {
        if sk.params != self.params || ct.params != sk.params {
            return Err(RlweError::ParamMismatch);
        }
        with_dispatch!(self, |p| {
            let mut m = pointwise::mul_add(
                ct.c1_hat.as_slice(),
                sk.r2_hat.as_slice(),
                ct.c2_hat.as_slice(),
                p.reducer(),
                // ct-allow(decode errors depend on ciphertext structure, not the message)
            )?;
            self.ntt_inverse(p, &mut m);
            Ok(m)
        })
    }

    /// Measures how much noise margin a ciphertext has left: decryption is
    /// correct while every coefficient's noise stays below `q/4`.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets.
    pub fn diagnostics(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
    ) -> Result<DecryptionDiagnostics, RlweError> {
        // ct-allow(diagnostics is an offline debugging aid, not a production decap path)
        let coeffs = self.decrypt_to_coefficients(sk, ct)?;
        let q = self.params.q() as i64;
        let half = q / 2;
        let mut max_noise = 0i64;
        let mut total = 0f64;
        for &c in &coeffs {
            // Distance to the nearest codeword (0 or q/2) in the centered
            // metric.
            let c = c as i64;
            let d0 = (c.min(q - c)).abs();
            let dh = (c - half).abs().min((c + half - q).abs());
            let noise = d0.min(dh);
            max_noise = max_noise.max(noise);
            total += noise as f64;
        }
        Ok(DecryptionDiagnostics {
            max_noise: max_noise as u32,
            mean_noise: total / coeffs.len() as f64,
            margin: (q / 4 - max_noise).max(0) as u32,
            failed: max_noise >= q / 4,
        })
    }

    /// Adds two ciphertexts coefficient-wise (the additive homomorphism of
    /// LPR: the result decrypts to the **XOR** of the two plaintexts as
    /// long as the combined noise stays under `q/4`). An extension beyond
    /// the paper — see DESIGN.md §6.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets.
    pub fn add_ciphertexts(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, RlweError> {
        if a.params != self.params || b.params != a.params {
            return Err(RlweError::ParamMismatch);
        }
        let mut c1_hat = a.c1_hat.clone();
        c1_hat.add_assign(&b.c1_hat)?;
        let mut c2_hat = a.c2_hat.clone();
        c2_hat.add_assign(&b.c2_hat)?;
        Ok(Ciphertext {
            params: a.params,
            c1_hat,
            c2_hat,
        })
    }
}

/// Noise measurements from a decryption, for failure-rate experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecryptionDiagnostics {
    /// Largest per-coefficient noise (distance to the nearest codeword).
    pub max_noise: u32,
    /// Mean per-coefficient noise.
    pub mean_noise: f64,
    /// Remaining margin before a bit would flip (`q/4 − max_noise`).
    pub margin: u32,
    /// Whether at least one bit decoded incorrectly.
    pub failed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_p1() -> RlweContext {
        RlweContext::new(ParamSet::P1).unwrap()
    }

    #[test]
    fn round_trip_p1() {
        let ctx = ctx_p1();
        // P1 has a genuine per-encrypt decryption-failure probability on
        // the order of 1% (noise tail crossing q/4), so a fixed seed is
        // chosen whose 20 ciphertexts all keep a comfortable margin
        // (≥396 with this stream). Seeded streams are
        // arbitrary-but-deterministic per the rand shim's contract; this
        // seed was re-picked when the buffered bit-source refill changed
        // the word-stream layout.
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        for i in 0..20u8 {
            let msg: Vec<u8> = (0..32).map(|j| j as u8 ^ i.wrapping_mul(29)).collect();
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg, "iteration {i}");
        }
    }

    #[test]
    fn round_trip_p2() {
        let ctx = RlweContext::new(ParamSet::P2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0b1010_1010u8; 64];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_into_is_bit_identical_to_encrypt() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(40);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0x5Cu8; 32];
        let mut rng_a = StdRng::seed_from_u64(41);
        let mut rng_b = StdRng::seed_from_u64(41);
        let allocating = ctx.encrypt(&pk, &msg, &mut rng_a).unwrap();
        let mut ct = ctx.empty_ciphertext();
        let mut scratch = ctx.new_scratch();
        ctx.encrypt_into(&pk, &msg, &mut rng_b, &mut ct, &mut scratch)
            .unwrap();
        assert_eq!(ct, allocating);
        assert_eq!(
            ct.to_bytes().unwrap(),
            allocating.to_bytes().unwrap(),
            "wire bytes must be unchanged by the _into path"
        );
    }

    #[test]
    fn decrypt_into_matches_decrypt_and_reuses_buffers() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(42);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0xE1u8; 32];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        let want = ctx.decrypt(&sk, &ct).unwrap();
        let mut out = Vec::new();
        let mut scratch = ctx.new_scratch();
        ctx.decrypt_into(&sk, &ct, &mut out, &mut scratch).unwrap();
        assert_eq!(out, want);
        // Second decryption reuses both the byte buffer and the arena.
        ctx.decrypt_into(&sk, &ct, &mut out, &mut scratch).unwrap();
        assert_eq!(out, want);
        assert!(scratch.parked() >= 1, "the working poly returned home");
    }

    #[test]
    fn generate_keypair_into_matches_allocating_keygen() {
        let ctx = ctx_p1();
        let mut rng_a = StdRng::seed_from_u64(43);
        let mut rng_b = StdRng::seed_from_u64(43);
        let (pk_a, sk_a) = ctx.generate_keypair(&mut rng_a).unwrap();
        let (mut pk_b, mut sk_b) = ctx.empty_keypair();
        let mut scratch = ctx.new_scratch();
        ctx.generate_keypair_into(&mut rng_b, &mut pk_b, &mut sk_b, &mut scratch)
            .unwrap();
        assert_eq!(pk_a, pk_b);
        assert_eq!(sk_a.to_bytes().unwrap(), sk_b.to_bytes().unwrap());
    }

    #[test]
    fn wrong_dimension_scratch_is_rejected() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(44);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let mut ct = ctx.empty_ciphertext();
        let mut scratch = PolyScratch::new(512);
        let err = ctx
            .encrypt_into(&pk, &[0u8; 32], &mut rng, &mut ct, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, RlweError::Ntt(_)));
    }

    #[test]
    fn paper_sets_dispatch_to_the_specialized_reducers() {
        let p1 = RlweContext::new(ParamSet::P1).unwrap();
        assert_eq!(p1.reducer_kind(), ReducerKind::Q7681);
        let p2 = RlweContext::new(ParamSet::P2).unwrap();
        assert_eq!(p2.reducer_kind(), ReducerKind::Q12289);
        // A non-paper prime falls back to runtime Barrett.
        let params = Params::custom(512, 8383489, rlwe_sampler::GaussianSpec::p1());
        let other = RlweContext::with_params(params).unwrap();
        assert_eq!(other.reducer_kind(), ReducerKind::Barrett);
        // The preference knob can force the fallback for ablations.
        let forced = RlweContext::builder(ParamSet::P1)
            .reducer_preference(ReducerPreference::Generic)
            .build()
            .unwrap();
        assert_eq!(forced.reducer_kind(), ReducerKind::Barrett);
    }

    #[test]
    fn specialized_and_generic_contexts_are_bit_identical() {
        // Same seed, same backend, opposite reducer preference: keys,
        // ciphertexts and decryptions must agree byte for byte.
        for set in [ParamSet::P1, ParamSet::P2] {
            let auto = RlweContext::new(set).unwrap();
            let generic = RlweContext::builder(set)
                .reducer_preference(ReducerPreference::Generic)
                .build()
                .unwrap();
            assert_ne!(auto.reducer_kind(), generic.reducer_kind());
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_g = StdRng::seed_from_u64(77);
            let (pk_a, sk_a) = auto.generate_keypair(&mut rng_a).unwrap();
            let (pk_g, sk_g) = generic.generate_keypair(&mut rng_g).unwrap();
            assert_eq!(pk_a, pk_g, "{set}: public keys diverged");
            assert_eq!(
                sk_a.to_bytes().unwrap(),
                sk_g.to_bytes().unwrap(),
                "{set}: secret keys diverged"
            );
            let msg = vec![0x3Cu8; auto.params().message_bytes()];
            let ct_a = auto.encrypt(&pk_a, &msg, &mut rng_a).unwrap();
            let ct_g = generic.encrypt(&pk_g, &msg, &mut rng_g).unwrap();
            assert_eq!(
                ct_a.to_bytes().unwrap(),
                ct_g.to_bytes().unwrap(),
                "{set}: ciphertexts diverged"
            );
            assert_eq!(
                auto.decrypt(&sk_a, &ct_g).unwrap(),
                generic.decrypt(&sk_g, &ct_a).unwrap(),
                "{set}: cross-decryptions diverged"
            );
        }
    }

    #[test]
    fn all_backends_agree_bit_for_bit() {
        // The backend changes the kernel, never the math: the same seed
        // must produce the same keys, ciphertext bytes and CCA KEM
        // outputs (accepted and implicitly rejected) on every parameter
        // set and sampler rung.
        for set in [ParamSet::P1, ParamSet::P2] {
            for sampler in [SamplerKind::Lut, SamplerKind::CtCdt] {
                let fixtures: Vec<Vec<u8>> = [NttBackend::Reference, NttBackend::Avx2]
                    .into_iter()
                    .map(|backend| {
                        let ctx = RlweContext::builder(set)
                            .ntt_backend(backend)
                            .sampler(sampler)
                            .build()
                            .unwrap();
                        let tag = format!("{set} {sampler:?} {backend:?}");
                        let mut rng = StdRng::seed_from_u64(45);
                        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
                        let msg = vec![0x77u8; ctx.params().message_bytes()];
                        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
                        assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg, "{tag}");
                        let (kem_ct, ss) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
                        let accepted = ctx.decapsulate_cca(&sk, &pk, &kem_ct).unwrap();
                        assert_eq!(accepted, ss, "{tag}: CCA round trip");
                        let mut mauled = kem_ct.clone();
                        let c = &mut mauled.c1_hat.as_mut_slice()[0];
                        *c = (*c + 1) % ctx.params().q();
                        let rejected = ctx.decapsulate_cca(&sk, &pk, &mauled).unwrap();
                        assert_ne!(rejected, ss, "{tag}: mauled ciphertext accepted");
                        let mut wire = pk.to_bytes().unwrap();
                        wire.extend(sk.to_bytes().unwrap());
                        wire.extend(ct.to_bytes().unwrap());
                        wire.extend(kem_ct.to_bytes().unwrap());
                        wire.extend(ss.as_bytes());
                        wire.extend(rejected.as_bytes());
                        wire
                    })
                    .collect();
                assert_eq!(
                    fixtures[0], fixtures[1],
                    "{set} {sampler:?}: avx2 backend diverged"
                );
            }
        }
    }

    #[test]
    fn avx2_backend_reports_its_labels() {
        let ctx = RlweContext::builder(ParamSet::P2)
            .ntt_backend(NttBackend::Avx2)
            .build()
            .unwrap();
        assert_eq!(ctx.backend(), NttBackend::Avx2);
        assert_eq!(ctx.backend_label(), "avx2");
        // `has_avx2` reflects runtime host detection; either way the
        // backend must round-trip (scalar fallback on non-AVX2 hosts).
        let mut rng = StdRng::seed_from_u64(50);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0x2Du8; ctx.params().message_bytes()];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg);
    }

    #[test]
    fn sampler_kinds_all_round_trip() {
        for kind in [
            SamplerKind::Basic,
            SamplerKind::Lut1,
            SamplerKind::Lut,
            SamplerKind::CtCdt,
        ] {
            let ctx = RlweContext::builder(ParamSet::P1)
                .sampler(kind)
                .build()
                .unwrap();
            assert_eq!(ctx.sampler_kind(), kind);
            assert_eq!(ctx.ct_sampler().is_some(), kind == SamplerKind::CtCdt);
            let mut rng = StdRng::seed_from_u64(46);
            let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
            let msg = vec![0x13u8; 32];
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg, "{kind:?}");
        }
    }

    #[test]
    fn wrong_key_garbles_the_message() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, _sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (_pk2, sk2) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0xFFu8; 32];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_ne!(ctx.decrypt(&sk2, &ct).unwrap(), msg);
    }

    #[test]
    fn message_length_is_validated() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(4);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let err = ctx.encrypt(&pk, &[0u8; 31], &mut rng).unwrap_err();
        assert!(matches!(
            err,
            RlweError::MessageLength {
                got: 31,
                expected: 32
            }
        ));
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0u8; 32];
        let ct1 = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        let ct2 = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_ne!(ct1, ct2, "semantic security demands fresh randomness");
    }

    #[test]
    fn shared_a_keypairs_work() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(6);
        let a_hat = ctx.sample_uniform(&mut rng);
        let (pk1, sk1) = ctx
            .generate_keypair_with_a_poly(a_hat.clone(), &mut rng)
            .unwrap();
        let (pk2, sk2) = ctx
            .generate_keypair_with_a_poly(a_hat.clone(), &mut rng)
            .unwrap();
        assert_eq!(pk1.a_poly(), pk2.a_poly());
        assert_ne!(pk1.p_poly(), pk2.p_poly());
        let msg = vec![0x77u8; 32];
        let ct1 = ctx.encrypt(&pk1, &msg, &mut rng).unwrap();
        let ct2 = ctx.encrypt(&pk2, &msg, &mut rng).unwrap();
        assert_eq!(ctx.decrypt(&sk1, &ct1).unwrap(), msg);
        assert_eq!(ctx.decrypt(&sk2, &ct2).unwrap(), msg);
    }

    #[test]
    fn noise_stays_within_the_decoding_bound() {
        // The noise term is e₁·r₁ + e₂·r₂ + e₃ with per-coefficient std
        // ≈ σ²√(2n) ≈ 461 for P1 against a q/4 = 1920 threshold (≈ 4.2σ):
        // individual encryptions fail with probability ≈ 1%, which is a
        // *property of the paper's parameters*, not a bug. With this fixed
        // seed all 50 encryptions decode; the margin is legitimately thin.
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(7);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0x5Au8; 32];
        let mut worst_margin = u32::MAX;
        for _ in 0..50 {
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            let d = ctx.diagnostics(&sk, &ct).unwrap();
            assert!(!d.failed);
            worst_margin = worst_margin.min(d.margin);
            assert!(d.mean_noise > 100.0 && d.mean_noise < 1000.0);
        }
        assert!(worst_margin > 0, "a decryption failed");
    }

    #[test]
    fn homomorphic_addition_mostly_xors_plaintexts() {
        // Adding ciphertexts doubles the noise variance, so at the paper's
        // parameters a few of the 256 bit positions may flip — the test
        // asserts the XOR structure dominates and quantifies the damage.
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(8);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let m1: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let m2: Vec<u8> = (0..32).map(|i| (i as u8).wrapping_mul(93) ^ 0x0F).collect();
        let ct1 = ctx.encrypt(&pk, &m1, &mut rng).unwrap();
        let ct2 = ctx.encrypt(&pk, &m2, &mut rng).unwrap();
        let sum = ctx.add_ciphertexts(&ct1, &ct2).unwrap();
        let got = ctx.decrypt(&sk, &sum).unwrap();
        let want: Vec<u8> = m1.iter().zip(&m2).map(|(a, b)| a ^ b).collect();
        let bit_errors: u32 = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(
            bit_errors <= 8,
            "noise doubled past usability: {bit_errors}/256 bits flipped"
        );
    }

    #[test]
    fn single_encryption_failure_rate_is_about_one_percent() {
        // Quantify the known failure probability of the P1 parameters.
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(10);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0xC3u8; 32];
        let trials = 1000;
        let failures = (0..trials)
            .filter(|_| {
                let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
                ctx.diagnostics(&sk, &ct).unwrap().failed
            })
            .count();
        // ≈ 0.8% expected; allow 0..=3%.
        assert!(failures <= 30, "failure rate {failures}/1000 is anomalous");
    }

    #[test]
    fn uniform_poly_is_reduced_and_nonconstant() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(9);
        let a = ctx.sample_uniform(&mut rng);
        assert_eq!(a.len(), 256);
        assert!(a.as_slice().iter().all(|&c| c < 7681));
        assert!(a.as_slice().windows(2).any(|w| w[0] != w[1]));
    }
}
