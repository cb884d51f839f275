//! Negacyclic number-theoretic transform (NTT) engine.
//!
//! Ring-LWE arithmetic happens in `R_q = Z_q[x]/(xⁿ + 1)`. Multiplication in
//! that ring is a *negacyclic* (negative-wrapped) convolution, which the
//! DATE 2015 paper computes with an n-point NTT whose twiddle factors merge
//! the powers of ψ (a primitive 2n-th root of unity, ψ² = ω, ψⁿ = −1) into
//! the butterflies — the `w = √w_m` recurrence of the paper's Algorithms
//! 3 and 4.
//!
//! Three functionally identical transform implementations are provided,
//! mirroring the paper's optimisation ladder:
//!
//! * [`NttPlan::forward`] / [`NttPlan::inverse`] — the reference scalar
//!   in-place transforms (Cooley-Tukey decimation-in-time forward, natural →
//!   bit-reversed order; Gentleman-Sande inverse back to natural order).
//! * [`packed`] — the paper's §III-D layout: **two coefficients per 32-bit
//!   word**, inner loop unrolled by two, halving memory accesses. The last
//!   forward stage (span 1) becomes an intra-word butterfly — this is the
//!   epilogue of the paper's Algorithm 4.
//! * [`parallel`] — the paper's *parallel NTT*: three transforms advanced in
//!   the same loop nest so twiddle loads and loop overhead are shared
//!   (§III-D, measured at 8.3% faster than three separate NTTs).
//!
//! All three variants share the same **lazy-reduction butterfly** core
//! (`rlwe_zq::lazy`, Harvey-style): coefficients travel unreduced in
//! `[0, 2q)`/`[0, 4q)` across stages, the few surviving corrections are
//! masked (branch-free, cmov-independent), and canonical `[0, q)` is
//! restored exactly once per transform — the forward in a final sweep
//! (skippable via [`NttPlan::forward_lazy`] when the consumer reduces
//! anyway), the inverse inside its merged final stage, where the `n⁻¹`
//! scaling is folded into the last butterflies. This requires `q < 2³⁰`
//! (enforced by [`NttPlan::new`]); the halfword-packed layout further
//! requires `q < 2¹⁴`, amply satisfied by the paper's moduli.
//! [`NttPlan::forward_traced`]/[`NttPlan::inverse_traced`] return the
//! exact per-kind operation counts ([`NttOpTrace`]) so the leakage
//! harness can pin the transforms' input-independence in CI.
//!
//! Every kernel is generic over the modular-reduction strategy
//! ([`rlwe_zq::Reducer`]): `NttPlan` defaults to the runtime-Barrett
//! reducer, while `NttPlan<rlwe_zq::reduce::Q7681>` /
//! `NttPlan<rlwe_zq::reduce::Q12289>` monomorphize the paper's
//! special-form primes into the butterflies as compile-time constants —
//! identical operation structure, bit-identical outputs. [`AnyNttPlan`]
//! performs the `(n, q) → instantiation` selection exactly once, at
//! construction.
//!
//! A schoolbook negacyclic multiplier ([`schoolbook`]) is the independent
//! correctness oracle: every variant must agree with it exactly.
//!
//! # Example
//!
//! ```
//! use rlwe_ntt::NttPlan;
//!
//! # fn main() -> Result<(), rlwe_ntt::NttError> {
//! let plan = NttPlan::new(256, 7681)?;   // the paper's P1 ring
//! let a: Vec<u32> = (0..256).map(|i| (i * 31 + 7) % 7681).collect();
//! let b: Vec<u32> = (0..256).map(|i| (i * 17 + 1) % 7681).collect();
//! let c = plan.negacyclic_mul(&a, &b);
//! assert_eq!(c, rlwe_ntt::schoolbook::negacyclic_mul(&a, &b, 7681));
//! # Ok(())
//! # }
//! ```

// `deny` rather than the workspace-wide `forbid`: the AVX2 backend
// (src/avx2.rs) needs `#[target_feature(enable = "avx2")]` kernels with
// raw-pointer vector loads, and `forbid` cannot be overridden by that
// module's scoped allow. Everything outside `avx2::kernel` is still
// rejected at compile time, and the kernels sit behind safe,
// detection-checked wrappers (see DESIGN.md §11).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dispatch;
mod error;
mod plan;
mod scratch;
mod trace;

pub mod avx2;
pub mod bitrev;
pub mod karatsuba;
pub mod packed;
pub mod parallel;
pub mod pointwise;
pub mod primes;
pub mod schoolbook;

pub use dispatch::AnyNttPlan;
pub use error::NttError;
pub use plan::NttPlan;
pub use scratch::PolyScratch;
pub use trace::NttOpTrace;
