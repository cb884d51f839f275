//! Constant-time primitives shared by every secret-handling layer.
//!
//! The paper's §V defers constant-time execution to future work; this
//! module is the workspace's single home for the branchless building
//! blocks that close that gap. Three crates used to carry their own
//! byte-compare loops (`rlwe-hash` HMAC verification, the engine's frame
//! MAC check, the FO transform's re-encryption compare) — they all route
//! through [`ct_eq`] now, so there is exactly one implementation to
//! audit.
//!
//! Conventions:
//!
//! * Masks are `u8` values that are either `0xFF` (true) or `0x00`
//!   (false), so they compose with `&`/`|`/`^` and feed straight into
//!   [`ct_select_u8`].
//! * No function in this module branches on, or indexes memory by,
//!   secret *contents*. Lengths are treated as public (they are fixed by
//!   parameter sets and wire formats everywhere this module is used),
//!   but a length mismatch still folds into the comparison verdict
//!   rather than short-circuiting it.
//! * Every mask/predicate passes through a [`std::hint::black_box`]
//!   barrier, so the optimiser cannot prove its two-valued range after
//!   inlining and lower the masked arithmetic back into a branch (the
//!   same role the `subtle` crate's barrier plays).
//! * [`zeroize`]/[`zeroize_u32`] are *best-effort* secret erasure: the
//!   build environment is offline (no `zeroize` crate) and this
//!   workspace forbids `unsafe`, so instead of volatile writes they
//!   clear the buffer and pin it with [`std::hint::black_box`], which
//!   the optimiser must assume reads the stored bytes.

/// Equality of two byte strings as a `0xFF`/`0x00` mask, without any
/// secret-dependent branch or early exit.
///
/// The length difference is folded into the same accumulator as the byte
/// differences, so one masked value decides the verdict — there is no
/// separate short-circuiting length check for a remote timer to observe.
/// Every byte of the common prefix is always inspected.
///
/// # Example
///
/// ```
/// use rlwe_zq::ct::ct_eq_mask;
///
/// assert_eq!(ct_eq_mask(b"abc", b"abc"), 0xFF);
/// assert_eq!(ct_eq_mask(b"abc", b"abd"), 0x00);
/// assert_eq!(ct_eq_mask(b"abc", b"abcd"), 0x00); // length folds in
/// ```
#[inline]
pub fn ct_eq_mask(a: &[u8], b: &[u8]) -> u8 {
    let mut acc = (a.len() ^ b.len()) as u64;
    for (x, y) in a.iter().zip(b) {
        acc |= (x ^ y) as u64;
    }
    // Optimizer barrier: without it the compiler may prove acc's value
    // range after inlining and lower the mask derivation back into a
    // compare-and-branch — the regression this module exists to prevent.
    let acc = std::hint::black_box(acc);
    // acc == 0  →  0xFF; acc != 0  →  0x00, branchlessly: the high bit of
    // `acc | −acc` is set exactly when acc is non-zero.
    let nonzero = ((acc | acc.wrapping_neg()) >> 63) as u8;
    nonzero.wrapping_sub(1)
}

/// Constant-time byte-string equality (see [`ct_eq_mask`] for the
/// guarantees).
///
/// # Example
///
/// ```
/// assert!(rlwe_zq::ct::ct_eq(&[1, 2, 3], &[1, 2, 3]));
/// assert!(!rlwe_zq::ct::ct_eq(&[1, 2, 3], &[1, 2, 4]));
/// ```
#[inline]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    ct_eq_mask(a, b) == 0xFF
}

/// Selects `a` when `mask == 0xFF`, `b` when `mask == 0x00`, without a
/// branch.
///
/// Any other mask value blends bits and is a caller bug; masks come from
/// [`ct_eq_mask`] or [`ct_lt_u32`]-style predicates.
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::ct::ct_select_u8(0xFF, 7, 9), 7);
/// assert_eq!(rlwe_zq::ct::ct_select_u8(0x00, 7, 9), 9);
/// ```
#[inline]
pub fn ct_select_u8(mask: u8, a: u8, b: u8) -> u8 {
    // Barrier: stop the optimiser from proving mask ∈ {0x00, 0xFF} and
    // rewriting the select as a branch.
    let mask = std::hint::black_box(mask);
    (mask & a) | (!mask & b)
}

/// Writes `a` into `out` when `mask == 0xFF`, `b` when `mask == 0x00`,
/// element by element, without a branch on the mask.
///
/// # Panics
///
/// Panics if the three slices differ in length (slice lengths are public
/// structure, never secrets).
///
/// # Example
///
/// ```
/// let mut out = [0u8; 3];
/// rlwe_zq::ct::ct_select_slice(0x00, &[1, 2, 3], &[4, 5, 6], &mut out);
/// assert_eq!(out, [4, 5, 6]);
/// ```
#[inline]
pub fn ct_select_slice(mask: u8, a: &[u8], b: &[u8], out: &mut [u8]) {
    assert!(
        a.len() == b.len() && b.len() == out.len(),
        "ct_select_slice operands must share one (public) length"
    );
    // One barrier for the whole slice (a per-byte barrier would defeat
    // vectorisation for nothing — the mask is the only secret-derived
    // range the optimiser could exploit).
    let mask = std::hint::black_box(mask);
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (mask & x) | (!mask & y);
    }
}

/// `(a < b) as u32` without a data-dependent branch.
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::ct::ct_lt_u32(3, 5), 1);
/// assert_eq!(rlwe_zq::ct::ct_lt_u32(5, 5), 0);
/// ```
#[inline]
pub fn ct_lt_u32(a: u32, b: u32) -> u32 {
    // Widen so the subtraction's borrow lands in bit 63; the barrier
    // keeps the 0/1 result opaque to downstream range analysis.
    std::hint::black_box((((a as u64).wrapping_sub(b as u64)) >> 63) as u32)
}

/// `(a >= b) as u32` for 128-bit operands without a data-dependent
/// branch — the comparison at the heart of the constant-time CDT
/// sampler's table scan.
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::ct::ct_ge_u128(5, 5), 1);
/// assert_eq!(rlwe_zq::ct::ct_ge_u128(4, 5), 0);
/// ```
#[inline]
pub fn ct_ge_u128(a: u128, b: u128) -> u32 {
    // borrow = 1 iff a < b; `overflowing_sub` compiles to flag
    // arithmetic, not control flow, and the barrier keeps the 0/1
    // result opaque to downstream range analysis.
    let (_, borrow) = a.overflowing_sub(b);
    std::hint::black_box(1 - borrow as u32)
}

/// Best-effort secret erasure for byte buffers.
///
/// Clears the slice and pins it with [`std::hint::black_box`] so the
/// stores cannot be elided as dead writes. This is the strongest
/// guarantee available without `unsafe` volatile writes; it does not
/// defend against copies the compiler already spilled elsewhere.
pub fn zeroize(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = 0;
    }
    std::hint::black_box(buf);
}

/// Best-effort secret erasure for `u32` buffers (polynomial
/// coefficients); see [`zeroize`].
pub fn zeroize_u32(buf: &mut [u32]) {
    for c in buf.iter_mut() {
        *c = 0;
    }
    std::hint::black_box(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_mask_is_saturated() {
        assert_eq!(ct_eq_mask(&[], &[]), 0xFF);
        assert_eq!(ct_eq_mask(&[0], &[0]), 0xFF);
        assert_eq!(ct_eq_mask(&[0], &[1]), 0x00);
        // A difference in any single bit position must flip the verdict.
        for byte in 0..32usize {
            for bit in 0..8 {
                let a = vec![0xA5u8; 32];
                let mut b = a.clone();
                b[byte] ^= 1 << bit;
                assert_eq!(ct_eq_mask(&a, &b), 0x00, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn length_mismatch_folds_into_the_verdict() {
        // Equal prefixes, differing lengths: must be unequal even though
        // every zipped byte matches.
        assert_eq!(ct_eq_mask(&[7, 7, 7], &[7, 7]), 0x00);
        assert_eq!(ct_eq_mask(&[], &[0]), 0x00);
        assert!(!ct_eq(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn select_u8_obeys_the_mask() {
        for a in [0u8, 1, 0x80, 0xFF] {
            for b in [0u8, 3, 0x7F, 0xFE] {
                assert_eq!(ct_select_u8(0xFF, a, b), a);
                assert_eq!(ct_select_u8(0x00, a, b), b);
            }
        }
    }

    #[test]
    fn select_slice_copies_the_chosen_operand() {
        let a = [1u8, 2, 3, 4];
        let b = [9u8, 8, 7, 6];
        let mut out = [0u8; 4];
        ct_select_slice(0xFF, &a, &b, &mut out);
        assert_eq!(out, a);
        ct_select_slice(0x00, &a, &b, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    #[should_panic(expected = "public")]
    fn select_slice_rejects_mismatched_lengths() {
        let mut out = [0u8; 2];
        ct_select_slice(0xFF, &[1, 2, 3], &[4, 5, 6], &mut out);
    }

    #[test]
    fn lt_matches_the_operator() {
        let cases = [0u32, 1, 2, 7680, 7681, u32::MAX - 1, u32::MAX];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(ct_lt_u32(a, b), (a < b) as u32, "{a} < {b}");
            }
        }
    }

    #[test]
    fn ge_u128_matches_the_operator() {
        let cases = [0u128, 1, (1 << 127) - 1, 1 << 127, u128::MAX - 1, u128::MAX];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(ct_ge_u128(a, b), (a >= b) as u32, "{a} >= {b}");
            }
        }
    }

    #[test]
    fn zeroize_clears_buffers() {
        let mut bytes = [0xA5u8; 40];
        zeroize(&mut bytes);
        assert!(bytes.iter().all(|&b| b == 0));
        let mut words = [0xDEAD_BEEFu32; 16];
        zeroize_u32(&mut words);
        assert!(words.iter().all(|&w| w == 0));
    }
}
