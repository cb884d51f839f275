//! Message encoding and threshold decoding (§II-A's `m̄` and the decoder).
//!
//! Each message bit rides on one ring coefficient: bit `1` becomes
//! `⌊q/2⌋`, bit `0` becomes `0`. After decryption the coefficient equals
//! the encoded value plus a small Gaussian-combination noise term; the
//! decoder outputs `1` when the coefficient is closer to `⌊q/2⌋` than to
//! `0` (i.e. lies in `(q/4, 3q/4]`). Decryption is correct as long as the
//! noise magnitude stays below `q/4`.
//!
//! Both directions handle *secret* bits (the message, and during FO
//! decapsulation the decrypted candidate), so the per-bit work is
//! branchless: the encoded addend is `bit · ⌊q/2⌋` with a masked modular
//! reduction, and the threshold decoder combines two [`rlwe_zq::ct`]
//! predicates instead of a short-circuiting comparison chain.

/// Encodes a message into ring coefficients: bit `i` of the message
/// (little-endian within each byte) controls coefficient `i`.
///
/// # Panics
///
/// Panics if `msg.len() * 8 != n`.
///
/// # Example
///
/// ```
/// let m = rlwe_core::encode_message(&[0b0000_0101], 8, 7681);
/// assert_eq!(m, vec![3840, 0, 3840, 0, 0, 0, 0, 0]);
/// ```
pub fn encode_message(msg: &[u8], n: usize, q: u32) -> Vec<u32> {
    assert_eq!(msg.len() * 8, n, "message must supply exactly n bits");
    let half = q / 2;
    (0..n)
        .map(|i| (((msg[i / 8] >> (i % 8)) & 1) as u32) * half)
        .collect()
}

/// Adds the encoded message `m̄` onto an existing coefficient slice in
/// place (`coeffs[i] ← coeffs[i] + m̄[i] mod q`) — the allocation-free
/// fusion of [`encode_message`] with the `e₃ + m̄` addition on the
/// encryption hot path.
///
/// # Panics
///
/// Panics if `msg.len() * 8 != coeffs.len()`.
pub fn encode_message_add_assign(msg: &[u8], coeffs: &mut [u32], q: u32) {
    assert_eq!(
        msg.len() * 8,
        coeffs.len(),
        "message must supply exactly n bits"
    );
    let half = q / 2;
    for (i, c) in coeffs.iter_mut().enumerate() {
        // bit ∈ {0,1} → addend ∈ {0, half}; reduce with a masked
        // subtraction rather than `add_mod`'s conditional branch, so no
        // control flow depends on the (secret) message bit.
        let bit = ((msg[i / 8] >> (i % 8)) & 1) as u32;
        let s = *c + bit * half;
        let ge_mask = (rlwe_zq::ct::ct_lt_u32(s, q) ^ 1).wrapping_neg();
        *c = s - (q & ge_mask);
    }
}

/// Decodes one noisy coefficient to a bit: `1` iff the value lies in
/// `(q/4, 3q/4]` (closer to `q/2` than to `0 ≡ q`).
///
/// # Example
///
/// ```
/// use rlwe_core::decode_coefficient;
/// assert_eq!(decode_coefficient(3840, 7681), 1);   // q/2
/// assert_eq!(decode_coefficient(10, 7681), 0);     // near 0
/// assert_eq!(decode_coefficient(7671, 7681), 0);   // near q
/// assert_eq!(decode_coefficient(2000, 7681), 1);   // q/4 < v
/// ```
#[inline]
pub fn decode_coefficient(c: u32, q: u32) -> u8 {
    let quarter = q / 4;
    // q < 2³¹, so 3q/4 fits a u32.
    let three_quarters = (3 * (q as u64) / 4) as u32;
    // (c > q/4) & (c <= 3q/4) without a short-circuiting comparison
    // chain — the coefficient is secret during decryption.
    let gt = rlwe_zq::ct::ct_lt_u32(quarter, c);
    let le = rlwe_zq::ct::ct_lt_u32(three_quarters, c) ^ 1;
    (gt & le) as u8
}

/// Decodes a full coefficient vector back into message bytes.
///
/// # Panics
///
/// Panics if the coefficient count is not a multiple of 8.
pub fn decode_message(coeffs: &[u32], q: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(coeffs.len() / 8);
    decode_message_into(coeffs, q, &mut out);
    out
}

/// Decodes a coefficient vector into a caller-provided byte buffer
/// (cleared and refilled — after warm-up the buffer's capacity is reused,
/// so the decryption hot path allocates nothing).
///
/// # Panics
///
/// Panics if the coefficient count is not a multiple of 8.
pub fn decode_message_into(coeffs: &[u32], q: u32, out: &mut Vec<u8>) {
    assert!(
        coeffs.len().is_multiple_of(8),
        "coefficient count must be byte-aligned"
    );
    out.clear();
    out.extend(coeffs.chunks_exact(8).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(i, &c)| decode_coefficient(c, q) << i)
            .sum::<u8>()
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_noiseless() {
        for q in [7681u32, 12289] {
            let msg: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
            let coeffs = encode_message(&msg, 256, q);
            assert_eq!(decode_message(&coeffs, q), msg);
        }
    }

    #[test]
    fn decoding_tolerates_noise_below_q_over_4() {
        let q = 7681u32;
        let half = q / 2;
        let margin = q / 4 - 1;
        // 1-bit survives noise in (−q/4, q/4).
        assert_eq!(decode_coefficient(half - margin, q), 1);
        assert_eq!(decode_coefficient(half + margin, q), 1);
        // 0-bit survives noise in the same band around 0 / q.
        assert_eq!(decode_coefficient(margin, q), 0);
        assert_eq!(decode_coefficient(q - margin, q), 0);
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        let q = 12289;
        let zeros = vec![0u8; 64];
        assert_eq!(decode_message(&encode_message(&zeros, 512, q), q), zeros);
        let ones = vec![0xFFu8; 64];
        assert_eq!(decode_message(&encode_message(&ones, 512, q), q), ones);
    }

    #[test]
    #[should_panic(expected = "exactly n bits")]
    fn wrong_length_panics() {
        encode_message(&[0u8; 3], 256, 7681);
    }

    #[test]
    fn add_assign_on_zeroes_equals_encode() {
        let q = 7681;
        let msg: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(91) ^ 0x3C).collect();
        let mut coeffs = vec![0u32; 256];
        encode_message_add_assign(&msg, &mut coeffs, q);
        assert_eq!(coeffs, encode_message(&msg, 256, q));
        // And fused add matches encode-then-add.
        let base: Vec<u32> = (0..256u32).map(|i| (i * 13 + 5) % q).collect();
        let mut fused = base.clone();
        encode_message_add_assign(&msg, &mut fused, q);
        let manual: Vec<u32> = base
            .iter()
            .zip(&encode_message(&msg, 256, q))
            .map(|(&a, &b)| rlwe_zq::add_mod(a, b, q))
            .collect();
        assert_eq!(fused, manual);
    }

    #[test]
    fn decode_into_reuses_the_buffer() {
        let q = 12289;
        let msg = vec![0xB7u8; 64];
        let coeffs = encode_message(&msg, 512, q);
        let mut out = Vec::new();
        decode_message_into(&coeffs, q, &mut out);
        assert_eq!(out, msg);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        decode_message_into(&coeffs, q, &mut out);
        assert_eq!(out, msg);
        assert_eq!((out.capacity(), out.as_ptr()), (cap, ptr));
    }
}
