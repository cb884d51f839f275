//! The Knuth-Yao sampler and its optimisation ladder (Algorithms 1 and 2).

use crate::error::SamplerError;
use crate::pmat::ProbabilityMatrix;
use crate::random::BitSource;
use rlwe_zq::Reducer;

/// Number of DDG levels covered by the first lookup table (§III-B5:
/// "the first 8 levels", resolving 97.27% of samples for P1).
pub const LUT1_LEVELS: usize = 8;

/// Number of additional levels covered by the second lookup table
/// ("level 9 up to level 13", taking coverage to 99.87% for P1).
pub const LUT2_LEVELS: usize = 5;

/// A signed discrete Gaussian sample: magnitude (the matrix row) plus the
/// sign bit the algorithm draws after reaching a terminal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SignedSample {
    magnitude: u16,
    negative: bool,
}

impl SignedSample {
    /// Creates a sample from a magnitude and sign.
    pub fn new(magnitude: u16, negative: bool) -> Self {
        Self {
            magnitude,
            negative,
        }
    }

    /// The magnitude (matrix row index).
    #[inline]
    pub fn magnitude(&self) -> u32 {
        self.magnitude as u32
    }

    /// Whether the sign bit selected the negative half.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// The signed integer value (`−0` collapses to `0`).
    #[inline]
    pub fn signed_value(&self) -> i32 {
        if self.negative {
            -(self.magnitude as i32)
        } else {
            self.magnitude as i32
        }
    }

    /// The value as a residue modulo `q` (negative samples map to
    /// `q − magnitude`, the paper's `return q − row`).
    #[inline]
    pub fn to_zq(&self, q: u32) -> u32 {
        if self.negative && self.magnitude != 0 {
            q - self.magnitude as u32
        } else {
            self.magnitude as u32
        }
    }

    /// [`SignedSample::to_zq`] through a [`Reducer`]: the coefficient
    /// reduction monomorphizes with the context's reduction strategy
    /// (compile-time `q` for the paper's primes) and the sign is applied
    /// with a **masked select** ([`Reducer::signed_residue`]) rather
    /// than a branch on the secret sign bit.
    #[inline]
    pub fn to_zq_with<R: Reducer>(&self, r: &R) -> u32 {
        r.signed_residue(self.magnitude as u32, self.negative)
    }
}

/// The Knuth-Yao discrete Gaussian sampler over a [`ProbabilityMatrix`],
/// with every acceleration described in the paper available as a separate
/// method so they can be compared:
///
/// | method | paper section | technique |
/// |---|---|---|
/// | [`sample_basic`](Self::sample_basic) | Alg. 1 | per-bit column scan |
/// | [`sample_hw`](Self::sample_hw) | §III-B4 (prior art) | per-column Hamming-weight skip |
/// | [`sample_clz`](Self::sample_clz) | §III-B4 | `clz` zero-run skipping + trimmed words |
/// | [`sample_lut1`](Self::sample_lut1) | §III-B5 | 256-entry LUT for levels 1–8 |
/// | [`sample_lut`](Self::sample_lut) | Alg. 2 | both LUTs (levels 1–13), the 28.5-cycle variant |
///
/// All variants draw from the same DDG tree and therefore produce the same
/// distribution; `sample_basic`, `sample_hw` and `sample_clz` are
/// bit-stream-identical (same bits consumed, same output), while the LUT
/// variants consume bits in fixed-size blocks and match on magnitudes.
#[derive(Debug, Clone)]
pub struct KnuthYao {
    pmat: ProbabilityMatrix,
    lut1: Vec<u8>,
    lut2: Vec<u8>,
    /// Largest distance observed among failing LUT1 indices (6 for P1, so
    /// LUT2 has (6+1)·32 = 224 entries — the §III-B5 count).
    lut1_max_distance: u32,
}

impl KnuthYao {
    /// Builds the sampler, precomputing both DDG lookup tables.
    ///
    /// # Errors
    ///
    /// [`SamplerError::LutOverflow`] if a distance counter does not fit the
    /// bit fields the paper's 8-bit table entries reserve for it (cannot
    /// happen for the paper's parameter sets; guards wider distributions).
    pub fn new(pmat: ProbabilityMatrix) -> Result<Self, SamplerError> {
        // --- LUT1: walk levels 1..=8 for every possible 8-bit index. ---
        let mut lut1 = vec![0u8; 1 << LUT1_LEVELS];
        let mut lut1_max_distance = 0u32;
        for (index, entry) in lut1.iter_mut().enumerate() {
            match Self::walk_fixed_bits(&pmat, 0, LUT1_LEVELS, 0, index as u32) {
                WalkOutcome::Terminal(row) => {
                    if row > 0x7F {
                        return Err(SamplerError::LutOverflow {
                            table: "LUT1",
                            distance: row,
                        });
                    }
                    *entry = row as u8;
                }
                WalkOutcome::Internal(d) => {
                    // The paper stores the distance in 3 bits (`s & 7`),
                    // which suffices for P1 (d ≤ 6). P2's distance reaches
                    // 8, so we keep the full 7 payload bits of the entry;
                    // the P1 tables still come out exactly as published
                    // (max distance 6, 224-entry LUT2).
                    if d > 0x7F {
                        return Err(SamplerError::LutOverflow {
                            table: "LUT1",
                            distance: d,
                        });
                    }
                    lut1_max_distance = lut1_max_distance.max(d);
                    *entry = 0x80 | d as u8;
                }
            }
        }
        // --- LUT2: for every reachable distance and 5-bit index, walk
        // levels 9..=13. Indexed as (d << 5) | r5 ⇒ (d_max+1)·32 entries
        // (224 for P1, as §III-B5 reports). ---
        let mut lut2 = vec![0u8; (lut1_max_distance as usize + 1) << LUT2_LEVELS];
        for d0 in 0..=lut1_max_distance {
            for r5 in 0u32..(1 << LUT2_LEVELS) {
                let idx = ((d0 << LUT2_LEVELS) | r5) as usize;
                match Self::walk_fixed_bits(&pmat, LUT1_LEVELS, LUT2_LEVELS, d0 as i64, r5) {
                    WalkOutcome::Terminal(row) => {
                        if row > 0x7F {
                            return Err(SamplerError::LutOverflow {
                                table: "LUT2",
                                distance: row,
                            });
                        }
                        lut2[idx] = row as u8;
                    }
                    WalkOutcome::Internal(d) => {
                        // The paper stores the residual distance in the low
                        // 4 bits (enough for P1); we allow the full 7 bits.
                        if d > 0x7F {
                            return Err(SamplerError::LutOverflow {
                                table: "LUT2",
                                distance: d,
                            });
                        }
                        lut2[idx] = 0x80 | d as u8;
                    }
                }
            }
        }
        Ok(Self {
            pmat,
            lut1,
            lut2,
            lut1_max_distance,
        })
    }

    /// The probability matrix backing this sampler.
    #[inline]
    pub fn pmat(&self) -> &ProbabilityMatrix {
        &self.pmat
    }

    /// Size of LUT1 in entries (always 256).
    #[inline]
    pub fn lut1_len(&self) -> usize {
        self.lut1.len()
    }

    /// Size of LUT2 in entries (224 for P1: 7 reachable distances × 32).
    #[inline]
    pub fn lut2_len(&self) -> usize {
        self.lut2.len()
    }

    /// Largest distance a failed LUT1 lookup can carry (6 for P1).
    #[inline]
    pub fn lut1_max_distance(&self) -> u32 {
        self.lut1_max_distance
    }

    /// Deterministic walk over `levels` DDG levels whose per-level bits are
    /// the bits of `index` (LSB first), starting at `start_col` with
    /// distance `d` — used to precompute the lookup tables (§III-B5: the
    /// LUT "is generated by using an 8-bit index instead of a random
    /// number as an input to Alg. 1").
    fn walk_fixed_bits(
        pmat: &ProbabilityMatrix,
        start_col: usize,
        levels: usize,
        mut d: i64,
        index: u32,
    ) -> WalkOutcome {
        for l in 0..levels {
            let col = start_col + l;
            d = 2 * d + ((index >> l) & 1) as i64;
            match Self::scan_column(pmat, col, &mut d) {
                Some(row) => return WalkOutcome::Terminal(row),
                None => continue,
            }
        }
        WalkOutcome::Internal(d as u32)
    }

    /// Scans one column (rows `MAXROW` down to `0`), decrementing `d` per
    /// set bit. Returns the terminal row if `d` drops below zero.
    fn scan_column(pmat: &ProbabilityMatrix, col: usize, d: &mut i64) -> Option<u32> {
        let rows = pmat.rows();
        for scan in 0..rows {
            let row = rows - 1 - scan;
            *d -= pmat.bit(row, col) as i64;
            if *d < 0 {
                return Some(row as u32);
            }
        }
        None
    }

    /// Resumes a bit-scan walk at `start_col` with distance `d`, drawing
    /// fresh random bits; shared by every variant's slow path. Uses the
    /// clz-style trimmed-word scan: words are visited from the highest
    /// stored row group downward, skipping zero runs with
    /// `leading_zeros` (§III-B4) — trimmed all-zero high-row words cost
    /// nothing at all (§III-B3).
    fn walk_from<B: BitSource>(&self, start_col: usize, mut d: i64, bits: &mut B) -> SignedSample {
        for col in start_col..self.pmat.cols() {
            d = 2 * d + bits.take_bit() as i64;
            let colw = self.pmat.trimmed_column(col);
            for (wi, &word) in colw.words.iter().enumerate().rev() {
                let mut w = word;
                let mut off = 0u32; // bits already consumed from the MSB side
                while w != 0 {
                    let z = w.leading_zeros();
                    off += z;
                    // A set bit at bit position 31 - off of the original
                    // word, i.e. row 32*wi + (31 - off).
                    d -= 1;
                    if d < 0 {
                        let row = (32 * wi + 31 - off as usize) as u16;
                        let negative = bits.take_bit() == 1;
                        return SignedSample::new(row, negative);
                    }
                    w = (w << z) << 1;
                    off += 1;
                }
            }
        }
        // Walk exhausted all precision bits (probability < 2^-cols):
        // Algorithm 1 line 11 returns 0.
        SignedSample::new(0, false)
    }

    /// Literal Algorithm 1: one random bit per level, then a per-bit scan
    /// of the column from `MAXROW` down to row 0.
    pub fn sample_basic<B: BitSource>(&self, bits: &mut B) -> SignedSample {
        let mut d: i64 = 0;
        for col in 0..self.pmat.cols() {
            d = 2 * d + bits.take_bit() as i64;
            if let Some(row) = Self::scan_column(&self.pmat, col, &mut d) {
                let negative = bits.take_bit() == 1;
                return SignedSample::new(row as u16, negative);
            }
        }
        SignedSample::new(0, false)
    }

    /// Prior-art variant (Roy et al., cited in §III-B4): per-column
    /// Hamming weights let the scan skip every column in which no terminal
    /// node can occur (`d ≥ HW(col)` ⇒ subtract the weight and move on).
    #[allow(clippy::needless_range_loop)] // column index mirrors the paper's scan
    pub fn sample_hw<B: BitSource>(&self, bits: &mut B) -> SignedSample {
        let hw = self.pmat.hamming_weights();
        let mut d: i64 = 0;
        for col in 0..self.pmat.cols() {
            d = 2 * d + bits.take_bit() as i64;
            if d >= hw[col] as i64 {
                d -= hw[col] as i64;
                continue;
            }
            // d < HW(col): the terminal node is in this column.
            let row = Self::scan_column(&self.pmat, col, &mut d)
                .expect("d < HW(col) guarantees a terminal in this column");
            let negative = bits.take_bit() == 1;
            return SignedSample::new(row as u16, negative);
        }
        SignedSample::new(0, false)
    }

    /// The paper's §III-B4 variant: trimmed column words plus `clz`-based
    /// zero-run skipping, so only set bits cost work.
    pub fn sample_clz<B: BitSource>(&self, bits: &mut B) -> SignedSample {
        self.walk_from(0, 0, bits)
    }

    /// Algorithm 2 with the first lookup table only: 8 random bits index a
    /// 256-entry table covering DDG levels 1–8 (97.27% hit rate for P1);
    /// misses fall back to the bit scan from level 9.
    pub fn sample_lut1<B: BitSource>(&self, bits: &mut B) -> SignedSample {
        let index = bits.take_bits(LUT1_LEVELS as u32) as usize;
        let e = self.lut1[index];
        if e & 0x80 == 0 {
            let negative = bits.take_bit() == 1;
            return SignedSample::new(e as u16, negative);
        }
        self.walk_from(LUT1_LEVELS, (e & 0x7F) as i64, bits)
    }

    /// Full Algorithm 2: both lookup tables (levels 1–13, 99.87% combined
    /// hit rate for P1), then the bit scan for the remaining tail. This is
    /// the paper's production sampler — the 28.5-cycles-per-sample path.
    pub fn sample_lut<B: BitSource>(&self, bits: &mut B) -> SignedSample {
        let index = bits.take_bits(LUT1_LEVELS as u32) as usize;
        let e = self.lut1[index];
        if e & 0x80 == 0 {
            let negative = bits.take_bit() == 1;
            return SignedSample::new(e as u16, negative);
        }
        self.finish_lut_miss((e & 0x7F) as u32, bits)
    }

    /// Continuation of [`KnuthYao::sample_lut`] after a LUT1 miss with
    /// distance `d`: the LUT2 probe, then the bit-scan tail.
    fn finish_lut_miss<B: BitSource>(&self, d: u32, bits: &mut B) -> SignedSample {
        let r5 = bits.take_bits(LUT2_LEVELS as u32);
        let e2 = self.lut2[((d << LUT2_LEVELS) | r5) as usize];
        if e2 & 0x80 == 0 {
            let negative = bits.take_bit() == 1;
            return SignedSample::new(e2 as u16, negative);
        }
        self.walk_from(LUT1_LEVELS + LUT2_LEVELS, (e2 & 0x7F) as i64, bits)
    }

    /// Samples `n` coefficients directly as residues modulo `q` (the error
    /// polynomial generation step: each key generation draws 2n of these,
    /// each encryption 3n).
    pub fn sample_poly_zq<B: BitSource>(&self, n: usize, q: u32, bits: &mut B) -> Vec<u32> {
        let mut out = vec![0u32; n];
        self.sample_poly_zq_into(q, bits, &mut out);
        out
    }

    /// Allocation-free sibling of [`KnuthYao::sample_poly_zq`]: fills a
    /// caller-provided buffer with residues (the `_into` scheme paths draw
    /// their error polynomials through this).
    pub fn sample_poly_zq_into<B: BitSource>(&self, q: u32, bits: &mut B, out: &mut [u32]) {
        for c in out.iter_mut() {
            *c = self.sample_lut(bits).to_zq(q);
        }
    }

    /// [`KnuthYao::sample_poly_zq_into`] generic over the reduction
    /// strategy: the per-coefficient sign application goes through
    /// [`Reducer::signed_residue`] (masked, monomorphized), so a
    /// context built on a specialized reducer draws error polynomials
    /// with compile-time constants. Bit-stream- and value-identical to
    /// the `q`-taking sibling for the matching modulus.
    pub fn sample_poly_reduced_into<R: Reducer, B: BitSource>(
        &self,
        r: &R,
        bits: &mut B,
        out: &mut [u32],
    ) {
        for c in out.iter_mut() {
            *c = self.sample_lut(bits).to_zq_with(r);
        }
    }
}

/// Result of a fixed-bit DDG walk during LUT construction.
enum WalkOutcome {
    /// A terminal node: the sampled row.
    Terminal(u32),
    /// Still internal after the covered levels, with this distance.
    Internal(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{BufferedBitSource, SplitMix64};
    use crate::GaussianSpec;

    fn sampler() -> KnuthYao {
        KnuthYao::new(ProbabilityMatrix::paper_p1().unwrap()).unwrap()
    }

    #[test]
    fn lut_sizes_match_paper() {
        let ky = sampler();
        assert_eq!(ky.lut1_len(), 256);
        assert_eq!(ky.lut1_max_distance(), 6, "paper: d in 0..=6 for P1");
        assert_eq!(ky.lut2_len(), 224, "paper: 224-element second LUT");
    }

    #[test]
    fn p2_luts_build_too() {
        let ky = KnuthYao::new(ProbabilityMatrix::paper_p2().unwrap()).unwrap();
        assert_eq!(ky.lut1_len(), 256);
        assert!(ky.lut2_len().is_multiple_of(32));
    }

    #[test]
    fn scan_variants_are_bitstream_identical() {
        let ky = sampler();
        let mut basic = BufferedBitSource::new(SplitMix64::new(1001));
        let mut hw = basic.clone();
        let mut clz = basic.clone();
        for i in 0..5000 {
            let a = ky.sample_basic(&mut basic);
            let b = ky.sample_hw(&mut hw);
            let c = ky.sample_clz(&mut clz);
            assert_eq!(a, b, "hw diverged at sample {i}");
            assert_eq!(a, c, "clz diverged at sample {i}");
        }
        assert_eq!(basic.bits_drawn(), hw.bits_drawn());
        assert_eq!(basic.bits_drawn(), clz.bits_drawn());
    }

    #[test]
    fn lut_variants_match_basic_magnitudes() {
        // The LUT path consumes bits in fixed blocks, so only the
        // magnitude (not the sign position) can be compared per sample.
        let ky = sampler();
        for seed in 0..2000u64 {
            let mut s1 = BufferedBitSource::new(SplitMix64::new(seed));
            let mut s2 = s1.clone();
            let mut s3 = s1.clone();
            let a = ky.sample_basic(&mut s1);
            let b = ky.sample_lut1(&mut s2);
            let c = ky.sample_lut(&mut s3);
            assert_eq!(a.magnitude(), b.magnitude(), "lut1 diverged, seed {seed}");
            assert_eq!(a.magnitude(), c.magnitude(), "lut diverged, seed {seed}");
        }
    }

    #[test]
    fn magnitudes_stay_in_support() {
        let ky = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(3));
        for _ in 0..20_000 {
            let s = ky.sample_lut(&mut bits);
            assert!(s.magnitude() < 55);
        }
    }

    #[test]
    fn signs_are_balanced() {
        let ky = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(17));
        let negatives = (0..40_000)
            .filter(|_| ky.sample_lut(&mut bits).is_negative())
            .count();
        assert!(
            (18_500..=21_500).contains(&negatives),
            "negatives = {negatives}"
        );
    }

    #[test]
    fn zq_mapping_handles_zero_and_sign() {
        assert_eq!(SignedSample::new(0, true).to_zq(7681), 0);
        assert_eq!(SignedSample::new(0, false).to_zq(7681), 0);
        assert_eq!(SignedSample::new(3, true).to_zq(7681), 7678);
        assert_eq!(SignedSample::new(3, false).to_zq(7681), 3);
        assert_eq!(SignedSample::new(3, true).signed_value(), -3);
    }

    #[test]
    fn lut_hit_rates_match_fig2() {
        // 97.27% of LUT1 *probability mass* resolves within 8 levels.
        // Estimate empirically with the production sampler.
        let ky = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(99));
        let n = 100_000;
        let mut lut1_hits = 0u32;
        for _ in 0..n {
            let before = bits.bits_drawn();
            ky.sample_lut(&mut bits);
            let used = bits.bits_drawn() - before;
            // A LUT1 hit consumes exactly 8 + 1 bits.
            if used == 9 {
                lut1_hits += 1;
            }
        }
        let rate = lut1_hits as f64 / n as f64;
        assert!(
            (rate - 0.9727).abs() < 0.01,
            "LUT1 hit rate {rate} differs from the paper's 97.27%"
        );
    }

    #[test]
    fn average_bits_per_sample_is_near_entropy() {
        // Knuth-Yao is near-optimal in consumed randomness: for the basic
        // scan the expected bit count is the average terminal depth ≈
        // Σ levels · P(level) ≈ 5–7 bits, plus 1 sign bit.
        let ky = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(7));
        let n = 50_000u64;
        for _ in 0..n {
            ky.sample_basic(&mut bits);
        }
        let avg = bits.bits_drawn() as f64 / n as f64;
        assert!(avg > 4.0 && avg < 9.0, "avg bits/sample = {avg}");
    }

    #[test]
    fn empirical_mean_and_variance() {
        let ky = sampler();
        let spec = GaussianSpec::p1();
        let mut bits = BufferedBitSource::new(SplitMix64::new(1234));
        let n = 200_000;
        let mut sum = 0f64;
        let mut sum_sq = 0f64;
        for _ in 0..n {
            let v = ky.sample_lut(&mut bits).signed_value() as f64;
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        let sigma2 = spec.sigma() * spec.sigma();
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!(
            (var / sigma2 - 1.0).abs() < 0.05,
            "variance {var} vs sigma^2 {sigma2}"
        );
    }

    #[test]
    fn sample_poly_reduces_mod_q() {
        let ky = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(8));
        let poly = ky.sample_poly_zq(256, 7681, &mut bits);
        assert_eq!(poly.len(), 256);
        for &c in &poly {
            assert!(c < 7681);
            let centered = if c > 7681 / 2 {
                c as i64 - 7681
            } else {
                c as i64
            };
            assert!(centered.abs() < 55);
        }
    }
}
