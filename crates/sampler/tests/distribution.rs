//! Distribution-level integration tests: every sampler (Knuth-Yao ladder,
//! CDT, rejection) must produce the same discrete Gaussian, verified with
//! chi-square goodness-of-fit against the exact matrix probabilities.

use rlwe_sampler::cdt::CdtSampler;
use rlwe_sampler::random::{BitSource, BufferedBitSource, SplitMix64};
use rlwe_sampler::rejection::RejectionSampler;
use rlwe_sampler::{stats, KnuthYao, ProbabilityMatrix, SignedSample};

const N_SAMPLES: usize = 400_000;
const MAX_MAG: u32 = 16;
/// Chi-square critical value for 32 degrees of freedom at α ≈ 0.0005,
/// with margin. Seeds are fixed, so failures are deterministic signals,
/// not flakes.
const CHI2_LIMIT: f64 = 75.0;

fn chi2_of<F: FnMut(&mut BufferedBitSource<SplitMix64>) -> SignedSample>(
    pmat: &ProbabilityMatrix,
    seed: u64,
    mut f: F,
) -> f64 {
    let mut bits = BufferedBitSource::new(SplitMix64::new(seed));
    let samples: Vec<i32> = (0..N_SAMPLES)
        .map(|_| f(&mut bits).signed_value())
        .collect();
    let observed = stats::observed_signed_histogram(&samples, MAX_MAG);
    let (_, expected) = stats::expected_signed_histogram(pmat, N_SAMPLES as u64, MAX_MAG);
    stats::chi_square(&observed, &expected)
}

#[test]
fn knuth_yao_lut_fits_the_exact_distribution() {
    let pmat = ProbabilityMatrix::paper_p1().unwrap();
    let ky = KnuthYao::new(pmat.clone()).unwrap();
    let chi2 = chi2_of(&pmat, 0xA11CE, |b| ky.sample_lut(b));
    assert!(chi2 < CHI2_LIMIT, "chi2 = {chi2}");
}

#[test]
fn knuth_yao_basic_fits_the_exact_distribution() {
    let pmat = ProbabilityMatrix::paper_p1().unwrap();
    let ky = KnuthYao::new(pmat.clone()).unwrap();
    let chi2 = chi2_of(&pmat, 0xB0B, |b| b.clone_sample(&ky));
    assert!(chi2 < CHI2_LIMIT, "chi2 = {chi2}");
}

/// Helper trait so the basic variant reads naturally above.
trait SampleExt {
    fn clone_sample(&mut self, ky: &KnuthYao) -> SignedSample;
}
impl SampleExt for BufferedBitSource<SplitMix64> {
    fn clone_sample(&mut self, ky: &KnuthYao) -> SignedSample {
        ky.sample_basic(self)
    }
}

#[test]
fn cdt_fits_the_exact_distribution() {
    let pmat = ProbabilityMatrix::paper_p1().unwrap();
    let cdt = CdtSampler::new(&pmat);
    let chi2 = chi2_of(&pmat, 0xCD7, |b| cdt.sample(b));
    assert!(chi2 < CHI2_LIMIT, "chi2 = {chi2}");
}

#[test]
fn rejection_fits_the_exact_distribution() {
    let pmat = ProbabilityMatrix::paper_p1().unwrap();
    let rej = RejectionSampler::new(&pmat);
    let chi2 = chi2_of(&pmat, 0x4E1, |b| rej.sample(b));
    assert!(chi2 < CHI2_LIMIT, "chi2 = {chi2}");
}

#[test]
fn p2_sampler_fits_its_own_distribution() {
    let pmat = ProbabilityMatrix::paper_p2().unwrap();
    let ky = KnuthYao::new(pmat.clone()).unwrap();
    let chi2 = chi2_of(&pmat, 0x9D2, |b| ky.sample_lut(b));
    assert!(chi2 < CHI2_LIMIT, "chi2 = {chi2}");
}

mod cross_rung_identity {
    //! The context builder exposes four sampler rungs (Basic / Lut1 / Lut
    //! / CtCdt). They consume random bits differently, but every rung
    //! must draw the *same* discrete Gaussian — these property tests pin
    //! that identity across random seeds, so a table-construction bug in
    //! any one rung (including the constant-time CDT path) shows up as a
    //! distribution divergence rather than a silent security-margin loss.

    use super::*;
    use proptest::prelude::*;
    use rlwe_sampler::ct::CtCdtSampler;

    const RUNG_SAMPLES: usize = 120_000;
    /// Looser than the fixed-seed limit: seeds are random here, so leave
    /// statistical headroom (32 d.o.f.; P[chi2 > 90] ≈ 2e-7 per rung).
    const RUNG_CHI2_LIMIT: f64 = 90.0;

    fn rung_chi2<F: FnMut(&mut BufferedBitSource<SplitMix64>) -> SignedSample>(
        pmat: &ProbabilityMatrix,
        seed: u64,
        mut f: F,
    ) -> f64 {
        let mut bits = BufferedBitSource::new(SplitMix64::new(seed));
        let samples: Vec<i32> = (0..RUNG_SAMPLES)
            .map(|_| f(&mut bits).signed_value())
            .collect();
        let observed = stats::observed_signed_histogram(&samples, MAX_MAG);
        let (_, expected) = stats::expected_signed_histogram(pmat, RUNG_SAMPLES as u64, MAX_MAG);
        stats::chi_square(&observed, &expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn every_rung_draws_the_same_distribution(seed in any::<u64>()) {
            let pmat = ProbabilityMatrix::paper_p1().unwrap();
            let ky = KnuthYao::new(pmat.clone()).unwrap();
            let ct = CtCdtSampler::new(&pmat);
            let rungs: [(&str, f64); 4] = [
                ("basic", rung_chi2(&pmat, seed, |b| ky.sample_basic(b))),
                ("lut1", rung_chi2(&pmat, seed ^ 1, |b| ky.sample_lut1(b))),
                ("lut", rung_chi2(&pmat, seed ^ 2, |b| ky.sample_lut(b))),
                ("ctcdt", rung_chi2(&pmat, seed ^ 3, |b| ct.sample(b))),
            ];
            for (name, chi2) in rungs {
                prop_assert!(
                    chi2 < RUNG_CHI2_LIMIT,
                    "rung {} diverged from the exact distribution: chi2 = {}",
                    name,
                    chi2
                );
            }
        }

        #[test]
        fn vectorized_block_path_draws_the_same_distribution(seed in any::<u64>()) {
            // The 8-lane block fill (AVX2 table scan where the host has
            // it) must draw the identical Gaussian: chi-square the block
            // path's output directly, and pin bit-identity against the
            // per-sample scalar rung on the same stream.
            let pmat = ProbabilityMatrix::paper_p1().unwrap();
            let ct = CtCdtSampler::new(&pmat);
            let mut blk_bits = BufferedBitSource::buffered(SplitMix64::new(seed));
            let mut block = vec![SignedSample::new(0, false); RUNG_SAMPLES];
            ct.sample_block_into(&mut blk_bits, &mut block);
            let samples: Vec<i32> = block.iter().map(|s| s.signed_value()).collect();
            let observed = stats::observed_signed_histogram(&samples, MAX_MAG);
            let (_, expected) =
                stats::expected_signed_histogram(&pmat, RUNG_SAMPLES as u64, MAX_MAG);
            let chi2 = stats::chi_square(&observed, &expected);
            prop_assert!(
                chi2 < RUNG_CHI2_LIMIT,
                "vectorized block path diverged from the exact distribution: chi2 = {}",
                chi2
            );
            // Bit-identity with the scalar rung on the same stream.
            let mut ref_bits = BufferedBitSource::new(SplitMix64::new(seed));
            for (i, &got) in block.iter().take(2_000).enumerate() {
                prop_assert_eq!(got, ct.sample(&mut ref_bits), "diverged at sample {}", i);
            }
        }

        #[test]
        fn ct_rung_matches_variable_time_cdt_bit_for_bit(seed in any::<u64>()) {
            // Stronger than distribution identity: on the same bit stream
            // the CT sampler and the variable-time CDT sampler invert the
            // same cumulative table, so their magnitudes must agree
            // sample for sample.
            let pmat = ProbabilityMatrix::paper_p1().unwrap();
            let ct = CtCdtSampler::new(&pmat);
            let vt = CdtSampler::new(&pmat);
            let mut b1 = BufferedBitSource::new(SplitMix64::new(seed));
            let mut b2 = b1.clone();
            for i in 0..5_000 {
                let a = ct.sample(&mut b1);
                let b = vt.sample(&mut b2);
                prop_assert_eq!(a.magnitude(), b.magnitude(), "diverged at sample {}", i);
            }
        }
    }
}

#[test]
fn bit_budget_ordering_ky_vs_cdt_vs_rejection() {
    // The paper's motivation: KY needs ~6.3 bits/sample, CDT a fixed 129,
    // rejection tens. Verify the ordering holds.
    let pmat = ProbabilityMatrix::paper_p1().unwrap();
    let ky = KnuthYao::new(pmat.clone()).unwrap();
    let cdt = CdtSampler::new(&pmat);
    let rej = RejectionSampler::new(&pmat);
    let n = 20_000u64;

    let mut b1 = BufferedBitSource::new(SplitMix64::new(1));
    for _ in 0..n {
        ky.sample_lut(&mut b1);
    }
    let ky_bits = b1.bits_drawn() as f64 / n as f64;

    let mut b2 = BufferedBitSource::new(SplitMix64::new(2));
    for _ in 0..n {
        cdt.sample(&mut b2);
    }
    let cdt_bits = b2.bits_drawn() as f64 / n as f64;

    let mut b3 = BufferedBitSource::new(SplitMix64::new(3));
    for _ in 0..n {
        rej.sample(&mut b3);
    }
    let rej_bits = b3.bits_drawn() as f64 / n as f64;

    assert!(ky_bits < 12.0, "KY used {ky_bits} bits/sample");
    assert!(
        ky_bits < rej_bits && rej_bits < cdt_bits,
        "expected KY < rejection < CDT, got {ky_bits} / {rej_bits} / {cdt_bits}"
    );
    assert_eq!(cdt_bits, 129.0);
}
