//! Quick ad-hoc timing: scalar vs AVX2 forward/inverse (dev aid).
use rlwe_ntt::NttPlan;
use std::time::Instant;

fn time_ns(mut f: impl FnMut(), reps: u32) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

fn main() {
    let plan = NttPlan::new(512, 12289).unwrap();
    let a: Vec<u32> = (0..512u32).map(|i| (i * 97 + 3) % 12289).collect();
    let mut buf = a.clone();
    let reps = 20_000;
    println!("has_avx2 = {}", plan.has_avx2());
    let scalar = time_ns(|| plan.forward(std::hint::black_box(&mut buf)), reps);
    let avx2 = time_ns(|| plan.forward_avx2(std::hint::black_box(&mut buf)), reps);
    println!(
        "forward  scalar {scalar:8.1} ns   avx2 {avx2:8.1} ns   speedup {:.2}x",
        scalar / avx2
    );
    let scalar_i = time_ns(|| plan.inverse(std::hint::black_box(&mut buf)), reps);
    let avx2_i = time_ns(|| plan.inverse_avx2(std::hint::black_box(&mut buf)), reps);
    println!(
        "inverse  scalar {scalar_i:8.1} ns   avx2 {avx2_i:8.1} ns   speedup {:.2}x",
        scalar_i / avx2_i
    );
}
