//! Counting-allocator proof of the zero-allocation hot path.
//!
//! A global allocator wrapper counts heap allocations, bucketing
//! "polynomial-sized" requests (≥ [`POLY_BYTES`] — every n ≥ 256 ring
//! polynomial is 1 KiB+, while the SHA-256/DRBG internals allocate well
//! under that). The claims under test:
//!
//! 1. After warm-up, `encrypt_into` / `decrypt_into` perform **zero**
//!    polynomial-sized allocations per operation.
//! 2. The `_into` paths allocate ≥ 20 % fewer times than the allocating
//!    paths on the encrypt hot path (in fact they eliminate every
//!    polynomial allocation; only sub-polynomial hash/DRBG scratch
//!    remains).
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the counters.

// A counting global allocator has no safe formulation: `GlobalAlloc`
// is an unsafe trait. Along with rlwe-ntt's scoped AVX2 kernel module
// (see that crate's lib.rs), this is one of the two audited exceptions
// to the workspace-wide unsafe ban.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rlwe_core::drbg::HashDrbg;
use rlwe_core::{ParamSet, RlweContext};

/// Allocations at or above this size count as polynomial-sized
/// (P1 polynomials are 256 × 4 = 1024 bytes).
const POLY_BYTES: usize = 512;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static POLY_SIZED: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            if layout.size() >= POLY_BYTES {
                POLY_SIZED.fetch_add(1, Ordering::Relaxed);
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting enabled and returns `(total, poly_sized)`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    TOTAL.store(0, Ordering::SeqCst);
    POLY_SIZED.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    (
        TOTAL.load(Ordering::SeqCst),
        POLY_SIZED.load(Ordering::SeqCst),
    )
}

#[test]
fn into_paths_are_polynomial_allocation_free_after_warm_up() {
    const ITEMS: usize = 32;
    let ctx = RlweContext::new(ParamSet::P1).unwrap();
    let mut rng = HashDrbg::new([1u8; 32]);
    let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
    let msgs: Vec<Vec<u8>> = (0..ITEMS).map(|i| vec![i as u8; 32]).collect();
    let master = [9u8; 32];

    // --- Claim 1a: encrypt_into is poly-allocation-free after warm-up. ---
    let mut scratch = ctx.new_scratch();
    let mut ct = ctx.empty_ciphertext();
    // Warm-up: populates the scratch arena and the ciphertext buffers.
    ctx.encrypt_into(
        &pk,
        &msgs[0],
        &mut HashDrbg::for_stream(&master, 0),
        &mut ct,
        &mut scratch,
    )
    .unwrap();
    let (enc_into_total, enc_into_poly) = counted(|| {
        for (i, msg) in msgs.iter().enumerate() {
            let mut item_rng = HashDrbg::for_stream(&master, i as u64);
            ctx.encrypt_into(&pk, msg, &mut item_rng, &mut ct, &mut scratch)
                .unwrap();
        }
    });
    assert_eq!(
        enc_into_poly, 0,
        "encrypt_into made {enc_into_poly} polynomial-sized allocations across {ITEMS} items"
    );

    // --- Claim 1b: decrypt_into is poly-allocation-free after warm-up. ---
    let cts: Vec<_> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut item_rng = HashDrbg::for_stream(&master, i as u64);
            ctx.encrypt(&pk, m, &mut item_rng).unwrap()
        })
        .collect();
    let mut plain = Vec::with_capacity(32);
    ctx.decrypt_into(&sk, &cts[0], &mut plain, &mut scratch)
        .unwrap();
    let (_, dec_into_poly) = counted(|| {
        for ct in &cts {
            ctx.decrypt_into(&sk, ct, &mut plain, &mut scratch).unwrap();
        }
    });
    assert_eq!(
        dec_into_poly, 0,
        "decrypt_into made {dec_into_poly} polynomial-sized allocations across {ITEMS} items"
    );

    // --- Claim 2: ≥ 20 % fewer allocations than the allocating path. ---
    let (enc_alloc_total, enc_alloc_poly) = counted(|| {
        for (i, msg) in msgs.iter().enumerate() {
            let mut item_rng = HashDrbg::for_stream(&master, i as u64);
            std::hint::black_box(ctx.encrypt(&pk, msg, &mut item_rng).unwrap());
        }
    });
    assert!(
        enc_alloc_poly >= 5 * ITEMS as u64,
        "expected ≥5 polynomial allocations per allocating encrypt, saw {enc_alloc_poly}"
    );
    // The _into path eliminates 100% of polynomial allocations, far past
    // the ≥20% bar; assert the bar against it explicitly.
    assert!(
        enc_into_poly * 10 <= enc_alloc_poly * 8,
        "encrypt_into must make ≥20% fewer polynomial allocations \
         ({enc_into_poly} vs {enc_alloc_poly})"
    );
    // And strictly fewer allocations overall (hash/DRBG noise included).
    assert!(
        enc_into_total < enc_alloc_total,
        "encrypt_into must allocate less in total ({enc_into_total} vs {enc_alloc_total})"
    );

    // --- Engine batch path: zero per-item poly allocations after warm-up.
    // workers=1 keeps the whole batch on this thread so the counters see
    // exactly the batch's allocations (thread spawns are per-batch anyway).
    let mut out: Vec<_> = (0..ITEMS).map(|_| ctx.empty_ciphertext()).collect();
    rlwe_engine::encrypt_batch_into(&ctx, &pk, &msgs, &master, 1, &mut out).unwrap();
    let (_, batch_poly) = counted(|| {
        rlwe_engine::encrypt_batch_into(&ctx, &pk, &msgs, &master, 1, &mut out).unwrap();
    });
    // One worker-local PolyScratch is created per batch; its three buffers
    // are the only polynomial-sized allocations allowed — i.e. a constant
    // per *batch*, zero per *item*.
    assert!(
        batch_poly <= 4,
        "batch of {ITEMS} made {batch_poly} polynomial-sized allocations \
         (must be O(1) per batch, not O(items))"
    );
    for (a, b) in cts.iter().zip(&out) {
        assert_eq!(a, b, "batch _into output must match the allocating path");
    }
}
