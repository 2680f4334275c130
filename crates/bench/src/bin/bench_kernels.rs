//! Matmul kernel benchmark: the cache-blocked register-tiled kernel
//! (`mb_tensor::Tensor::matmul`) against the naive triple loop
//! (`mb_tensor::kernels::matmul_reference`) at 64/256/512, plus the
//! transposed variant. Verifies bit-identity of both products before
//! timing, then writes
//! `target/experiments/BENCH_kernels.{txt,json}`.

use mb_bench::harness::Harness;
use mb_common::Rng;
use mb_tensor::kernels::matmul_reference;
use mb_tensor::Tensor;

fn main() {
    let mut h = Harness::new();
    let mut rng = Rng::seed_from_u64(42);
    for n in [64usize, 256, 512] {
        let a = Tensor::randn(vec![n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(vec![n, n], 0.0, 1.0, &mut rng);
        // The blocked kernel must be *bit-identical* to the reference
        // (it only regroups which elements are computed together, never
        // the per-element accumulation order) — check before timing.
        let want = matmul_reference(&a, &b, false);
        let got = a.matmul(&b);
        assert_eq!(want.data(), got.data(), "blocked kernel diverged from reference at {n}");
        let want_t = matmul_reference(&a, &b, true);
        assert_eq!(want_t.data(), a.matmul_t(&b).data(), "blocked matmul_t diverged at {n}");

        h.bench_units(&format!("matmul/naive/{n}"), flops(n), "flop", || {
            std::hint::black_box(matmul_reference(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                false,
            ));
        });
        h.bench_units(&format!("matmul/blocked/{n}"), flops(n), "flop", || {
            std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b)));
        });
        h.bench_units(&format!("matmul_t/blocked/{n}"), flops(n), "flop", || {
            std::hint::black_box(std::hint::black_box(&a).matmul_t(std::hint::black_box(&b)));
        });
    }
    h.report("Matmul kernels: naive reference vs cache-blocked", "BENCH_kernels");
    speedup_summary(&h);
}

/// Multiply–add counted as two floating-point operations.
fn flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Print the blocked-over-naive speedup per size (the acceptance
/// metric), computed from the recorded medians.
fn speedup_summary(h: &Harness) {
    println!("\nspeedup (naive median / blocked median):");
    for n in [64usize, 256, 512] {
        let median = |name: &str| h.results().iter().find(|m| m.name == name).map(|m| m.median_ns);
        if let (Some(naive), Some(blocked)) =
            (median(&format!("matmul/naive/{n}")), median(&format!("matmul/blocked/{n}")))
        {
            println!("  {n}x{n}: {:.2}x", naive / blocked);
        }
    }
}
