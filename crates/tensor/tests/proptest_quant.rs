//! Property tests pinning the quantization error contract (DESIGN.md
//! §12): int8 round-trips stay within half a quantization step, and
//! the dequantize-free int8 dot product is exactly the
//! integer-accumulated reference — not merely close to it.

use mb_check::gen;
use mb_check::{prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_tensor::quant::{quantize_i8, QuantI8};
use mb_tensor::{frozen, Tensor};

/// Values spanning ~1e-10 .. 6e4 in magnitude with random sign, plus
/// exact zeros.
fn wide_range_values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.below(16) == 0 {
                return 0.0;
            }
            let mag = rng.below(20) as i32 - 10; // 10^-10 .. 10^9 pre-clamp
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            let v = sign * (0.1 + rng.f64()) * 10f64.powi(mag);
            v.clamp(-60000.0, 60000.0)
        })
        .collect()
}

/// A rank-2 table of [`wide_range_values`].
fn table(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_vec(vec![rows, cols], wide_range_values(rows * cols, seed))
}

mb_check::check! {
    #![config(cases = 64)]

    fn int8_round_trip_stays_within_half_a_step(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let cols = 1 + rng.below(48);
        let row = wide_range_values(cols, seed ^ 1);
        let (codes, scale) = quantize_i8(&row);
        let max_abs = row.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if max_abs == 0.0 {
            prop_assert_eq!(scale, 0.0);
            prop_assert!(codes.iter().all(|&q| q == 0));
            return Ok(());
        }
        prop_assert_eq!(scale, max_abs / 127.0, "scale is max_abs/127");
        for (&q, &x) in codes.iter().zip(&row) {
            let err = (f64::from(q) * scale - x).abs();
            // Half a step, with headroom for the two float roundings.
            prop_assert!(err <= scale * 0.5000001, "x={} q={} err={} scale={}", x, q, err, scale);
            prop_assert!((-127..=127).contains(&i32::from(q)));
        }
    }

    fn int8_dot_is_exactly_the_integer_reference(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (rows, cols) = (1 + rng.below(40), 1 + rng.below(32));
        let t = table(rows, cols, seed ^ 2);
        let quant = QuantI8::from_tensor(&t);
        let query = wide_range_values(cols, seed ^ 3);
        let (q_codes, q_scale) = quantize_i8(&query);
        let want: Vec<f64> = (0..rows)
            .map(|i| {
                let scale = quant.scales()[i];
                if scale == 0.0 {
                    return 0.0; // all-zero row quantizes to all-zero codes
                }
                let acc: i64 = (0..cols)
                    .map(|j| {
                        let code = (t.row(i)[j] / scale).round().clamp(-127.0, 127.0);
                        code as i64 * i64::from(q_codes[j])
                    })
                    .sum();
                acc as f64 * (scale * q_scale)
            })
            .collect();
        // Integer accumulation is exact, so the kernel must reproduce
        // the reference bit for bit.
        let got = quant.score_all(&query);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            prop_assert_eq!(w.to_bits(), g.to_bits(), "row {}", i);
        }
    }

    fn bag_embed_matches_a_naive_per_element_reference(seed in gen::u64_any()) {
        // The f64 and int8 `bag_embed_row` share one pooling loop and
        // supply only the row accumulate; each must equal a reference
        // that shares neither: element `(bag, j)` summed through
        // `get(id, j)`, bit for bit — quantization error enters through
        // the stored values only, never through the pooling order.
        let mut rng = Rng::seed_from_u64(seed);
        let (rows, cols) = (2 + rng.below(30), 1 + rng.below(24));
        let t = table(rows, cols, seed ^ 4);
        // Repeated ids, empty bags, and singletons all included.
        let bags: Vec<Vec<u32>> = (0..1 + rng.below(12))
            .map(|_| (0..rng.below(6)).map(|_| rng.below(rows) as u32).collect())
            .collect();
        let naive = |get: &dyn Fn(usize, usize) -> f64| -> Vec<u64> {
            let mut out = Vec::new();
            for bag in &bags {
                let inv = 1.0 / bag.len() as f64;
                for j in 0..cols {
                    let pooled = bag.iter().fold(0.0, |acc, &id| acc + inv * get(id as usize, j));
                    out.push(pooled.to_bits());
                }
            }
            out
        };
        // Every bag is pooled into one reused row, left dirty by the
        // bag before: the row forms overwrite it.
        let pooled = |pool: &dyn Fn(&[u32], &mut [f64])| -> Vec<u64> {
            let mut row = vec![f64::NAN; cols];
            let mut out = Vec::new();
            for bag in &bags {
                pool(bag, &mut row);
                out.extend(row.iter().map(|v| v.to_bits()));
            }
            out
        };
        let i8t = QuantI8::from_tensor(&t);
        let f64_rows = pooled(&|bag, row| frozen::bag_embed_row(&t, bag, row));
        prop_assert_eq!(f64_rows, naive(&|i, j| t.at(i, j)), "f64");
        let i8_rows = pooled(&|bag, row| i8t.bag_embed_row(bag, row));
        prop_assert_eq!(i8_rows, naive(&|i, j| i8t.get(i, j)), "int8");
    }
}
