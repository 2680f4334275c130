//! Quantized embedding tables for the tape-free serving path.
//!
//! Frozen embedding tables (see [`crate::frozen`]) can be stored in
//! IEEE-754 binary16 ([`QuantF16`], 4× smaller than the `f64` master
//! copy) or per-row symmetric int8 ([`QuantI8`], ~8× smaller). Unlike
//! the `f64` forward — the same kernels the training graph runs, so
//! bit-identical to it — quantized scoring carries a **bounded-error
//! contract** instead of bit equality:
//!
//! - **f16 round-trip**: `f16_to_f64(f16_from_f64(x))` is within half
//!   an f16 ulp of `x` (relative error ≤ 2⁻¹¹ over the normal range,
//!   absolute error ≤ 2⁻²⁵ in the subnormal range); conversion rounds
//!   to nearest, ties to even.
//! - **int8 round-trip**: each row is quantized against its own scale
//!   `max_abs(row)/127`, so every dequantized element is within
//!   `scale/2` of the original.
//! - **Scoring**: dot products accumulate over dequantized values (f16)
//!   or exactly in integers before one final scale multiplication
//!   (int8), so score error is bounded by the per-element round-trip
//!   bounds — the property suites in `tests/proptest_quant.rs` pin both
//!   the bounds and top-k agreement against exact `f64` scoring.
//!
//! Quantization itself happens **once** at model-freeze time
//! (`ServeModel::from_checkpoint`); no serving-path code re-quantizes a
//! table or allocates a dequantized copy.

use crate::frozen::pool_bags;
use crate::kernels;
use crate::tensor::Tensor;
use mb_par::Threads;

/// How a frozen embedding table is stored and scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Keep the `f64` master copy: bit-identical to the training graph.
    #[default]
    Exact,
    /// IEEE-754 binary16 storage (4× smaller), bounded-error scoring.
    F16,
    /// Per-row symmetric int8 storage (~8× smaller), bounded-error
    /// scoring with exact integer accumulation.
    Int8,
}

/// Round `sig` right by `shift` bits, to nearest, ties to even.
/// `shift` must be in `1..=63`.
fn round_even(sig: u64, shift: u32) -> u64 {
    let kept = sig >> shift;
    let rem = sig & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rem > half || (rem == half && kept & 1 == 1) {
        kept + 1
    } else {
        kept
    }
}

/// Exact power of two `2^n` for `n` in the f64 normal exponent range.
fn exp2i(n: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&n));
    f64::from_bits(((n + 1023) as u64) << 52)
}

/// Convert an `f64` to IEEE-754 binary16 bits, rounding to nearest
/// with ties to even. Values beyond ±65504 overflow to ±infinity after
/// rounding; NaN maps to a quiet NaN.
pub fn f16_from_f64(x: f64) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 48) & 0x8000) as u16;
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let mant = bits & ((1u64 << 52) - 1);
    if exp == 0x7ff {
        // Infinity stays infinity; NaN keeps a quiet payload bit.
        return sign | 0x7c00 | if mant != 0 { 0x200 } else { 0 };
    }
    if exp == 0 {
        // f64 subnormals are far below half the smallest f16 subnormal.
        return sign;
    }
    let unbiased = exp - 1023;
    if unbiased >= 16 {
        return sign | 0x7c00; // beyond the f16 exponent range pre-rounding
    }
    // 53-bit significand; the value is `sig * 2^(unbiased - 52)`.
    let sig = (1u64 << 52) | mant;
    if unbiased >= -14 {
        // Normal f16: keep an 11-bit significand (implicit bit included).
        let m = round_even(sig, 42);
        let (m, e) = if m >= 1 << 11 { (m >> 1, unbiased + 16) } else { (m, unbiased + 15) };
        if e >= 31 {
            return sign | 0x7c00; // rounding carried past the top exponent
        }
        sign | ((e as u16) << 10) | ((m & 0x3ff) as u16)
    } else {
        // Subnormal f16: round to an integer multiple of 2^-24. A
        // mantissa that rounds up to 1024 lands exactly on the smallest
        // normal encoding (exponent 1, mantissa 0).
        let shift = 28 - unbiased; // ≥ 43
        if shift >= 64 {
            return sign; // underflows to zero even after rounding
        }
        sign | round_even(sig, shift as u32) as u16
    }
}

/// Convert IEEE-754 binary16 bits back to `f64` (exact: every f16
/// value is representable in f64).
pub fn f16_to_f64(h: u16) -> f64 {
    let sign = if h & 0x8000 != 0 { -1.0 } else { 1.0 };
    let e = (h >> 10) & 0x1f;
    let m = f64::from(h & 0x3ff);
    match e {
        0 => sign * m * exp2i(-24),
        0x1f => {
            if m == 0.0 {
                sign * f64::INFINITY
            } else {
                f64::NAN
            }
        }
        _ => sign * (1024.0 + m) * exp2i(i32::from(e) - 25),
    }
}

/// A rank-2 table stored as IEEE-754 binary16 (2 bytes per element).
#[derive(Debug, Clone)]
pub struct QuantF16 {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl QuantF16 {
    /// Quantize a rank-2 tensor. Happens once, at model-freeze time.
    pub fn from_tensor(t: &Tensor) -> Self {
        assert_eq!(t.rank(), 2, "QuantF16: table must be rank-2, got {:?}", t.shape());
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let data = t.data().iter().map(|&v| f16_from_f64(v)).collect();
        QuantF16 { rows, cols, data }
    }

    /// Reassemble a table from its raw binary16 bit patterns — the
    /// shard-load path of `mb-store`, which persists `bits` verbatim so
    /// reloading never re-quantizes.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when `bits.len() != rows * cols`.
    pub fn from_raw(rows: usize, cols: usize, bits: Vec<u16>) -> mb_common::Result<Self> {
        if bits.len() != rows * cols {
            return Err(mb_common::Error::shape(
                "QuantF16::from_raw",
                format!("{} elements ({rows}x{cols})", rows * cols),
                format!("{} elements", bits.len()),
            ));
        }
        Ok(QuantF16 { rows, cols, data: bits })
    }

    /// The raw binary16 bit patterns, row-major — what `from_raw`
    /// round-trips and what the shard format persists.
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    /// Number of table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of table columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Table storage footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u16>()
    }

    /// Dequantized element at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "QuantF16: ({i},{j}) out of bounds");
        f16_to_f64(self.data[i * self.cols + j])
    }

    /// Dequantize the whole table (tests and error measurement only —
    /// the serving path never materialises this).
    pub fn dequantize(&self) -> Tensor {
        let data = self.data.iter().map(|&h| f16_to_f64(h)).collect();
        Tensor::from_vec(vec![self.rows, self.cols], data)
    }

    /// Mean-pool dequantized table rows per bag, in bag order — the
    /// f16 counterpart of [`crate::frozen::bag_embed`].
    pub fn bag_embed(&self, bags: &[impl AsRef<[u32]>]) -> Tensor {
        pool_bags(self.rows, self.cols, bags, |row, id, inv| {
            let emb = &self.data[id * self.cols..(id + 1) * self.cols];
            for (r, &e) in row.iter_mut().zip(emb) {
                *r += inv * f16_to_f64(e);
            }
        })
    }

    /// Dot product of `query` against every row, dequantizing on the
    /// fly (no table-sized allocation). Bit-identical at any thread
    /// count.
    pub fn score_all(&self, query: &[f64], threads: Threads) -> Vec<f64> {
        assert_eq!(query.len(), self.cols, "QuantF16: query dim mismatch");
        kernels::score_all_f16(&self.data, self.rows, self.cols, query, threads)
    }
}

/// A rank-2 table stored as per-row symmetric int8 (1 byte per element
/// plus one `f64` scale per row).
#[derive(Debug, Clone)]
pub struct QuantI8 {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f64>,
}

/// Quantize a vector symmetrically to int8: returns the codes and the
/// scale (`max_abs/127`; a zero vector gets scale 0 and all-zero
/// codes). Every dequantized element is within `scale/2` of the input.
pub fn quantize_i8(v: &[f64]) -> (Vec<i8>, f64) {
    let max_abs = v.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 || !max_abs.is_finite() {
        return (vec![0; v.len()], 0.0);
    }
    let scale = max_abs / 127.0;
    let codes = v.iter().map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8).collect();
    (codes, scale)
}

impl QuantI8 {
    /// Quantize a rank-2 tensor row by row. Happens once, at
    /// model-freeze time.
    pub fn from_tensor(t: &Tensor) -> Self {
        assert_eq!(t.rank(), 2, "QuantI8: table must be rank-2, got {:?}", t.shape());
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for i in 0..rows {
            let (codes, scale) = quantize_i8(t.row(i));
            data.extend_from_slice(&codes);
            scales.push(scale);
        }
        QuantI8 { rows, cols, data, scales }
    }

    /// Reassemble a table from raw codes and per-row scales — the
    /// shard-load path of `mb-store`, which persists both verbatim so
    /// reloading never re-quantizes.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when `codes.len() != rows * cols`
    /// or `scales.len() != rows`.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        codes: Vec<i8>,
        scales: Vec<f64>,
    ) -> mb_common::Result<Self> {
        if codes.len() != rows * cols {
            return Err(mb_common::Error::shape(
                "QuantI8::from_raw",
                format!("{} codes ({rows}x{cols})", rows * cols),
                format!("{} codes", codes.len()),
            ));
        }
        if scales.len() != rows {
            return Err(mb_common::Error::shape(
                "QuantI8::from_raw",
                format!("{rows} scales (one per row)"),
                format!("{} scales", scales.len()),
            ));
        }
        Ok(QuantI8 { rows, cols, data: codes, scales })
    }

    /// The raw int8 codes, row-major — what `from_raw` round-trips and
    /// what the shard format persists.
    pub fn codes(&self) -> &[i8] {
        &self.data
    }

    /// Number of table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of table columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Table storage footprint in bytes (codes plus per-row scales).
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f64>()
    }

    /// Per-row quantization scales (`max_abs/127`).
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Dequantized element at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "QuantI8: ({i},{j}) out of bounds");
        f64::from(self.data[i * self.cols + j]) * self.scales[i]
    }

    /// Dequantize the whole table (tests and error measurement only —
    /// the serving path never materialises this).
    pub fn dequantize(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            let scale = self.scales[i];
            for &q in &self.data[i * self.cols..(i + 1) * self.cols] {
                data.push(f64::from(q) * scale);
            }
        }
        Tensor::from_vec(vec![self.rows, self.cols], data)
    }

    /// Mean-pool dequantized table rows per bag, in bag order — the
    /// int8 counterpart of [`crate::frozen::bag_embed`].
    pub fn bag_embed(&self, bags: &[impl AsRef<[u32]>]) -> Tensor {
        pool_bags(self.rows, self.cols, bags, |row, id, inv| {
            let scale = self.scales[id];
            let emb = &self.data[id * self.cols..(id + 1) * self.cols];
            for (r, &q) in row.iter_mut().zip(emb) {
                *r += inv * (f64::from(q) * scale);
            }
        })
    }

    /// Dot product of `query` against every row without dequantizing
    /// the table: the query is quantized once, products accumulate
    /// exactly in integers, and each row's sum is scaled back in one
    /// final multiplication. Bit-identical at any thread count.
    pub fn score_all(&self, query: &[f64], threads: Threads) -> Vec<f64> {
        assert_eq!(query.len(), self.cols, "QuantI8: query dim mismatch");
        let (q, q_scale) = quantize_i8(query);
        kernels::score_all_i8(&self.data, &self.scales, self.rows, self.cols, &q, q_scale, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_exact_values() {
        // Every value exactly representable in binary16 must survive.
        for x in [0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 65504.0, -65504.0, 0.0999755859375] {
            let rt = f16_to_f64(f16_from_f64(x));
            assert_eq!(rt, x, "{x} -> {rt}");
        }
        assert_eq!(f16_from_f64(-0.0), 0x8000);
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 2049/1024 is exactly between 2.0 (mantissa 0, even) and the
        // next representable value; ties go to the even mantissa.
        assert_eq!(f16_from_f64(2049.0 / 1024.0), f16_from_f64(2.0));
        // 2051/1024 is between 2050/1024 (odd) and 2052/1024 (even).
        assert_eq!(f16_from_f64(2051.0 / 1024.0), f16_from_f64(2052.0 / 1024.0));
    }

    #[test]
    fn f16_handles_range_edges() {
        assert_eq!(f16_to_f64(f16_from_f64(1e10)), f64::INFINITY);
        assert_eq!(f16_to_f64(f16_from_f64(-1e10)), f64::NEG_INFINITY);
        assert_eq!(f16_from_f64(65520.0), 0x7c00); // rounds up to inf
        assert_eq!(f16_to_f64(f16_from_f64(65519.9)), 65504.0); // rounds down to max
        assert!(f16_to_f64(f16_from_f64(f64::NAN)).is_nan());
        // Smallest subnormal and below.
        let tiny = exp2i(-24);
        assert_eq!(f16_to_f64(f16_from_f64(tiny)), tiny);
        assert_eq!(f16_to_f64(f16_from_f64(tiny / 4.0)), 0.0);
        assert_eq!(f16_to_f64(f16_from_f64(1e-300)), 0.0);
    }

    #[test]
    fn i8_round_trip_is_within_half_scale() {
        let t = Tensor::from_vec(vec![2, 4], vec![0.1, -0.9, 0.35, 0.02, 1.0, 2.0, -3.0, 0.0]);
        let q = QuantI8::from_tensor(&t);
        for i in 0..2 {
            let scale = q.scales()[i];
            for j in 0..4 {
                let err = (q.get(i, j) - t.at(i, j)).abs();
                assert!(err <= scale / 2.0 + 1e-15, "({i},{j}): err {err} vs scale {scale}");
            }
        }
        // The row maximum hits code ±127 exactly.
        assert_eq!(q.get(1, 2), -3.0);
    }

    #[test]
    fn zero_row_quantizes_to_zero() {
        let t = Tensor::zeros(vec![3, 5]);
        let q = QuantI8::from_tensor(&t);
        assert_eq!(q.scales(), &[0.0, 0.0, 0.0]);
        assert_eq!(q.dequantize().data(), t.data());
        let f = QuantF16::from_tensor(&t);
        assert_eq!(f.dequantize().data(), t.data());
    }

    #[test]
    fn bytes_report_the_expected_shrink() {
        let t = Tensor::zeros(vec![100, 32]);
        let f64_bytes = t.numel() * std::mem::size_of::<f64>();
        assert_eq!(QuantF16::from_tensor(&t).bytes() * 4, f64_bytes);
        let i8_bytes = QuantI8::from_tensor(&t).bytes();
        assert_eq!(i8_bytes, 100 * 32 + 100 * 8);
        assert!(f64_bytes / i8_bytes >= 6);
    }
}
