//! Quantized embedding tables for the tape-free serving path.
//!
//! Frozen embedding tables (see [`crate::frozen`]) and stored entity
//! rows can be kept as per-row symmetric int8 ([`QuantI8`], ~8× smaller
//! than the `f64` master copy). Unlike the `f64` forward — the same
//! kernels the training graph runs, so bit-identical to it — quantized
//! scoring carries a **bounded-error contract** instead of bit
//! equality:
//!
//! - **Round-trip**: each row is quantized against its own scale
//!   `max_abs(row)/127`, so every dequantized element is within
//!   `scale/2` of the original.
//! - **Scoring**: dot products accumulate exactly in integers before
//!   one final scale multiplication, so score error is bounded by the
//!   per-element round-trip bound — the property suites in
//!   `tests/proptest_quant.rs` pin both the bound and top-k agreement
//!   against exact `f64` scoring.
//!
//! Quantization itself happens **once** at model-freeze time
//! (`ServeModel::from_checkpoint`); no serving-path code re-quantizes a
//! table or allocates a dequantized copy.

use crate::frozen::pool_row;
use crate::kernels;
use crate::tensor::Tensor;

/// How a frozen embedding table is stored and scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Keep the `f64` master copy: bit-identical to the training graph.
    #[default]
    Exact,
    /// Per-row symmetric int8 storage (~8× smaller), bounded-error
    /// scoring with exact integer accumulation.
    Int8,
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

    /// Mean-pool the dequantized rows of `bag` into `out` — the int8
    /// counterpart of [`crate::frozen::bag_embed_row`].
    pub fn bag_embed_row(&self, bag: &[u32], out: &mut [f64]) {
        pool_row((self.rows, self.cols), bag, out, |row, id, inv| {
            let scale = self.scales[id];
            let emb = &self.data[id * self.cols..(id + 1) * self.cols];
            for (r, &q) in row.iter_mut().zip(emb) {
                *r += inv * (f64::from(q) * scale);
            }
        });
    }

    /// Dot product of `query` against every row without dequantizing
    /// the table: the query is quantized once, products accumulate
    /// exactly in integers, and each row's sum is scaled back in one
    /// final multiplication.
    pub fn score_all(&self, query: &[f64]) -> Vec<f64> {
        assert_eq!(query.len(), self.cols, "QuantI8: query dim mismatch");
        let (q, q_scale) = quantize_i8(query);
        kernels::score_all_i8(&self.data, &self.scales, self.rows, self.cols, &q, q_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!((0..3).all(|i| (0..5).all(|j| q.get(i, j) == 0.0)));
    }

    #[test]
    fn bytes_report_the_expected_shrink() {
        let t = Tensor::zeros(vec![100, 32]);
        let f64_bytes = t.numel() * std::mem::size_of::<f64>();
        let i8_bytes = QuantI8::from_tensor(&t).bytes();
        assert_eq!(i8_bytes, 100 * 32 + 100 * 8);
        assert!(f64_bytes / i8_bytes >= 6);
    }
}
