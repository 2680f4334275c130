//! Small numeric and collection utilities shared across the workspace.

/// Numerically stable log-sum-exp over a slice.
///
/// Returns `-inf` for an empty slice (the identity of log-sum-exp).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Mean of a slice; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation; 0.0 for fewer than two elements.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Indices that would sort `xs` descending (ties broken by index, stable).
pub fn argsort_desc(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[b].total_cmp(&xs[a]));
    idx
}

/// Index of the maximum element; `None` for empty input. NaNs lose ties.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in xs.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if x <= b => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Min-heap entry of [`TopK`], ordered by score then (reversed) index
/// for deterministic tie-breaking.
struct TopKEntry(f64, usize);

impl PartialEq for TopKEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for TopKEntry {}
impl PartialOrd for TopKEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TopKEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the *worst* kept
        // element on top so it can be evicted.
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// Streaming top-`k` selection over `(index, score)` pairs — the
/// incremental form of [`top_k_desc`], for callers that produce scores
/// on the fly (the fused batched retrieval paths) instead of
/// materialising a score array first.
///
/// The kept set and the final ordering are **identical to
/// [`top_k_desc`]** over the same `(index, score)` pairs, and they are
/// independent of push order: candidates are ranked under the strict
/// total order "higher score first, lowest index on exact float ties"
/// (`+0.0`/`-0.0` tie like `==`, then index), NaN scores are skipped,
/// and [`TopK::into_sorted`] applies the same `total_cmp`-then-index
/// final sort. `top_k_desc` itself is implemented on this selector, so
/// the two cannot drift.
pub struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<TopKEntry>,
}

impl TopK {
    /// A selector keeping the best `k` pushed candidates.
    pub fn new(k: usize) -> TopK {
        // Capacity k+1 keeps evict-then-push reallocation-free; cap it
        // so an over-large k (relative to what will be pushed) does not
        // preallocate absurdly.
        TopK { k, heap: std::collections::BinaryHeap::with_capacity(k.min(1 << 20) + 1) }
    }

    /// Offer one candidate. NaN scores are skipped; on exact float
    /// ties (`==`, so `-0.0` ties `+0.0`) the lower index wins.
    #[inline]
    pub fn push(&mut self, index: usize, score: f64) {
        if score.is_nan() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(TopKEntry(score, index));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if score > worst.0 || (score == worst.0 && index < worst.1) {
                // Replace-root: one sift instead of a pop + push pair.
                *worst = TopKEntry(score, index);
            }
        }
    }

    /// The least score [`TopK::push`] can still admit: `-inf` until `k`
    /// candidates are held, then the worst kept score (`+inf` when
    /// `k == 0`, which admits nothing). A score below it, or NaN, is
    /// never admitted; one equal to it is admitted only at a lower
    /// index than the worst kept candidate. So a caller may skip a run
    /// of scores none of which is `>= floor()` — the test is exact.
    #[inline]
    pub fn floor(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |worst| worst.0)
        }
    }

    /// The kept candidates as `(index, score)`, best first (ties by
    /// lowest index) — the exact sort [`top_k_desc`] uses.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        let mut out: Vec<(f64, usize)> =
            self.heap.into_iter().map(|TopKEntry(x, i)| (x, i)).collect();
        out.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        out.into_iter().map(|(x, i)| (i, x)).collect()
    }
}

/// Top-`k` indices by value, descending. Uses a partial selection so the
/// cost is `O(n log k)`.
pub fn top_k_desc(xs: &[f64], k: usize) -> Vec<usize> {
    if k == 0 || xs.is_empty() {
        return Vec::new();
    }
    let mut sel = TopK::new(k.min(xs.len()));
    for (i, &x) in xs.iter().enumerate() {
        sel.push(i, x);
    }
    sel.into_sorted().into_iter().map(|(i, _)| i).collect()
}

/// Clamp a value into `[lo, hi]`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

/// True if two floats are within `tol` absolutely or relatively.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive() {
        let xs: [f64; 3] = [1.0, 2.0, 3.0];
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!(approx_eq(log_sum_exp(&xs), naive, 1e-12));
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let xs = [1000.0, 1000.0];
        let v = log_sum_exp(&xs);
        assert!(approx_eq(v, 1000.0 + 2.0_f64.ln(), 1e-9));
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert!(approx_eq(mean(&[1.0, 2.0, 3.0]), 2.0, 1e-12));
        assert!(approx_eq(std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), 2.138, 1e-3));
    }

    #[test]
    fn argsort_desc_orders() {
        assert_eq!(argsort_desc(&[1.0, 3.0, 2.0]), vec![1, 2, 0]);
    }

    #[test]
    fn argmax_handles_nan_and_empty() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 1.0, 0.5]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn top_k_matches_argsort_prefix() {
        let xs = [0.3, 0.9, 0.1, 0.9, 0.5, -1.0];
        assert_eq!(top_k_desc(&xs, 3), argsort_desc(&xs)[..3].to_vec());
        assert_eq!(top_k_desc(&xs, 0), Vec::<usize>::new());
        assert_eq!(top_k_desc(&xs, 100).len(), xs.len());
    }

    #[test]
    fn top_k_deterministic_on_ties() {
        let xs = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(top_k_desc(&xs, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_streaming_is_push_order_independent() {
        // Includes exact ties, signed zeros, and a NaN; the kept set and
        // final ordering must not depend on the order candidates arrive.
        let xs = [0.5, 1.0, 1.0, -0.0, 0.0, f64::NAN, 0.5, 2.0, -1.0, 1.0];
        let forward = {
            let mut sel = TopK::new(4);
            for (i, &x) in xs.iter().enumerate() {
                sel.push(i, x);
            }
            sel.into_sorted()
        };
        let reverse = {
            let mut sel = TopK::new(4);
            for (i, &x) in xs.iter().enumerate().rev() {
                sel.push(i, x);
            }
            sel.into_sorted()
        };
        let interleaved = {
            let mut sel = TopK::new(4);
            for (i, &x) in xs.iter().enumerate().skip(1).step_by(2) {
                sel.push(i, x);
            }
            for (i, &x) in xs.iter().enumerate().step_by(2) {
                sel.push(i, x);
            }
            sel.into_sorted()
        };
        assert_eq!(forward, reverse);
        assert_eq!(forward, interleaved);
        let serial: Vec<usize> = top_k_desc(&xs, 4);
        assert_eq!(forward.iter().map(|&(i, _)| i).collect::<Vec<_>>(), serial);
        for &(i, x) in &forward {
            assert_eq!(x.to_bits(), xs[i].to_bits());
        }
    }

    #[test]
    fn floor_admits_exactly_what_push_admits() {
        let reaches = |x: f64, sel: &TopK| x >= sel.floor();
        let mut sel = TopK::new(2);
        assert_eq!(sel.floor(), f64::NEG_INFINITY);
        sel.push(5, 1.0);
        assert_eq!(sel.floor(), f64::NEG_INFINITY, "one of two held");
        sel.push(7, 0.5);
        assert_eq!(sel.floor(), 0.5, "full: the worst kept score");
        // Equal to the floor at a lower index than the worst: admitted.
        sel.push(6, 0.5);
        // Equal at a higher index, or below: not.
        sel.push(9, 0.5);
        sel.push(1, 0.25);
        // NaN is never `>=` the floor, and never admitted.
        assert!(!reaches(f64::NAN, &sel));
        sel.push(0, f64::NAN);
        assert_eq!(sel.into_sorted(), vec![(5, 1.0), (6, 0.5)]);

        // `-0.0` ties `+0.0`: it reaches the floor and wins on index.
        let mut zero = TopK::new(1);
        zero.push(4, 0.0);
        assert!(reaches(-0.0, &zero));
        zero.push(2, -0.0);
        zero.push(8, 0.0);
        assert_eq!(zero.into_sorted(), vec![(2, -0.0)]);

        // k = 0 admits nothing, not even +inf.
        let mut none = TopK::new(0);
        assert_eq!(none.floor(), f64::INFINITY);
        none.push(0, f64::INFINITY);
        assert!(none.into_sorted().is_empty());

        // Over ties, signed zeros, infinities and NaN: a score that is
        // not `>=` the floor never changes the kept set.
        let xs = [0.5, -0.0, 1.0, f64::NAN, 0.0, 0.5, f64::NEG_INFINITY, 1.0, f64::INFINITY, 0.5];
        for k in 0..4 {
            let mut sel = TopK::new(k);
            for (i, &x) in xs.iter().enumerate().rev() {
                let before = sel.heap.iter().map(|e| (e.1, e.0.to_bits())).collect::<Vec<_>>();
                let below = !reaches(x, &sel);
                sel.push(i, x);
                if below {
                    let after = sel.heap.iter().map(|e| (e.1, e.0.to_bits())).collect::<Vec<_>>();
                    assert_eq!(before, after, "k {k}: {x} at {i} is below the floor");
                }
            }
        }
    }

    #[test]
    fn top_k_streaming_signed_zero_tie_keeps_lower_index() {
        let mut sel = TopK::new(1);
        sel.push(3, -0.0);
        sel.push(7, 0.0);
        assert_eq!(sel.into_sorted(), vec![(3, -0.0)]);
    }
}
