//! Batched, allocation-light sensing kernels — the production sensing
//! path.
//!
//! The scalar pipeline in [`crate::filter`] / [`crate::features`] is the
//! *reference semantics*, kept as the test oracle: every kernel here is
//! bit-for-bit identical to it, pinned by unit tests and the
//! `proptest_batch` suite.
//!
//! Why the exact kernels are fast anyway: the scalar Hampel filter
//! allocates and sorts three times per sample; the exact kernel maintains
//! one incrementally-sorted window (O(w) per slide) and selects the MAD
//! median with a two-pointer merge over the two sorted deviation runs that
//! flank the window median — same values, same order statistics, no sort.
//! Elementwise stages (first differences, feature window scans) are
//! written as lane-width chunks so LLVM autovectorizes them; none of that
//! reorders additions, so it is exact under IEEE-754.
//!
//! Known non-guarantee: order statistics are *value*-identical, not
//! sign-of-zero-identical — if a window straddles `-0.0`/`0.0` ties the
//! selected median may differ in sign bit. CSI amplitudes are magnitudes,
//! so the pipeline never produces `-0.0`; the proptests compare with `==`
//! (value equality), which is the contract.

use crate::features::FeatureVector;
use crate::segment::{segment_from_features, Segment, SegmenterConfig};

/// Lane width, in f64 elements, for the manually chunked loops. Eight
/// lanes cover one AVX-512 register or two AVX2 registers; LLVM splits
/// the chunk to whatever the target offers.
pub const LANES: usize = 8;

/// A dense row-major batch of equal-length amplitude series — one row per
/// link. The SoA counterpart of `Vec<Vec<f64>>`, so batched kernels walk
/// one contiguous allocation instead of chasing per-link pointers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesBatch {
    cols: usize,
    data: Vec<f64>,
}

impl SeriesBatch {
    /// An empty batch whose rows will hold `cols` samples each.
    pub fn new(cols: usize) -> SeriesBatch {
        SeriesBatch {
            cols,
            data: Vec::new(),
        }
    }

    /// An empty batch with capacity reserved for `rows` rows.
    pub fn with_capacity(cols: usize, rows: usize) -> SeriesBatch {
        SeriesBatch {
            cols,
            data: Vec::with_capacity(cols * rows),
        }
    }

    /// Samples per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (links).
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one row; its length must equal `cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
    }

    /// One row as a contiguous slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row, mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        // max(1) keeps zero-width batches iterable (they have no rows).
        self.data.chunks_exact(self.cols.max(1))
    }
}

// ---------------------------------------------------------------------------
// Exact order-statistic kernels.
// ---------------------------------------------------------------------------

/// Median of an ascending-sorted slice — the value
/// `crate::filter::median` would return for the same multiset.
fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median absolute deviation of an ascending-sorted window, without
/// sorting the deviations: `|w[i] − med|` is non-increasing up to the
/// first element ≥ `med` and non-decreasing after, so the deviations form
/// two sorted runs that a two-pointer merge can select the middle of in
/// O(w). Returns the value `crate::filter::mad` computes. Exhausted runs
/// are represented by an `INFINITY` sentinel (never selected while real
/// deviations remain), which keeps the merge loop branch-light; the
/// deviations themselves are computed as `med − x` / `x − med` on their
/// respective sides, which IEEE-754 guarantees equals `|x − med|` there.
fn mad_of_sorted(sorted: &[f64], med: f64) -> f64 {
    let m = sorted.len();
    if m == 0 {
        return 0.0;
    }
    // Linear count autovectorizes and beats a branchy binary search on
    // the small windows this kernel lives on.
    let split = if m <= 64 {
        sorted.iter().map(|&x| (x < med) as usize).sum()
    } else {
        sorted.partition_point(|&x| x < med)
    };
    let mut li = split as isize - 1; // walks left, deviations ascending
    let mut ri = split; // walks right, deviations ascending
    let take = m / 2; // index of the (upper) middle deviation
    let mut prev = 0.0;
    let mut cur = 0.0;
    for _ in 0..=take {
        let lv = if li >= 0 {
            med - sorted[li as usize]
        } else {
            f64::INFINITY
        };
        let rv = if ri < m {
            sorted[ri] - med
        } else {
            f64::INFINITY
        };
        prev = cur;
        if lv <= rv {
            li -= 1;
            cur = lv;
        } else {
            ri += 1;
            cur = rv;
        }
    }
    if m % 2 == 1 {
        cur
    } else {
        (prev + cur) / 2.0
    }
}

/// Inserts `v` into an ascending-sorted vec (binary search + shift).
fn sorted_insert(window: &mut Vec<f64>, v: f64) {
    let pos = window.partition_point(|&x| x < v);
    window.insert(pos, v);
}

/// Removes one element equal to `v` from an ascending-sorted vec.
fn sorted_remove(window: &mut Vec<f64>, v: f64) {
    let pos = window.partition_point(|&x| x < v);
    debug_assert!(window[pos] == v, "removing a value that was never inserted");
    window.remove(pos);
}

/// Conversion between MAD and a robust σ estimate (Gaussian consistency
/// constant) — the same value [`crate::filter`] uses.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Windows up to this long take the stack-buffer Hampel path.
const INLINE_WINDOW: usize = 32;

/// Hampel filter, bit-identical to [`crate::filter::hampel`] but O(w) per
/// sample: the sliding window is kept sorted incrementally and both order
/// statistics (median, MAD) are selected from it directly. Windows that
/// fit `INLINE_WINDOW` (every pipeline default does) run on a stack
/// buffer with branchless linear insertion — and the pipeline's own
/// `±5` width takes a monomorphised path whose full-window loop the
/// compiler unrolls. Wider windows fall back to a binary-searched `Vec` —
/// same algorithm, same values.
pub fn hampel_exact(series: &[f64], half_window: usize, n_sigma: f64) -> Vec<f64> {
    let n = series.len();
    let mut out = series.to_vec();
    if n == 0 {
        return out;
    }
    if half_window == 5 && n > 11 {
        hampel_spec::<5>(series, &mut out, n_sigma);
        return out;
    }
    if 2 * half_window + 2 <= INLINE_WINDOW {
        hampel_inline(series, &mut out, half_window, n_sigma);
        return out;
    }
    let mut window: Vec<f64> = Vec::with_capacity(2 * half_window + 2);
    let mut lo = 0usize;
    let mut hi = (half_window + 1).min(n);
    for &v in &series[lo..hi] {
        sorted_insert(&mut window, v);
    }
    for i in 0..n {
        let new_lo = i.saturating_sub(half_window);
        let new_hi = (i + half_window + 1).min(n);
        while hi < new_hi {
            sorted_insert(&mut window, series[hi]);
            hi += 1;
        }
        while lo < new_lo {
            sorted_remove(&mut window, series[lo]);
            lo += 1;
        }
        let med = median_of_sorted(&window);
        let sigma = MAD_TO_SIGMA * mad_of_sorted(&window, med);
        let deviation = (series[i] - med).abs();
        if deviation > n_sigma * sigma && deviation > f64::EPSILON {
            out[i] = med;
        }
    }
    out
}

/// Inserts `v` into the sorted prefix `buf[..len]`. The position is the
/// count of strictly-smaller elements — a branchless scan LLVM vectorizes,
/// equal on a sorted buffer to the `partition_point` the `Vec` path uses.
#[inline]
fn inline_insert(buf: &mut [f64; INLINE_WINDOW], len: &mut usize, v: f64) {
    let pos: usize = buf[..*len].iter().map(|&x| (x < v) as usize).sum();
    buf.copy_within(pos..*len, pos + 1);
    buf[pos] = v;
    *len += 1;
}

/// Removes one element equal to `v` from the sorted prefix `buf[..len]`.
#[inline]
fn inline_remove(buf: &mut [f64; INLINE_WINDOW], len: &mut usize, v: f64) {
    let pos: usize = buf[..*len].iter().map(|&x| (x < v) as usize).sum();
    debug_assert!(buf[pos] == v, "removing a value that was never inserted");
    buf.copy_within(pos + 1..*len, pos);
    *len -= 1;
}

/// Removes `old` and inserts `new` in one pass — both positions come from
/// a single fused scan and at most one `copy_within` moves the elements
/// between them. Equivalent to `inline_remove` followed by
/// `inline_insert` (same multiset, same final order).
#[inline]
fn inline_replace(buf: &mut [f64; INLINE_WINDOW], len: usize, old: f64, new: f64) {
    let mut po = 0usize; // index of `old` (first element >= it)
    let mut pi = 0usize; // elements strictly below `new`
    for &x in &buf[..len] {
        po += (x < old) as usize;
        pi += (x < new) as usize;
    }
    debug_assert!(buf[po] == old, "replacing a value that was never inserted");
    // `new`'s slot in the window *without* `old`: `old` itself was
    // counted iff it is strictly smaller.
    let pi = pi - (old < new) as usize;
    match po.cmp(&pi) {
        std::cmp::Ordering::Equal => buf[po] = new,
        std::cmp::Ordering::Greater => {
            buf.copy_within(pi..po, pi + 1);
            buf[pi] = new;
        }
        std::cmp::Ordering::Less => {
            buf.copy_within(po + 1..=pi, po);
            buf[pi] = new;
        }
    }
}

/// One Hampel decision against a sorted window.
#[inline]
fn hampel_apply(series: &[f64], out: &mut [f64], i: usize, window: &[f64], n_sigma: f64) {
    let med = median_of_sorted(window);
    let sigma = MAD_TO_SIGMA * mad_of_sorted(window, med);
    let deviation = (series[i] - med).abs();
    if deviation > n_sigma * sigma && deviation > f64::EPSILON {
        out[i] = med;
    }
}

/// The small-window Hampel hot loop for arbitrary `half_window`: the
/// sorted window lives in a stack array, maintained with
/// [`inline_insert`] / [`inline_remove`].
fn hampel_inline(series: &[f64], out: &mut [f64], half_window: usize, n_sigma: f64) {
    let n = series.len();
    let mut buf = [0.0f64; INLINE_WINDOW];
    let mut len = 0usize;
    let mut lo = 0usize;
    let mut hi = (half_window + 1).min(n);
    for &v in &series[lo..hi] {
        inline_insert(&mut buf, &mut len, v);
    }
    for i in 0..n {
        let new_lo = i.saturating_sub(half_window);
        let new_hi = (i + half_window + 1).min(n);
        while hi < new_hi {
            inline_insert(&mut buf, &mut len, series[hi]);
            hi += 1;
        }
        while lo < new_lo {
            inline_remove(&mut buf, &mut len, series[lo]);
            lo += 1;
        }
        hampel_apply(series, out, i, &buf[..len], n_sigma);
    }
}

/// The monomorphised Hampel path for a known `HW`: ramp-up and ramp-down
/// share the generic helpers, while the steady-state middle — full
/// windows of `2·HW+1`, one [`inline_replace`] per slide — runs with a
/// compile-time window length, so the scan counts vectorize and the MAD
/// merge (`HW+1` steps) unrolls branchlessly. Requires
/// `series.len() > 2·HW+1`.
fn hampel_spec<const HW: usize>(series: &[f64], out: &mut [f64], n_sigma: f64) {
    let w = 2 * HW + 1;
    let n = series.len();
    debug_assert!(n > w && w < INLINE_WINDOW);
    let mut buf = [0.0f64; INLINE_WINDOW];
    let mut len = 0usize;

    // Ramp-up: i in 0..=HW, window [0, i+HW+1).
    for &v in &series[..HW + 1] {
        inline_insert(&mut buf, &mut len, v);
    }
    hampel_apply(series, out, 0, &buf[..len], n_sigma);
    for i in 1..=HW {
        inline_insert(&mut buf, &mut len, series[i + HW]);
        hampel_apply(series, out, i, &buf[..len], n_sigma);
    }

    // Steady state: i in HW+1..n-HW, window [i-HW, i+HW+1), len == w.
    debug_assert_eq!(len, w);
    for i in HW + 1..n - HW {
        inline_replace(&mut buf, w, series[i - HW - 1], series[i + HW]);
        let window = &buf[..w];
        let med = window[HW]; // w is odd
        let split: usize = window.iter().map(|&x| (x < med) as usize).sum();
        let mut li = split as isize - 1;
        let mut ri = split;
        let mut mad = 0.0;
        for _ in 0..=HW {
            let lv = if li >= 0 {
                med - window[li as usize]
            } else {
                f64::INFINITY
            };
            let rv = if ri < w {
                window[ri] - med
            } else {
                f64::INFINITY
            };
            if lv <= rv {
                li -= 1;
                mad = lv;
            } else {
                ri += 1;
                mad = rv;
            }
        }
        let sigma = MAD_TO_SIGMA * mad;
        let deviation = (series[i] - med).abs();
        if deviation > n_sigma * sigma && deviation > f64::EPSILON {
            out[i] = med;
        }
    }

    // Ramp-down: i in n-HW..n, window [i-HW, n).
    for i in n - HW..n {
        inline_remove(&mut buf, &mut len, series[i - HW - 1]);
        hampel_apply(series, out, i, &buf[..len], n_sigma);
    }
}

/// Median by quickselect — O(n) instead of the reference sort, returning
/// the same value as [`crate::filter::median`]: `select_nth_unstable`
/// yields the identical upper-middle order statistic, and for even
/// lengths the lower middle is the maximum of the left partition.
pub fn median_select(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    let (left, &mut upper, _) =
        v.select_nth_unstable_by(n / 2, |a, b| a.partial_cmp(b).expect("no NaNs in CSI"));
    if n % 2 == 1 {
        upper
    } else {
        let lower = left.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lower + upper) / 2.0
    }
}

// ---------------------------------------------------------------------------
// Lane-chunked elementwise kernels (exact: no reductions reordered).
// ---------------------------------------------------------------------------

/// First-difference magnitudes `|x[i+1] − x[i]|`, lane-chunked so LLVM
/// autovectorizes. Purely elementwise, hence exact.
pub fn abs_diff(series: &[f64]) -> Vec<f64> {
    if series.len() < 2 {
        return Vec::new();
    }
    let n = series.len() - 1;
    let mut out = vec![0.0; n];
    let a = &series[..n];
    let b = &series[1..];
    let mut oc = out.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for l in 0..LANES {
            o[l] = (y[l] - x[l]).abs();
        }
    }
    let tail = oc.into_remainder();
    for ((o, x), y) in tail.iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o = (y - x).abs();
    }
    out
}

// ---------------------------------------------------------------------------
// Batched pipeline stages.
// ---------------------------------------------------------------------------

/// Conditions every row of a batch in one pass.
pub fn condition_batch(batch: &SeriesBatch) -> SeriesBatch {
    let mut out = SeriesBatch::with_capacity(batch.cols(), batch.rows());
    for row in batch.iter_rows() {
        out.push_row(&crate::filter::condition(row));
    }
    out
}

/// Feature extraction over one window using a caller-provided scratch
/// buffer: one sort feeds median *and* MAD (the scalar reference sorts
/// three times). All other statistics keep the reference operation order,
/// so the result is bit-identical to [`crate::features::extract`].
pub fn extract_fast(window: &[f64], scratch: &mut Vec<f64>) -> FeatureVector {
    let n = window.len();
    if n < 2 {
        return FeatureVector::default();
    }
    let mean = window.iter().sum::<f64>() / n as f64;
    let var = window.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let std_dev = var.sqrt();

    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in window {
        min = min.min(x);
        max = max.max(x);
    }

    let crossings = window
        .windows(2)
        .filter(|w| (w[0] - mean).signum() != (w[1] - mean).signum())
        .count();
    let mean_crossing_rate = crossings as f64 / (n - 1) as f64;

    let diff_energy = window
        .windows(2)
        .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
        .sum::<f64>()
        / (n - 1) as f64;

    scratch.clear();
    scratch.extend_from_slice(window);
    scratch.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in CSI"));
    let med = median_of_sorted(scratch);
    FeatureVector {
        std_dev,
        mad: mad_of_sorted(scratch, med),
        peak_to_peak: max - min,
        mean_crossing_rate,
        diff_energy,
    }
}

/// Sliding-window features with a shared scratch buffer — what
/// [`crate::features::sliding_features`] runs.
pub fn sliding_features_fast(
    series: &[f64],
    window_len: usize,
    hop: usize,
) -> Vec<(usize, FeatureVector)> {
    let mut out = Vec::new();
    if window_len == 0 || hop == 0 || series.len() < window_len {
        return out;
    }
    let mut scratch = Vec::with_capacity(window_len);
    let mut start = 0;
    while start + window_len <= series.len() {
        out.push((
            start,
            extract_fast(&series[start..start + window_len], &mut scratch),
        ));
        start += hop;
    }
    out
}

/// Sliding-window features for every row of a batch.
pub fn sliding_features_batch(
    batch: &SeriesBatch,
    window_len: usize,
    hop: usize,
) -> Vec<Vec<(usize, FeatureVector)>> {
    batch
        .iter_rows()
        .map(|row| crate::features::sliding_features(row, window_len, hop))
        .collect()
}

/// Segments every row of a batch with one config.
pub fn segment_batch(batch: &SeriesBatch, config: &SegmenterConfig) -> Vec<Vec<Segment>> {
    sliding_features_batch(batch, config.window_len, config.hop)
        .into_iter()
        .map(|feats| segment_from_features(&feats, batch.cols(), config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter;

    /// Deterministic noise in [-0.5, 0.5).
    fn noise(i: usize) -> f64 {
        ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 - 0.5
    }

    fn bursty_series(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let mut v = 5.0 + 0.05 * noise(i);
                if (len / 3..len / 2).contains(&i) {
                    v += 1.5 * noise(i * 7 + 3);
                }
                if i % 97 == 0 {
                    v += 40.0; // impulsive outlier for the Hampel stage
                }
                v
            })
            .collect()
    }

    #[test]
    fn hampel_exact_matches_reference() {
        for len in [0, 1, 2, 7, 11, 12, 50, 333] {
            let s = bursty_series(len);
            for hw in [0, 1, 5, 8] {
                assert_eq!(
                    hampel_exact(&s, hw, 3.0),
                    filter::hampel(&s, hw, 3.0),
                    "len {len} hw {hw}"
                );
            }
        }
    }

    #[test]
    fn median_select_matches_reference() {
        for len in [1, 2, 3, 10, 11, 100, 101] {
            let s = bursty_series(len);
            assert_eq!(median_select(&s), filter::median(&s), "len {len}");
        }
        assert_eq!(median_select(&[]), filter::median(&[]));
        // Ties around the middle.
        assert_eq!(median_select(&[2.0, 2.0, 2.0, 1.0]), 2.0);
    }

    #[test]
    fn extract_fast_matches_reference() {
        let mut scratch = Vec::new();
        for len in [0, 1, 2, 3, 30, 64] {
            let s = bursty_series(len);
            assert_eq!(
                extract_fast(&s, &mut scratch),
                crate::features::extract(&s),
                "len {len}"
            );
        }
    }

    #[test]
    fn abs_diff_matches_windows() {
        for len in [0, 1, 2, 9, 16, 17, 100] {
            let s = bursty_series(len);
            let reference: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
            assert_eq!(abs_diff(&s), reference, "len {len}");
        }
    }

    #[test]
    fn condition_matches_scalar() {
        let s = bursty_series(400);
        assert_eq!(filter::condition(&s), filter::condition_scalar(&s));
    }

    #[test]
    fn series_batch_round_trip() {
        let mut batch = SeriesBatch::new(4);
        assert!(batch.is_empty());
        batch.push_row(&[1.0, 2.0, 3.0, 4.0]);
        batch.push_row(&[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.cols(), 4);
        assert_eq!(batch.row(1), &[5.0, 6.0, 7.0, 8.0]);
        batch.row_mut(0)[0] = 9.0;
        assert_eq!(batch.iter_rows().next().unwrap()[0], 9.0);
    }

    #[test]
    fn condition_batch_equals_per_row_condition() {
        let mut batch = SeriesBatch::new(200);
        for r in 0..5 {
            let row: Vec<f64> = (0..200).map(|i| 5.0 + noise(i * (r + 1))).collect();
            batch.push_row(&row);
        }
        let conditioned = condition_batch(&batch);
        for (r, row) in batch.iter_rows().enumerate() {
            assert_eq!(conditioned.row(r), filter::condition(row).as_slice());
        }
    }

    #[test]
    fn segment_batch_equals_per_row_segment() {
        let cfg = SegmenterConfig::default();
        let mut batch = SeriesBatch::new(900);
        for r in 0..4 {
            let row: Vec<f64> = (0..900)
                .map(|i| {
                    let mut v = 5.0 + 0.02 * noise(i + r * 31);
                    if (300..500).contains(&i) {
                        v += 2.0 * noise(i * 7 + r);
                    }
                    v
                })
                .collect();
            batch.push_row(&row);
        }
        let per_batch = segment_batch(&batch, &cfg);
        for (r, row) in batch.iter_rows().enumerate() {
            assert_eq!(per_batch[r], crate::segment::segment(row, &cfg), "row {r}");
        }
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(hampel_exact(&[], 5, 3.0).is_empty());
        assert!(abs_diff(&[]).is_empty());
        assert!(abs_diff(&[1.0]).is_empty());
        assert_eq!(median_select(&[]), 0.0);
        let empty = SeriesBatch::new(0);
        assert_eq!(empty.rows(), 0);
        assert!(condition_batch(&empty).is_empty());
    }
}
