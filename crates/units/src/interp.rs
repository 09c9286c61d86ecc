//! Validated piecewise-linear lookup tables.
//!
//! The paper's proposed MPP-tracking scheme (Section VI-A) maps a measured
//! input power to a maximum-power-point voltage through "a look-up table".
//! [`LinearTable`] is that table: strictly-increasing knots validated at
//! construction, linear interpolation between knots, clamped evaluation
//! outside the knot range.

use crate::UnitsError;

/// A piecewise-linear function defined by `(x, y)` knots with strictly
/// increasing `x`.
///
/// ```
/// use hems_units::LinearTable;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = LinearTable::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 40.0])?;
/// assert_eq!(t.eval(0.5), 5.0);
/// assert_eq!(t.eval(1.5), 25.0);
/// assert_eq!(t.eval(-3.0), 0.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearTable {
    /// Builds a table from parallel knot vectors.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::BadTable`] when the vectors differ in length,
    /// hold fewer than two knots, contain non-finite values, or when `xs` is
    /// not strictly increasing.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, UnitsError> {
        if xs.len() != ys.len() {
            return Err(UnitsError::BadTable {
                reason: "x and y knot vectors differ in length",
            });
        }
        if xs.len() < 2 {
            return Err(UnitsError::BadTable {
                reason: "at least two knots are required",
            });
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(UnitsError::BadTable {
                reason: "knots must be finite",
            });
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(UnitsError::BadTable {
                reason: "x knots must be strictly increasing",
            });
        }
        Ok(LinearTable { xs, ys })
    }

    /// Builds a table by sampling `f` at `n` evenly spaced points on
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::BadTable`] when `n < 2`, the interval is
    /// degenerate, or `f` returns a non-finite value.
    pub fn from_fn(
        lo: f64,
        hi: f64,
        n: usize,
        mut f: impl FnMut(f64) -> f64,
    ) -> Result<Self, UnitsError> {
        if n < 2 || !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(UnitsError::BadTable {
                reason: "sampling requires n >= 2 and a finite lo < hi",
            });
        }
        let step = (hi - lo) / (n - 1) as f64;
        let xs: Vec<f64> = (0..n).map(|i| lo + step * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        Self::new(xs, ys)
    }

    /// Evaluates the table at `x`, clamping to the first/last knot outside
    /// the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // partition_point returns the index of the first knot > x.
        let hi = self.xs.partition_point(|&k| k <= x);
        let lo = hi - 1;
        let t = (x - self.xs[lo]) / (self.xs[hi] - self.xs[lo]);
        self.ys[lo] + t * (self.ys[hi] - self.ys[lo])
    }

    /// The inclusive domain covered by the knots.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().expect("validated non-empty"))
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always `false`: a validated table holds at least two knots.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over `(x, y)` knot pairs.
    pub fn knots(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ys.iter().copied())
    }

    /// Returns the knot x at which the tabulated y is largest.
    ///
    /// Ties resolve to the smallest such x.
    pub fn argmax(&self) -> (f64, f64) {
        let mut best = 0;
        for i in 1..self.ys.len() {
            if self.ys[i] > self.ys[best] {
                best = i;
            }
        }
        (self.xs[best], self.ys[best])
    }

    /// Builds the inverse table `y -> x`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::BadTable`] unless `y` is strictly monotonic
    /// (either direction) over the knots.
    pub fn inverse(&self) -> Result<LinearTable, UnitsError> {
        let increasing = self.ys.windows(2).all(|w| w[0] < w[1]);
        let decreasing = self.ys.windows(2).all(|w| w[0] > w[1]);
        if increasing {
            LinearTable::new(self.ys.clone(), self.xs.clone())
        } else if decreasing {
            let mut ys = self.ys.clone();
            let mut xs = self.xs.clone();
            ys.reverse();
            xs.reverse();
            LinearTable::new(ys, xs)
        } else {
            Err(UnitsError::BadTable {
                reason: "table is not strictly monotonic; cannot invert",
            })
        }
    }
}

/// A monotone piecewise-cubic (Fritsch–Carlson / PCHIP) interpolation table.
///
/// Where [`LinearTable`] is exact only at the knots and kinks between them,
/// this table fits a C¹ cubic Hermite spline whose slopes are limited so the
/// interpolant never overshoots the data: on any interval where the samples
/// are monotone, the interpolant is monotone too. That property is what
/// makes it safe to replace a *physically monotone* model (a solar cell's
/// I-V curve, a frequency law) with its sampled table — the lookup can
/// never invent a spurious local extremum for a bisection to fall into.
///
/// Accuracy is much better than linear interpolation for smooth monotone
/// data — roughly O(h³) vs O(h²) between knots (the limiter costs an order
/// near interior extrema of the data) — which is why the device-model LUTs
/// built on this table meet their ≤0.1 % parity budgets with a few hundred
/// knots.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Hermite tangent at each knot.
    slopes: Vec<f64>,
    /// `(x0, 1/step)` when the knots are evenly spaced: interval location
    /// becomes one multiply instead of a binary search. The device LUTs
    /// sample uniformly, so their millions of solver-side lookups all take
    /// this path.
    uniform: Option<(f64, f64)>,
}

impl MonotoneTable {
    /// Builds a table from parallel knot vectors.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::BadTable`] under the same conditions as
    /// [`LinearTable::new`].
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, UnitsError> {
        // Reuse LinearTable's validation, then compute tangents.
        let validated = LinearTable::new(xs, ys)?;
        let (xs, ys) = (validated.xs, validated.ys);
        let n = xs.len();
        // Secant slopes per interval.
        let d: Vec<f64> = (0..n - 1)
            .map(|i| (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]))
            .collect();
        let mut slopes = vec![0.0; n];
        // Second-order one-sided (three-point) endpoint tangents, with the
        // usual PCHIP limiting to keep boundary intervals monotone.
        let endpoint = |h0: f64, h1: f64, d0: f64, d1: f64| -> f64 {
            let m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
            if m * d0 <= 0.0 {
                0.0
            } else if d0 * d1 < 0.0 && m.abs() > 3.0 * d0.abs() {
                3.0 * d0
            } else {
                m
            }
        };
        if n == 2 {
            slopes[0] = d[0];
            slopes[1] = d[0];
        } else {
            let h0 = xs[1] - xs[0];
            let h1 = xs[2] - xs[1];
            slopes[0] = endpoint(h0, h1, d[0], d[1]);
            let hn1 = xs[n - 1] - xs[n - 2];
            let hn2 = xs[n - 2] - xs[n - 3];
            slopes[n - 1] = endpoint(hn1, hn2, d[n - 2], d[n - 3]);
        }
        for i in 1..n - 1 {
            if d[i - 1] * d[i] <= 0.0 {
                // Local extremum in the data: flat tangent.
                slopes[i] = 0.0;
            } else {
                // Weighted harmonic mean of the adjacent secants
                // (Fritsch–Butland form) — guarantees monotonicity without
                // the separate limiter pass.
                let h0 = xs[i] - xs[i - 1];
                let h1 = xs[i + 1] - xs[i];
                let w0 = 2.0 * h1 + h0;
                let w1 = h1 + 2.0 * h0;
                slopes[i] = (w0 + w1) / (w0 / d[i - 1] + w1 / d[i]);
            }
        }
        let step = (xs[n - 1] - xs[0]) / (n - 1) as f64;
        let uniform = xs
            .iter()
            .enumerate()
            .all(|(i, &x)| (x - (xs[0] + step * i as f64)).abs() <= step * 1e-9)
            .then(|| (xs[0], 1.0 / step));
        Ok(MonotoneTable {
            xs,
            ys,
            slopes,
            uniform,
        })
    }

    /// Builds a table by sampling `f` at `n` evenly spaced points on
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::BadTable`] under the same conditions as
    /// [`LinearTable::from_fn`].
    pub fn from_fn(
        lo: f64,
        hi: f64,
        n: usize,
        mut f: impl FnMut(f64) -> f64,
    ) -> Result<Self, UnitsError> {
        if n < 2 || !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(UnitsError::BadTable {
                reason: "sampling requires n >= 2 and a finite lo < hi",
            });
        }
        let step = (hi - lo) / (n - 1) as f64;
        let xs: Vec<f64> = (0..n).map(|i| lo + step * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        Self::new(xs, ys)
    }

    /// Evaluates the spline at `x`, clamping to the first/last knot value
    /// outside the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let lo = match self.uniform {
            Some((x0, inv_step)) => {
                // Direct interval index, with a one-knot nudge to absorb
                // the floating-point error the uniformity test admits.
                let mut lo = (((x - x0) * inv_step) as usize).min(n - 2);
                if x < self.xs[lo] {
                    lo -= 1;
                } else if x >= self.xs[lo + 1] {
                    lo += 1;
                }
                lo
            }
            None => self.xs.partition_point(|&k| k <= x) - 1,
        };
        self.hermite(lo, x)
    }

    /// Cubic Hermite evaluation on the interval `[xs[lo], xs[lo+1]]`.
    ///
    /// Both the scalar and the batch entry points funnel through this one
    /// body, so an interior point evaluates to the bit-identical result no
    /// matter how its interval was located.
    #[inline]
    fn hermite(&self, lo: usize, x: f64) -> f64 {
        let hi = lo + 1;
        let h = self.xs[hi] - self.xs[lo];
        let t = (x - self.xs[lo]) / h;
        // Cubic Hermite basis.
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * self.ys[lo]
            + h10 * h * self.slopes[lo]
            + h01 * self.ys[hi]
            + h11 * h * self.slopes[hi]
    }

    /// Evaluates the spline over a whole slab of query points, writing one
    /// output per input.
    ///
    /// When the queries are ascending (the solver grids and SoA sweep slabs
    /// all are), interval location degenerates to a monotone forward cursor:
    /// the batch walks the knot array once instead of doing a per-point
    /// search, so the whole slab is gather-free. Unsorted queries fall back
    /// to the scalar locate per point. Either way every output is
    /// bit-identical to `eval` on the same input.
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn eval_many(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "eval_many requires equally sized input and output slabs"
        );
        let n = self.xs.len();
        // NaN compares false, sending any NaN-bearing slab down the scalar
        // path where `eval`'s clamp logic handles it point by point.
        let ascending = xs.windows(2).all(|w| w[0] <= w[1]);
        if !ascending {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = self.eval(x);
            }
            return;
        }
        let mut lo = 0usize;
        for (o, &x) in out.iter_mut().zip(xs) {
            if x <= self.xs[0] {
                *o = self.ys[0];
                continue;
            }
            if x >= self.xs[n - 1] {
                *o = self.ys[n - 1];
                continue;
            }
            // Advance to the canonical interval: the last knot <= x. The
            // cursor never rewinds because the queries are ascending.
            while lo + 2 < n && x >= self.xs[lo + 1] {
                lo += 1;
            }
            *o = self.hermite(lo, x);
        }
    }

    /// The inclusive domain covered by the knots.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().expect("validated non-empty"))
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always `false`: a validated table holds at least two knots.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The knot x at which the tabulated y is largest (ties to smallest x).
    pub fn argmax_knot(&self) -> (f64, f64) {
        let mut best = 0;
        for i in 1..self.ys.len() {
            if self.ys[i] > self.ys[best] {
                best = i;
            }
        }
        (self.xs[best], self.ys[best])
    }

    /// Locates the maximum of the *interpolant* by golden-section search in
    /// the neighbourhood of the best knot. For unimodal data this refines
    /// the discrete [`MonotoneTable::argmax_knot`] to sub-knot resolution.
    pub fn argmax_refined(&self) -> (f64, f64) {
        let n = self.xs.len();
        let mut best = 0;
        for i in 1..n {
            if self.ys[i] > self.ys[best] {
                best = i;
            }
        }
        let lo = self.xs[best.saturating_sub(1)];
        let hi = self.xs[(best + 1).min(n - 1)];
        if !(lo < hi) {
            return (self.xs[best], self.ys[best]);
        }
        // Golden-section maximize on [lo, hi].
        const INV_PHI: f64 = 0.618_033_988_749_894_9;
        let (mut a, mut b) = (lo, hi);
        let mut c = b - INV_PHI * (b - a);
        let mut d = a + INV_PHI * (b - a);
        let (mut fc, mut fd) = (self.eval(c), self.eval(d));
        for _ in 0..80 {
            if fc >= fd {
                b = d;
                d = c;
                fd = fc;
                c = b - INV_PHI * (b - a);
                fc = self.eval(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + INV_PHI * (b - a);
                fd = self.eval(d);
            }
        }
        let x = 0.5 * (a + b);
        (x, self.eval(x))
    }
}

#[cfg(test)]
mod monotone_tests {
    use super::*;

    #[test]
    fn matches_knots_exactly() {
        let t = MonotoneTable::new(vec![0.0, 1.0, 2.5], vec![1.0, 4.0, 2.0]).unwrap();
        assert!((t.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((t.eval(1.0) - 4.0).abs() < 1e-12);
        assert!((t.eval(2.5) - 2.0).abs() < 1e-12);
        assert_eq!(t.domain(), (0.0, 2.5));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn clamps_outside_domain() {
        let t = MonotoneTable::new(vec![0.0, 1.0], vec![2.0, 5.0]).unwrap();
        assert_eq!(t.eval(-1.0), 2.0);
        assert_eq!(t.eval(9.0), 5.0);
    }

    #[test]
    fn preserves_monotonicity_of_monotone_data() {
        // A hard case for naive cubic splines: abrupt flattening.
        let xs = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = vec![0.0, 0.1, 0.2, 5.0, 9.9, 10.0];
        let t = MonotoneTable::new(xs, ys).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=500 {
            let x = 5.0 * i as f64 / 500.0;
            let y = t.eval(x);
            assert!(y >= prev - 1e-12, "non-monotone at {x}: {y} < {prev}");
            prev = y;
        }
        // No overshoot beyond the data hull.
        assert!(prev <= 10.0 + 1e-12);
    }

    #[test]
    fn beats_linear_interp_on_smooth_data() {
        // Monotone stretch of a sine: the regime the device LUTs live in.
        let f = |x: f64| x.sin() + 2.0;
        let lin = LinearTable::from_fn(0.0, 1.5, 17, f).unwrap();
        let mono = MonotoneTable::from_fn(0.0, 1.5, 17, f).unwrap();
        let mut err_lin = 0.0f64;
        let mut err_mono = 0.0f64;
        for i in 0..=300 {
            let x = 1.5 * i as f64 / 300.0;
            err_lin = err_lin.max((lin.eval(x) - f(x)).abs());
            err_mono = err_mono.max((mono.eval(x) - f(x)).abs());
        }
        assert!(
            err_mono < err_lin * 0.5,
            "monotone {err_mono:.2e} vs linear {err_lin:.2e}"
        );
    }

    #[test]
    fn argmax_refined_finds_interior_peak() {
        let f = |x: f64| -(x - 0.7) * (x - 0.7) + 3.0;
        let t = MonotoneTable::from_fn(0.0, 2.0, 41, f).unwrap();
        let (x, y) = t.argmax_refined();
        assert!((x - 0.7).abs() < 1e-3, "peak at {x}");
        assert!((y - 3.0).abs() < 1e-6);
        let (xk, _) = t.argmax_knot();
        assert!((xk - 0.7).abs() <= 0.05 + 1e-12);
    }

    #[test]
    fn argmax_refined_handles_boundary_peak() {
        let t = MonotoneTable::from_fn(0.0, 1.0, 11, |x| x).unwrap();
        let (x, y) = t.argmax_refined();
        assert!((x - 1.0).abs() < 1e-3);
        assert!((y - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(MonotoneTable::new(vec![0.0], vec![1.0]).is_err());
        assert!(MonotoneTable::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(MonotoneTable::from_fn(0.0, 0.0, 5, |x| x).is_err());
    }

    /// Deterministic xorshift64* stream for seeded differential tests.
    fn seeded_queries(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                lo + u * (hi - lo)
            })
            .collect()
    }

    #[test]
    fn eval_many_is_bit_identical_to_eval_on_sorted_queries() {
        // Uniform knots: the scalar path uses the O(1) locate, the batch
        // path uses the cursor. They must still agree to the bit.
        let t = MonotoneTable::from_fn(0.0, 1.5, 64, |x| x.sin() + 2.0).unwrap();
        let mut xs = seeded_queries(0xDEAD_BEEF, 513, -0.2, 1.7);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut out = vec![0.0; xs.len()];
        t.eval_many(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), t.eval(x).to_bits(), "mismatch at x={x}");
        }
    }

    #[test]
    fn eval_many_is_bit_identical_on_unsorted_and_nonuniform_queries() {
        // Non-uniform knots force the partition_point scalar locate; the
        // unsorted batch falls back to exactly that path.
        let xs_knots = vec![0.0, 0.3, 1.0, 2.2, 5.0];
        let ys_knots = vec![0.0, 0.5, 0.9, 2.0, 2.1];
        let t = MonotoneTable::new(xs_knots, ys_knots).unwrap();
        let xs = seeded_queries(42, 257, -1.0, 6.0);
        let mut out = vec![0.0; xs.len()];
        t.eval_many(&xs, &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), t.eval(x).to_bits(), "mismatch at x={x}");
        }
    }

    #[test]
    fn eval_many_handles_edge_batches() {
        let t = MonotoneTable::from_fn(0.0, 1.0, 8, |x| x * x).unwrap();
        // Empty slab is a no-op.
        t.eval_many(&[], &mut []);
        // All-clamped slab (everything outside the domain).
        let xs = [-2.0, -1.0, 1.5, 9.0];
        let mut out = [f64::NAN; 4];
        t.eval_many(&xs, &mut out);
        assert_eq!(out, [0.0, 0.0, 1.0, 1.0]);
        // Exact knot hits reproduce knot values.
        let knots = [0.0, 0.5, 1.0];
        let mut out = [f64::NAN; 3];
        t.eval_many(&knots, &mut out);
        for (&x, &y) in knots.iter().zip(&out) {
            assert_eq!(y.to_bits(), t.eval(x).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn eval_many_rejects_mismatched_slabs() {
        let t = MonotoneTable::from_fn(0.0, 1.0, 8, |x| x).unwrap();
        let mut out = [0.0; 2];
        t.eval_many(&[0.1, 0.2, 0.3], &mut out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShiftRng;

    fn ramp() -> LinearTable {
        LinearTable::new(vec![0.0, 1.0, 3.0], vec![2.0, 4.0, 0.0]).unwrap()
    }

    #[test]
    fn validates_construction() {
        assert!(LinearTable::new(vec![0.0], vec![1.0]).is_err());
        assert!(LinearTable::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(LinearTable::new(vec![1.0, 1.0], vec![0.0, 1.0]).is_err());
        assert!(LinearTable::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(LinearTable::new(vec![0.0, f64::NAN], vec![0.0, 1.0]).is_err());
        assert!(LinearTable::new(vec![0.0, 1.0], vec![0.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn interpolates_between_knots() {
        let t = ramp();
        assert_eq!(t.eval(0.0), 2.0);
        assert_eq!(t.eval(0.5), 3.0);
        assert_eq!(t.eval(1.0), 4.0);
        assert_eq!(t.eval(2.0), 2.0);
        assert_eq!(t.eval(3.0), 0.0);
    }

    #[test]
    fn clamps_outside_domain() {
        let t = ramp();
        assert_eq!(t.eval(-10.0), 2.0);
        assert_eq!(t.eval(10.0), 0.0);
    }

    #[test]
    fn domain_len_knots() {
        let t = ramp();
        assert_eq!(t.domain(), (0.0, 3.0));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let knots: Vec<_> = t.knots().collect();
        assert_eq!(knots, vec![(0.0, 2.0), (1.0, 4.0), (3.0, 0.0)]);
    }

    #[test]
    fn argmax_finds_peak() {
        let t = ramp();
        assert_eq!(t.argmax(), (1.0, 4.0));
    }

    #[test]
    fn from_fn_samples_evenly() {
        let t = LinearTable::from_fn(0.0, 2.0, 5, |x| x * x).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.eval(1.0), 1.0);
        // Between knots the quadratic is approximated linearly.
        let mid = t.eval(0.25);
        assert!((mid - (0.0 + 0.25) / 2.0 * 0.5).abs() < 0.2);
        assert!(LinearTable::from_fn(0.0, 0.0, 5, |x| x).is_err());
        assert!(LinearTable::from_fn(0.0, 1.0, 1, |x| x).is_err());
    }

    #[test]
    fn inverse_of_increasing_table() {
        let t = LinearTable::new(vec![0.0, 1.0, 2.0], vec![10.0, 20.0, 40.0]).unwrap();
        let inv = t.inverse().unwrap();
        assert_eq!(inv.eval(20.0), 1.0);
        assert_eq!(inv.eval(30.0), 1.5);
    }

    #[test]
    fn inverse_of_decreasing_table() {
        let t = LinearTable::new(vec![0.0, 1.0, 2.0], vec![40.0, 20.0, 10.0]).unwrap();
        let inv = t.inverse().unwrap();
        assert_eq!(inv.eval(20.0), 1.0);
        assert_eq!(inv.eval(15.0), 1.5);
    }

    #[test]
    fn inverse_rejects_non_monotonic() {
        assert!(ramp().inverse().is_err());
    }

    #[test]
    fn eval_is_within_y_hull() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let x = rng.range_f64(-5.0, 8.0);
            let y = ramp().eval(x);
            assert!((0.0..=4.0).contains(&y), "x {x} y {y}");
        }
    }

    #[test]
    fn eval_matches_knots_exactly() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let len = rng.range_u32(2, 20) as usize;
            let knots: Vec<(f64, f64)> = (0..len)
                .map(|_| (rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0)))
                .collect();
            let mut xs: Vec<f64> = knots.iter().map(|k| k.0).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs.dedup();
            if xs.len() < 2 {
                continue;
            }
            let ys: Vec<f64> = knots.iter().take(xs.len()).map(|k| k.1).collect();
            let t = LinearTable::new(xs.clone(), ys.clone()).unwrap();
            for (x, y) in xs.iter().zip(ys.iter()) {
                assert!((t.eval(*x) - y).abs() < 1e-9, "knot ({x}, {y})");
            }
        }
    }

    #[test]
    fn increasing_inverse_round_trips() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (y0, step) = (rng.range_f64(0.0, 1.0), rng.range_f64(0.1, 2.0));
            let xs = vec![0.0, 1.0, 2.0, 3.0];
            let ys: Vec<f64> = xs.iter().map(|x| y0 + step * x).collect();
            let t = LinearTable::new(xs, ys).unwrap();
            let inv = t.inverse().unwrap();
            for x in [0.0, 0.7, 1.3, 2.9, 3.0] {
                let round = inv.eval(t.eval(x));
                assert!((round - x).abs() < 1e-9, "y0 {y0} step {step} x {x}");
            }
        }
    }
}
