//! Cubic polynomial CDF model, used as an optional RMI root model.
//!
//! The RMI reference implementation offers cubic models at the root because a
//! cubic captures the S-shape of many CDFs better than a line while staying a
//! handful of multiply-adds at query time. The paper notes (§3.8) that cubic
//! RMI roots are one source of *non-monotonic* predictions, which matters for
//! the Shift-Table's range mode. This one never decreases: it is evaluated
//! at the normalised key clamped to `[0, 1]`, the span its training keys
//! cover, and a fit whose derivative goes negative anywhere on that span is
//! replaced by the least-squares line from the same moments. (That holds in
//! exact arithmetic; where the slope is near zero, the rounding of the Horner
//! evaluation could reorder two predictions an ulp apart — no test column
//! has shown it.)

use crate::model::CdfModel;
use sosd_data::dataset::Dataset;
use sosd_data::key::Key;

/// Cubic least-squares model `pos ≈ a + b·t + c·t² + d·t³` over the key
/// value normalised to `t ∈ [0, 1]` (normalisation keeps the normal
/// equations well conditioned for 64-bit keys).
#[derive(Debug, Clone, PartialEq)]
pub struct CubicModel {
    /// Coefficients `[a, b, c, d]` in the normalised variable.
    coeffs: [f64; 4],
    key_min: f64,
    key_span: f64,
    n: usize,
}

impl CubicModel {
    /// Fit over a dataset.
    pub fn build<K: Key>(dataset: &Dataset<K>) -> Self {
        Self::from_sorted_keys(dataset.as_slice())
    }

    /// Fit over a sorted key slice.
    pub fn from_sorted_keys<K: Key>(keys: &[K]) -> Self {
        let n = keys.len();
        if n < 4 {
            // Too few points for a cubic: fall back to a line through the
            // endpoints (degenerate coefficients).
            let lin = crate::linear::InterpolationModel::from_sorted_keys(keys);
            let key_min = keys.first().map(|k| k.to_f64()).unwrap_or(0.0);
            let key_max = keys.last().map(|k| k.to_f64()).unwrap_or(0.0);
            let span = (key_max - key_min).max(1.0);
            return Self {
                coeffs: [0.0, lin.slope() * span, 0.0, 0.0],
                key_min,
                key_span: span,
                n,
            };
        }
        let key_min = keys[0].to_f64();
        let key_max = keys[n - 1].to_f64();
        let span = (key_max - key_min).max(f64::MIN_POSITIVE);

        // Accumulate the normal-equation moments for the normalised variable.
        // X^T X is a 4x4 Hankel matrix of power sums S_0..S_6; X^T y needs
        // T_0..T_3.
        let mut s = [0.0f64; 7];
        let mut t = [0.0f64; 4];
        for (i, k) in keys.iter().enumerate() {
            let x = (k.to_f64() - key_min) / span;
            let y = i as f64;
            let mut p = 1.0;
            for sj in s.iter_mut() {
                *sj += p;
                p *= x;
            }
            let mut p = 1.0;
            for tj in t.iter_mut() {
                *tj += p * y;
                p *= x;
            }
        }
        let mut a = [[0.0f64; 5]; 4];
        for (r, row) in a.iter_mut().enumerate() {
            row[..4].copy_from_slice(&s[r..r + 4]);
            row[4] = t[r];
        }
        let coeffs = solve_4x4(&mut a)
            .filter(never_falls)
            .unwrap_or_else(|| least_squares_line(&s, &t));
        Self {
            coeffs,
            key_min,
            key_span: span,
            n,
        }
    }

    /// Raw (unclamped) prediction as `f64`, at the normalised key clamped
    /// to the trained span `[0, 1]`.
    #[inline]
    pub fn predict_f64(&self, key: f64) -> f64 {
        let t = ((key - self.key_min) / self.key_span).clamp(0.0, 1.0);
        let [a, b, c, d] = self.coeffs;
        // Horner evaluation.
        ((d * t + c) * t + b) * t + a
    }

    /// The fitted coefficients in the normalised variable.
    #[inline]
    pub fn coefficients(&self) -> [f64; 4] {
        self.coeffs
    }
}

/// Whether the cubic `[a, b, c, d]` never falls on `[0, 1]`: its derivative
/// `b + 2c·t + 3d·t²` is not negative at either end nor at its interior
/// extremum.
fn never_falls(&[_, b, c, d]: &[f64; 4]) -> bool {
    let slope = |t: f64| b + 2.0 * c * t + 3.0 * d * t * t;
    // `d == 0` puts the extremum at an infinity (or NaN), outside.
    let extremum = -c / (3.0 * d);
    let interior = (0.0..=1.0).contains(&extremum);
    slope(0.0) >= 0.0 && slope(1.0) >= 0.0 && (!interior || slope(extremum) >= 0.0)
}

/// The least-squares line `a + b·t`, `b ≥ 0`, from the power sums `s` and
/// the position moments `t` the cubic was solved from; flat at the mean
/// position when the keys do not spread.
fn least_squares_line(s: &[f64; 7], t: &[f64; 4]) -> [f64; 4] {
    let denom = s[0] * s[2] - s[1] * s[1];
    let slope = if denom > 0.0 {
        ((s[0] * t[1] - s[1] * t[0]) / denom).max(0.0)
    } else {
        0.0
    };
    [(t[0] - slope * s[1]) / s[0], slope, 0.0, 0.0]
}

/// Gaussian elimination with partial pivoting for the 4x5 augmented system.
fn solve_4x4(a: &mut [[f64; 5]; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..4 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        // Eliminate below. Indexing (rather than iterators) is kept because
        // each update reads pivot row `col` while writing row `row`.
        #[allow(clippy::needless_range_loop)]
        for row in col + 1..4 {
            let f = a[row][col] / a[col][col];
            for c in col..5 {
                a[row][c] -= f * a[col][c];
            }
        }
    }
    // Back substitution.
    let mut x = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut acc = a[row][4];
        for c in row + 1..4 {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

impl<K: Key> CdfModel<K> for CubicModel {
    #[inline]
    fn predict(&self, key: K) -> usize {
        if self.n == 0 {
            return 0;
        }
        let p = self.predict_f64(key.to_f64());
        let p = if p > 0.0 { p } else { 0.0 };
        (p as usize).min(self.n - 1)
    }

    fn key_count(&self) -> usize {
        self.n
    }

    fn size_bytes(&self) -> usize {
        // 4 coefficients + min + span.
        6 * std::mem::size_of::<f64>()
    }

    fn name(&self) -> &'static str {
        "Cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_data::generators::SosdName;

    #[test]
    fn fits_a_cubic_relationship_almost_exactly() {
        // positions proportional to cube root of key <=> key ~ pos^3.
        let keys: Vec<u64> = (0..500u64).map(|i| i * i * i).collect();
        let m = CubicModel::from_sorted_keys(&keys);
        // A cubic in the key cannot be exact here (the true inverse is a cube
        // root), but it must do far better than the straight line.
        let lin = crate::linear::InterpolationModel::from_sorted_keys(&keys);
        let err = |f: &dyn Fn(u64) -> usize| -> f64 {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| (f(k) as f64 - i as f64).abs())
                .sum::<f64>()
                / keys.len() as f64
        };
        let cubic_err = err(&|k| CdfModel::<u64>::predict(&m, k));
        let lin_err = err(&|k| CdfModel::<u64>::predict(&lin, k));
        assert!(
            cubic_err < lin_err / 2.0,
            "cubic err {cubic_err} vs linear err {lin_err}"
        );
    }

    #[test]
    fn exact_on_polynomial_data() {
        // If key = t (already linear), the cubic should reduce to the line.
        let keys: Vec<u64> = (0..1000u64).collect();
        let m = CubicModel::from_sorted_keys(&keys);
        for (i, &k) in keys.iter().enumerate().step_by(37) {
            let p = CdfModel::<u64>::predict(&m, k);
            assert!((p as i64 - i as i64).abs() <= 1, "pos {i} predicted {p}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let m = CubicModel::from_sorted_keys::<u64>(&[]);
        assert_eq!(CdfModel::<u64>::predict(&m, 5), 0);
        let m = CubicModel::from_sorted_keys(&[1u64, 2, 3]);
        assert!(CdfModel::<u64>::predict(&m, 2) < 3);
        let m = CubicModel::from_sorted_keys(&[7u64; 20]);
        assert!(CdfModel::<u64>::predict(&m, 7) < 20);
    }

    #[test]
    fn predictions_stay_in_range_on_real_data() {
        let d: Dataset<u64> = SosdName::Osmc64.generate(20_000, 5);
        let m = CubicModel::build(&d);
        for &k in d.as_slice().iter().step_by(101) {
            assert!(CdfModel::<u64>::predict(&m, k) < d.len());
        }
        // Far out-of-range queries are clamped.
        assert!(CdfModel::<u64>::predict(&m, 0) < d.len());
        assert!(CdfModel::<u64>::predict(&m, u64::MAX) < d.len());
    }

    #[test]
    fn solve_4x4_known_system() {
        // x = [1, 2, 3, 4] with identity-ish matrix.
        let mut a = [
            [2.0, 0.0, 0.0, 0.0, 2.0],
            [0.0, 3.0, 0.0, 0.0, 6.0],
            [0.0, 0.0, 4.0, 0.0, 12.0],
            [0.0, 0.0, 0.0, 5.0, 20.0],
        ];
        let x = solve_4x4(&mut a).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
        assert!((x[3] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_returns_none() {
        let mut a = [[0.0; 5]; 4];
        assert!(solve_4x4(&mut a).is_none());
    }
}
