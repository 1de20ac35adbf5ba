//! Minimal dense linear algebra for the regression fits: column-major
//! symmetric positive-definite solves via Cholesky, and ordinary least
//! squares through the normal equations. The systems here are tiny
//! (k <= 6 unknowns), so numerical sophistication beyond a ridge fallback
//! is unnecessary.

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NotSpd;

/// Cholesky factorization of a symmetric positive-definite `n x n` matrix
/// given in row-major order. Returns the lower factor `L` (row-major) with
/// `A = L L^T`.
fn cholesky(a: &[f64], n: usize) -> Result<Vec<f64>, NotSpd> {
    assert_eq!(a.len(), n * n, "matrix size mismatch");
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(NotSpd);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(l)
}

/// Solve `A x = b` for SPD `A` via Cholesky.
fn solve_spd(a: &[f64], b: &[f64], n: usize) -> Result<Vec<f64>, NotSpd> {
    let l = cholesky(a, n)?;
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    // Back substitution: L^T x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Ok(x)
}

/// Ordinary least squares: minimize `||X beta - y||_2` where `X` is
/// `m x k` row-major. Solved through the normal equations
/// `X^T X beta = X^T y`; if `X^T X` is singular a small ridge term is
/// added (the fitting problems here are well-conditioned by design, the
/// ridge is a safety net).
pub fn least_squares(x: &[f64], y: &[f64], m: usize, k: usize) -> Vec<f64> {
    assert_eq!(x.len(), m * k, "design matrix size mismatch");
    assert_eq!(y.len(), m, "rhs size mismatch");
    assert!(m >= k, "need at least as many samples as unknowns");
    let mut xtx = vec![0.0; k * k];
    let mut xty = vec![0.0; k];
    for r in 0..m {
        let row = &x[r * k..(r + 1) * k];
        for i in 0..k {
            xty[i] += row[i] * y[r];
            for j in 0..k {
                xtx[i * k + j] += row[i] * row[j];
            }
        }
    }
    match solve_spd(&xtx, &xty, k) {
        Ok(beta) => beta,
        Err(NotSpd) => {
            // Ridge fallback proportionate to the diagonal scale.
            let scale: f64 = (0..k).map(|i| xtx[i * k + i]).sum::<f64>() / k as f64;
            let ridge = scale.max(1e-300) * 1e-10;
            for i in 0..k {
                xtx[i * k + i] += ridge;
            }
            solve_spd(&xtx, &xty, k).expect("ridge-regularized system must be SPD")
        }
    }
}

/// Covariance matrix of the OLS estimate: `sigma^2 (X^T X)^{-1}` with
/// `sigma^2 = ss_res / (m - k)` (row-major `k x k`). Returns zeros when
/// `m == k` (no residual degrees of freedom). Falls back to the same
/// ridge as [`least_squares`] on singular designs.
pub fn ols_covariance(x: &[f64], y: &[f64], beta: &[f64], m: usize, k: usize) -> Vec<f64> {
    assert_eq!(x.len(), m * k);
    assert_eq!(y.len(), m);
    let mut ss_res = 0.0;
    for r in 0..m {
        let row = &x[r * k..(r + 1) * k];
        let pred: f64 = row.iter().zip(beta).map(|(a, b)| a * b).sum();
        ss_res += (y[r] - pred) * (y[r] - pred);
    }
    if m <= k {
        return vec![0.0; k * k];
    }
    let sigma2 = ss_res / (m - k) as f64;
    let mut xtx = vec![0.0; k * k];
    for r in 0..m {
        let row = &x[r * k..(r + 1) * k];
        for i in 0..k {
            for j in 0..k {
                xtx[i * k + j] += row[i] * row[j];
            }
        }
    }
    // Invert via Cholesky solves against unit vectors.
    let inv_col = |xtx: &[f64], j: usize| -> Option<Vec<f64>> {
        let mut e = vec![0.0; k];
        e[j] = 1.0;
        solve_spd(xtx, &e, k).ok()
    };
    let mut inv = vec![0.0; k * k];
    let mut source = xtx.clone();
    if cholesky(&source, k).is_err() {
        let scale: f64 = (0..k).map(|i| source[i * k + i]).sum::<f64>() / k as f64;
        let ridge = scale.max(1e-300) * 1e-10;
        for i in 0..k {
            source[i * k + i] += ridge;
        }
    }
    for j in 0..k {
        let col = inv_col(&source, j).expect("regularized system is SPD");
        for i in 0..k {
            inv[i * k + j] = col[i];
        }
    }
    for v in inv.iter_mut() {
        *v *= sigma2;
    }
    inv
}

/// Coefficient of determination `R^2` of a fit.
pub fn r_squared(x: &[f64], y: &[f64], beta: &[f64], m: usize, k: usize) -> f64 {
    let mean = y.iter().sum::<f64>() / m as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for r in 0..m {
        let row = &x[r * k..(r + 1) * k];
        let pred: f64 = row.iter().zip(beta).map(|(a, b)| a * b).sum();
        ss_res += (y[r] - pred) * (y[r] - pred);
        ss_tot += (y[r] - mean) * (y[r] - mean);
    }
    if ss_tot == 0.0 {
        // Constant target: perfect iff residuals are negligible relative
        // to the target's magnitude.
        let y_norm2: f64 = y.iter().map(|v| v * v).sum();
        if ss_res <= 1e-20 * y_norm2.max(f64::MIN_POSITIVE) {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_of_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let l = cholesky(&a, 2).unwrap();
        assert_eq!(l, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn cholesky_reconstructs() {
        // A = L0 L0^T for a chosen lower-triangular L0.
        let l0 = [2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.5, -1.0, 1.5];
        let n = 3;
        let mut a = vec![0.0; 9];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i * n + j] += l0[i * n + k] * l0[j * n + k];
                }
            }
        }
        let l = cholesky(&a, n).unwrap();
        for i in 0..9 {
            assert!((l[i] - l0[i]).abs() < 1e-12, "entry {i}: {} vs {}", l[i], l0[i]);
        }
    }

    #[test]
    fn non_spd_rejected() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(cholesky(&a, 2), Err(NotSpd));
    }

    #[test]
    fn spd_solve_exact() {
        let a = vec![4.0, 1.0, 1.0, 3.0];
        let x_true = [2.0, -1.0];
        let b = [4.0 * 2.0 - 1.0, 1.0 * 2.0 - 3.0];
        let x = solve_spd(&a, &b, 2).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-12);
        assert!((x[1] - x_true[1]).abs() < 1e-12);
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        // y = 3 + 2 t sampled exactly.
        let ts = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &t in &ts {
            x.extend_from_slice(&[1.0, t]);
            y.push(3.0 + 2.0 * t);
        }
        let beta = least_squares(&x, &y, ts.len(), 2);
        assert!((beta[0] - 3.0).abs() < 1e-10);
        assert!((beta[1] - 2.0).abs() < 1e-10);
        assert!((r_squared(&x, &y, &beta, ts.len(), 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_with_noise_is_close() {
        // Deterministic "noise" that sums to ~zero.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let m = 40;
        for r in 0..m {
            let t = r as f64 / 4.0;
            let noise = if r % 2 == 0 { 0.05 } else { -0.05 };
            x.extend_from_slice(&[1.0, t]);
            y.push(1.5 - 0.7 * t + noise);
        }
        let beta = least_squares(&x, &y, m, 2);
        assert!((beta[0] - 1.5).abs() < 0.05);
        assert!((beta[1] + 0.7).abs() < 0.02);
        assert!(r_squared(&x, &y, &beta, m, 2) > 0.99);
    }

    #[test]
    fn rank_deficient_design_falls_back_to_ridge() {
        // Two identical columns: normal equations singular.
        let x = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let y = vec![2.0, 4.0, 6.0];
        let beta = least_squares(&x, &y, 3, 2);
        // Ridge splits the weight; predictions should still be right.
        let pred = beta[0] + beta[1];
        assert!((pred - 2.0).abs() < 1e-3);
    }

    #[test]
    fn covariance_zero_for_exact_fit() {
        let ts = [1.0, 2.0, 3.0, 4.0];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &t in &ts {
            x.extend_from_slice(&[1.0, t]);
            y.push(2.0 + 5.0 * t);
        }
        let beta = least_squares(&x, &y, 4, 2);
        let cov = ols_covariance(&x, &y, &beta, 4, 2);
        for v in &cov {
            assert!(v.abs() < 1e-18, "exact fit must have ~zero covariance, got {v}");
        }
    }

    #[test]
    fn covariance_scales_with_noise() {
        let build = |noise: f64| {
            let mut x = Vec::new();
            let mut y = Vec::new();
            for r in 0..40 {
                let t = 1.0 + r as f64 * 0.25;
                let eps = if r % 2 == 0 { noise } else { -noise };
                x.extend_from_slice(&[1.0, t]);
                y.push(3.0 - 0.5 * t + eps);
            }
            let beta = least_squares(&x, &y, 40, 2);
            ols_covariance(&x, &y, &beta, 40, 2)
        };
        let small = build(0.01);
        let big = build(0.1);
        assert!(big[0] > small[0] * 50.0, "variance must grow ~noise^2");
        // Diagonal entries are variances: non-negative.
        assert!(small[0] >= 0.0 && small[3] >= 0.0);
    }

    #[test]
    fn covariance_no_dof_returns_zeros() {
        let x = vec![1.0, 1.0, 1.0, 2.0];
        let y = vec![1.0, 2.0];
        let beta = least_squares(&x, &y, 2, 2);
        assert_eq!(ols_covariance(&x, &y, &beta, 2, 2), vec![0.0; 4]);
    }

    #[test]
    fn r_squared_of_constant_target() {
        let x = vec![1.0, 1.0, 1.0];
        let y = vec![5.0, 5.0, 5.0];
        let beta = least_squares(&x, &y, 3, 1);
        assert!((beta[0] - 5.0).abs() < 1e-12);
        assert_eq!(r_squared(&x, &y, &beta, 3, 1), 1.0);
    }
}
