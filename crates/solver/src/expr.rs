//! Generalized posynomial expression trees.
//!
//! A **monomial** is `c * Π_j p_j^{a_j}` with `c > 0`; under `x = ln p`
//! it becomes `exp(ln c + Σ a_j x_j)` — log-convex. A **posynomial** is a
//! sum of monomials; a **generalized posynomial** additionally closes the
//! family under pointwise `max`. All three remain convex in `x`, which is
//! the foundation of the geometric-programming view the paper takes.
//!
//! Evaluation happens directly in `p`-space but gradients are taken with
//! respect to `x = ln p` (so `∂(c p^a)/∂x = a * value`). The `max` nodes
//! are evaluated either exactly (sharpness = ∞, subgradient of the
//! argmax) or through the scaled p-norm smoothing
//!
//! ```text
//! smax_s(v) = ( Σ v_k^s )^{1/s}        (v_k >= 0)
//! ```
//!
//! which is smooth, convex, scale-invariant, upper-bounds the exact max,
//! and approaches it as the sharpness `s → ∞` (overestimation factor at
//! most `k^{1/s}` for `k` arguments). The solver anneals `s` upward.

/// Sharpness parameter for smoothed max evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sharpness {
    /// Exact max; gradient is the subgradient of the (first) argmax.
    Exact,
    /// p-norm smoothing with the given exponent (>= 1).
    Smooth(f64),
}

/// `c * Π p_j^{a_j}` with `c >= 0`. Zero-coefficient monomials evaluate
/// to 0 and are dropped by the `Expr` constructors.
#[derive(Debug, Clone, PartialEq)]
pub struct Monomial {
    /// Coefficient, `>= 0`.
    pub coeff: f64,
    /// `(variable index, exponent)` pairs; indices must be unique.
    pub exps: Vec<(usize, f64)>,
}

impl Monomial {
    /// Checked coefficient validation shared by all constructors.
    fn check_coeff(c: f64) -> Result<(), String> {
        if c >= 0.0 && c.is_finite() {
            Ok(())
        } else {
            Err(format!("monomial coefficient must be >= 0, got {c}"))
        }
    }

    /// Fallible [`Monomial::constant`].
    pub fn try_constant(c: f64) -> Result<Self, String> {
        Self::check_coeff(c)?;
        Ok(Monomial { coeff: c, exps: Vec::new() })
    }

    /// Fallible [`Monomial::single`].
    pub fn try_single(c: f64, var: usize, exp: f64) -> Result<Self, String> {
        Self::check_coeff(c)?;
        if exp == 0.0 {
            Self::try_constant(c)
        } else {
            Ok(Monomial { coeff: c, exps: vec![(var, exp)] })
        }
    }

    /// A constant monomial.
    pub fn constant(c: f64) -> Self {
        Self::try_constant(c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `c * p_var^exp`.
    pub fn single(c: f64, var: usize, exp: f64) -> Self {
        Self::try_single(c, var, exp).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `c * p_a^ea * p_b^eb` (merging if `a == b`).
    pub fn pair(c: f64, a: usize, ea: f64, b: usize, eb: f64) -> Self {
        Self::try_pair(c, a, ea, b, eb).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Monomial::pair`].
    pub fn try_pair(c: f64, a: usize, ea: f64, b: usize, eb: f64) -> Result<Self, String> {
        Self::check_coeff(c)?;
        let mut exps = Vec::new();
        if a == b {
            if ea + eb != 0.0 {
                exps.push((a, ea + eb));
            }
        } else {
            if ea != 0.0 {
                exps.push((a, ea));
            }
            if eb != 0.0 {
                exps.push((b, eb));
            }
        }
        Ok(Monomial { coeff: c, exps })
    }

    /// Value at `x` (log-space point): `c * exp(Σ a_j x_j)`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        if self.coeff == 0.0 {
            return 0.0;
        }
        let e: f64 = self.exps.iter().map(|&(j, a)| a * x[j]).sum();
        self.coeff * e.exp()
    }

    /// Accumulate `scale * ∂value/∂x_j` into `grad`.
    pub fn accumulate_grad(&self, x: &[f64], scale: f64, grad: &mut [f64]) {
        if self.coeff == 0.0 || scale == 0.0 {
            return;
        }
        let v = self.eval(x);
        for &(j, a) in &self.exps {
            grad[j] += scale * a * v;
        }
    }

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut exps = self.exps.clone();
        for &(j, a) in &other.exps {
            if let Some(slot) = exps.iter_mut().find(|(k, _)| *k == j) {
                slot.1 += a;
            } else {
                exps.push((j, a));
            }
        }
        exps.retain(|&(_, a)| a != 0.0);
        Monomial { coeff: self.coeff * other.coeff, exps }
    }
}

/// A generalized posynomial expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A single monomial.
    Mono(Monomial),
    /// Sum of sub-expressions.
    Sum(Vec<Expr>),
    /// Pointwise maximum of sub-expressions.
    Max(Vec<Expr>),
}

impl Expr {
    /// The zero expression.
    pub fn zero() -> Expr {
        Expr::Mono(Monomial::constant(0.0))
    }

    /// A constant.
    pub fn constant(c: f64) -> Expr {
        Expr::Mono(Monomial::constant(c))
    }

    /// Sum, dropping zero monomial terms.
    pub fn sum(terms: Vec<Expr>) -> Expr {
        let mut kept: Vec<Expr> = terms.into_iter().filter(|t| !t.is_zero()).collect();
        match kept.len() {
            0 => Expr::zero(),
            1 => kept.pop().expect("len checked"),
            _ => Expr::Sum(kept),
        }
    }

    /// Max, dropping duplicate zeros (max(0, e) = e since e >= 0).
    pub fn max(terms: Vec<Expr>) -> Expr {
        let mut kept: Vec<Expr> = terms.into_iter().filter(|t| !t.is_zero()).collect();
        match kept.len() {
            0 => Expr::zero(),
            1 => kept.pop().expect("len checked"),
            _ => Expr::Max(kept),
        }
    }

    /// True for a syntactic zero.
    pub fn is_zero(&self) -> bool {
        match self {
            Expr::Mono(m) => m.coeff == 0.0,
            Expr::Sum(v) | Expr::Max(v) => v.iter().all(Expr::is_zero),
        }
    }

    /// Multiply the whole expression by a monomial (distributes over sum
    /// and max — valid because monomials are positive, preserving order).
    pub fn mul_mono(&self, m: &Monomial) -> Expr {
        match self {
            Expr::Mono(a) => Expr::Mono(a.mul(m)),
            Expr::Sum(v) => Expr::Sum(v.iter().map(|e| e.mul_mono(m)).collect()),
            Expr::Max(v) => Expr::Max(v.iter().map(|e| e.mul_mono(m)).collect()),
        }
    }

    /// Value at log-space point `x` with the given max-sharpness.
    pub fn eval(&self, x: &[f64], sharp: Sharpness) -> f64 {
        match self {
            Expr::Mono(m) => m.eval(x),
            Expr::Sum(v) => v.iter().map(|e| e.eval(x, sharp)).sum(),
            Expr::Max(v) => {
                let vals: Vec<f64> = v.iter().map(|e| e.eval(x, sharp)).collect();
                smax(&vals, sharp)
            }
        }
    }

    /// Value and gradient (w.r.t. `x`) at `x`. `grad` must be zeroed by
    /// the caller (the method accumulates with weight `scale`).
    pub fn eval_grad(&self, x: &[f64], sharp: Sharpness, scale: f64, grad: &mut [f64]) -> f64 {
        match self {
            Expr::Mono(m) => {
                m.accumulate_grad(x, scale, grad);
                m.eval(x)
            }
            Expr::Sum(v) => v.iter().map(|e| e.eval_grad(x, sharp, scale, grad)).sum(),
            Expr::Max(v) => {
                let vals: Vec<f64> = v.iter().map(|e| e.eval(x, sharp)).collect();
                let (val, weights) = smax_weights(&vals, sharp);
                for (e, w) in v.iter().zip(weights) {
                    if w != 0.0 {
                        let _ = e.eval_grad(x, sharp, scale * w, grad);
                    }
                }
                val
            }
        }
    }

    /// Number of monomial leaves (diagnostic).
    pub fn term_count(&self) -> usize {
        match self {
            Expr::Mono(_) => 1,
            Expr::Sum(v) | Expr::Max(v) => v.iter().map(Expr::term_count).sum(),
        }
    }
}

/// Smoothed maximum of non-negative values.
pub fn smax(vals: &[f64], sharp: Sharpness) -> f64 {
    debug_assert!(vals.iter().all(|&v| v >= 0.0), "smax needs non-negative inputs");
    let m = vals.iter().copied().fold(0.0_f64, f64::max);
    match sharp {
        Sharpness::Exact => m,
        Sharpness::Smooth(s) => {
            if m == 0.0 {
                return 0.0;
            }
            let sum: f64 = vals.iter().map(|&v| (v / m).powf(s)).sum();
            m * sum.powf(1.0 / s)
        }
    }
}

/// Smoothed maximum together with the gradient weights
/// `∂ smax / ∂ v_k` (they sum to >= 1 for the p-norm, exactly the argmax
/// indicator for the exact max).
pub fn smax_weights(vals: &[f64], sharp: Sharpness) -> (f64, Vec<f64>) {
    let m = vals.iter().copied().fold(0.0_f64, f64::max);
    match sharp {
        Sharpness::Exact => {
            let mut w = vec![0.0; vals.len()];
            if let Some(k) = vals.iter().position(|&v| v == m) {
                w[k] = 1.0;
            }
            (m, w)
        }
        Sharpness::Smooth(s) => {
            if m == 0.0 {
                return (0.0, vec![0.0; vals.len()]);
            }
            let ratios: Vec<f64> = vals.iter().map(|&v| (v / m).powf(s)).collect();
            let sum: f64 = ratios.iter().sum();
            let val = m * sum.powf(1.0 / s);
            // d||v||_s / dv_k = (v_k / ||v||_s)^(s-1)
            let w: Vec<f64> = vals
                .iter()
                .map(|&v| if v == 0.0 { 0.0 } else { (v / val).powf(s - 1.0) })
                .collect();
            (val, w)
        }
    }
}

/// Two-argument [`smax_weights`] without the weight vector — used for
/// the top-level `Phi = smax(A_p, C_p)` combination. Returns
/// `(value, w_a, w_b)`, bit-identical to `smax_weights(&[a, b], sharp)`
/// (same fold order, same first-argmax rule for the exact case).
pub fn smax_pair_weights(a: f64, b: f64, sharp: Sharpness) -> (f64, f64, f64) {
    let m = 0.0_f64.max(a).max(b);
    match sharp {
        Sharpness::Exact => {
            if a == m {
                (m, 1.0, 0.0)
            } else if b == m {
                (m, 0.0, 1.0)
            } else {
                (m, 0.0, 0.0)
            }
        }
        Sharpness::Smooth(s) => {
            if m == 0.0 {
                return (0.0, 0.0, 0.0);
            }
            let sum = (a / m).powf(s) + (b / m).powf(s);
            let val = m * sum.powf(1.0 / s);
            let w = |v: f64| if v == 0.0 { 0.0 } else { (v / val).powf(s - 1.0) };
            (val, w(a), w(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_of(e: &Expr, x: &[f64], sharp: Sharpness) -> Vec<f64> {
        let mut g = vec![0.0; x.len()];
        let _ = e.eval_grad(x, sharp, 1.0, &mut g);
        g
    }

    fn finite_diff(e: &Expr, x: &[f64], sharp: Sharpness) -> Vec<f64> {
        let mut g = vec![0.0; x.len()];
        let h = 1e-7;
        for j in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[j] += h;
            xm[j] -= h;
            g[j] = (e.eval(&xp, sharp) - e.eval(&xm, sharp)) / (2.0 * h);
        }
        g
    }

    #[test]
    fn monomial_eval() {
        // 3 * p0^2 * p1^-1 at p0 = e, p1 = e^2 -> 3 * e^2 / e^2 = 3.
        let m = Monomial::pair(3.0, 0, 2.0, 1, -1.0);
        assert!((m.eval(&[1.0, 2.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn monomial_pair_merges_same_var() {
        let m = Monomial::pair(2.0, 0, 1.0, 0, -1.0);
        assert!(m.exps.is_empty(), "p0^1 * p0^-1 cancels");
        assert!((m.eval(&[5.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn monomial_mul() {
        let a = Monomial::single(2.0, 0, 1.0);
        let b = Monomial::pair(3.0, 0, 1.0, 1, -2.0);
        let c = a.mul(&b);
        assert!((c.coeff - 6.0).abs() < 1e-12);
        // p0^2 p1^-2 at x = (ln 2, ln 3): 6 * 4 / 9
        let x = [2.0_f64.ln(), 3.0_f64.ln()];
        assert!((c.eval(&x) - 6.0 * 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn sum_flattens_zeros() {
        let e = Expr::sum(vec![Expr::zero(), Expr::constant(2.0), Expr::zero()]);
        assert!(matches!(e, Expr::Mono(_)));
        assert!((e.eval(&[], Sharpness::Exact) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_exact_picks_largest() {
        let e = Expr::max(vec![Expr::Mono(Monomial::single(1.0, 0, 1.0)), Expr::constant(5.0)]);
        // p0 = e^0 = 1 -> max(1, 5) = 5; p0 = e^2 -> max(7.39, 5) = 7.39.
        assert!((e.eval(&[0.0], Sharpness::Exact) - 5.0).abs() < 1e-12);
        assert!((e.eval(&[2.0], Sharpness::Exact) - 2.0_f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn smooth_max_upper_bounds_exact() {
        let vals = [1.0, 2.0, 3.0, 0.5];
        for s in [2.0, 4.0, 16.0, 64.0] {
            let sm = smax(&vals, Sharpness::Smooth(s));
            assert!(sm >= 3.0);
            assert!(sm <= 3.0 * (vals.len() as f64).powf(1.0 / s) + 1e-12);
        }
    }

    #[test]
    fn smooth_max_converges_to_exact() {
        let vals = [1.0, 2.7, 2.6];
        let exact = smax(&vals, Sharpness::Exact);
        let s512 = smax(&vals, Sharpness::Smooth(512.0));
        assert!((s512 - exact).abs() < 1e-2 * exact);
    }

    #[test]
    fn smax_handles_all_zero() {
        assert_eq!(smax(&[0.0, 0.0], Sharpness::Smooth(8.0)), 0.0);
        let (v, w) = smax_weights(&[0.0, 0.0], Sharpness::Smooth(8.0));
        assert_eq!(v, 0.0);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gradient_matches_finite_difference_smooth() {
        // f = max(2 p0, p1) + p0 p1^-1 + 0.3
        let e = Expr::sum(vec![
            Expr::max(vec![
                Expr::Mono(Monomial::single(2.0, 0, 1.0)),
                Expr::Mono(Monomial::single(1.0, 1, 1.0)),
            ]),
            Expr::Mono(Monomial::pair(1.0, 0, 1.0, 1, -1.0)),
            Expr::constant(0.3),
        ]);
        for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7]] {
            let sharp = Sharpness::Smooth(8.0);
            let g = grad_of(&e, &x, sharp);
            let fd = finite_diff(&e, &x, sharp);
            for j in 0..2 {
                assert!(
                    (g[j] - fd[j]).abs() < 1e-5 * (1.0 + fd[j].abs()),
                    "x={x:?} j={j}: {} vs {}",
                    g[j],
                    fd[j]
                );
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference_exact_away_from_kink() {
        let e = Expr::max(vec![Expr::Mono(Monomial::single(1.0, 0, 1.0)), Expr::constant(2.0)]);
        // p0 = e^2 ≈ 7.39 > 2: smooth region, derivative = p0.
        let g = grad_of(&e, &[2.0], Sharpness::Exact);
        assert!((g[0] - 2.0_f64.exp()).abs() < 1e-9);
        // p0 = 1 < 2: flat region.
        let g = grad_of(&e, &[0.0], Sharpness::Exact);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn mul_mono_distributes() {
        let e = Expr::max(vec![Expr::constant(1.0), Expr::Mono(Monomial::single(1.0, 0, 1.0))]);
        let m = Monomial::single(2.0, 0, 1.0);
        let em = e.mul_mono(&m);
        // At p0 = 3 (x = ln 3): max(1, 3) * 2 * 3 = 18.
        let x = [3.0_f64.ln()];
        assert!((em.eval(&x, Sharpness::Exact) - 18.0).abs() < 1e-9);
    }

    /// Generalized posynomials are convex in x: random midpoint checks on
    /// a nontrivial expression (smooth and exact sharpness both).
    #[test]
    fn expr_is_logspace_convex() {
        let e = Expr::sum(vec![
            Expr::max(vec![Expr::Mono(Monomial::pair(1.5, 0, 1.0, 1, -1.0)), Expr::constant(1.5)]),
            Expr::Mono(Monomial::single(0.2, 1, 1.0)),
            Expr::Mono(Monomial::pair(0.7, 0, -1.0, 1, -1.0)),
        ]);
        let pts: Vec<[f64; 2]> = (0..10)
            .map(|k| {
                let a = (k as f64 * 0.77).sin() * 2.0;
                let b = (k as f64 * 1.3).cos() * 2.0;
                [a, b]
            })
            .collect();
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0)] {
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let mid = [(pts[i][0] + pts[j][0]) / 2.0, (pts[i][1] + pts[j][1]) / 2.0];
                    let lhs = e.eval(&mid, sharp);
                    let rhs = 0.5 * (e.eval(&pts[i], sharp) + e.eval(&pts[j], sharp));
                    assert!(lhs <= rhs + 1e-10, "convexity violated ({sharp:?})");
                }
            }
        }
    }

    #[test]
    fn term_count() {
        let e = Expr::sum(vec![
            Expr::max(vec![Expr::constant(1.0), Expr::constant(2.0)]),
            Expr::constant(3.0),
        ]);
        assert_eq!(e.term_count(), 3);
    }

    #[test]
    #[should_panic(expected = "coefficient")]
    fn negative_coefficient_rejected() {
        let _ = Monomial::constant(-1.0);
    }

    #[test]
    fn smax_pair_weights_matches_smax_weights() {
        for sharp in [Sharpness::Exact, Sharpness::Smooth(4.0), Sharpness::Smooth(256.0)] {
            for [a, b] in [[1.0, 2.0], [3.0, 0.5], [2.0, 2.0], [0.0, 0.0], [0.0, 7.0], [1e-9, 1e9]]
            {
                let (v0, w0) = smax_weights(&[a, b], sharp);
                let (v1, wa, wb) = smax_pair_weights(a, b, sharp);
                assert_eq!(v0.to_bits(), v1.to_bits());
                assert_eq!(w0[0].to_bits(), wa.to_bits());
                assert_eq!(w0[1].to_bits(), wb.to_bits());
            }
        }
    }
}
