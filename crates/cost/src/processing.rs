//! Processing cost model — Amdahl's law (paper Eq. 1, Lemma 1).
//!
//! `t^C(q) = (alpha + (1 - alpha)/q) * tau` is a posynomial in `q`
//! (coefficients `alpha*tau >= 0` and `(1-alpha)*tau >= 0`, exponents 0
//! and −1), and so is `t^C(q) * q = alpha*tau*q + (1-alpha)*tau` — the two
//! conditions Section 2 requires for the convex-programming equivalence.

use paradigm_mdg::AmdahlParams;

/// Processing cost `t^C(q)` of a loop with parameters `params` on `q`
/// (possibly fractional) processors.
pub fn processing_cost(params: AmdahlParams, q: f64) -> f64 {
    params.cost(q)
}

/// Processor-time area `t^C(q) * q` — the contribution of the loop to the
/// numerator of the average finish time `A_p`.
pub fn processing_area(params: AmdahlParams, q: f64) -> f64 {
    params.area(q)
}

/// Speedup `t^C(1) / t^C(q)`.
pub fn speedup(params: AmdahlParams, q: f64) -> f64 {
    if params.tau == 0.0 {
        return 1.0;
    }
    params.cost(1.0) / params.cost(q)
}

/// Efficiency `speedup / q`.
pub fn efficiency(params: AmdahlParams, q: f64) -> f64 {
    speedup(params, q) / q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul() -> AmdahlParams {
        AmdahlParams::new(0.121, 298.47e-3)
    }

    #[test]
    fn cost_matches_closed_form() {
        let p = matmul();
        for q in [1.0, 2.0, 3.5, 8.0, 64.0] {
            let expect = (0.121 + 0.879 / q) * 298.47e-3;
            assert!((processing_cost(p, q) - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn speedup_saturates_at_inverse_alpha() {
        let p = matmul();
        // Amdahl's asymptote: max speedup = 1/alpha.
        let s = speedup(p, 1e9);
        assert!(s < 1.0 / 0.121 + 1e-6);
        assert!(s > 1.0 / 0.121 - 1e-2);
    }

    #[test]
    fn efficiency_decreases_with_q() {
        let p = matmul();
        let mut prev = f64::INFINITY;
        for q in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let e = efficiency(p, q);
            assert!(e < prev);
            prev = e;
        }
    }

    /// Numerical verification of Lemma 1: t^C is convex in x = ln q
    /// (midpoint convexity on a grid), which is the property the
    /// geometric-programming transformation relies on.
    #[test]
    fn cost_is_logspace_convex() {
        let p = matmul();
        let f = |x: f64| processing_cost(p, x.exp());
        let xs: Vec<f64> = (0..=40).map(|i| i as f64 * 64.0_f64.ln() / 40.0).collect();
        for w in xs.windows(3) {
            let (a, b, c) = (w[0], w[1], w[2]);
            // b is the midpoint of (a, c) by construction.
            assert!(f(b) <= 0.5 * (f(a) + f(c)) + 1e-12, "log-convexity violated at {b}");
        }
    }

    /// And the second condition: t^C(q) * q is also posynomial, hence
    /// log-space convex.
    #[test]
    fn area_is_logspace_convex() {
        let p = matmul();
        let f = |x: f64| processing_area(p, x.exp());
        let xs: Vec<f64> = (0..=40).map(|i| i as f64 * 64.0_f64.ln() / 40.0).collect();
        for w in xs.windows(3) {
            let (a, b, c) = (w[0], w[1], w[2]);
            assert!(f(b) <= 0.5 * (f(a) + f(c)) + 1e-12);
        }
    }

    #[test]
    fn zero_tau_speedup_is_one() {
        let p = AmdahlParams::ZERO;
        assert_eq!(speedup(p, 16.0), 1.0);
    }
}
