//! Flat, tape-recording form of [`Expr`] for the solver's hot paths.
//!
//! The tree walk in [`Expr::eval_grad`] is correct but pays twice on
//! every gradient: pointer-chasing through boxed enum nodes, and — worse
//! — *re-evaluating* each subexpression on the way back down to recover
//! `max` weights and monomial values that the forward pass already knew.
//! A [`CompiledExpr`] removes both costs:
//!
//! * the expression is flattened once into a post-order array of ops over
//!   one contiguous term table (cache-friendly, no recursion);
//! * `eval_tape` records every op's value and every `max`'s weights into
//!   caller-owned slices as it evaluates;
//! * `backprop` then replays the ops **in reverse** using only the tape —
//!   pure sparse multiply-adds, no `exp`, no `powf`, no re-evaluation.
//!
//! Together with the smoothed-max kernel below (integer sharpness via
//! repeated squaring instead of `powf`, weights recovered algebraically
//! from the already-computed powers), this is what turns the reverse-mode
//! sweep's `O(E + Σ posynomial terms)` bound into a wall-clock win.
//!
//! Numerical contract: at [`Sharpness::Exact`] the compiled evaluation is
//! **bit-identical** to the tree walk (same summation order, same
//! first-argmax tie-breaking), so exact-max tie-breaking decisions never
//! diverge between the two. At `Smooth(s)` the faster power kernel may
//! differ from `powf` in the last ulps; the gradient property tests pin
//! the agreement at 1e-9 relative.

use crate::expr::{Expr, Sharpness};

/// Per-evaluation caches of `exp(x_j)` and friends, filled once per
/// objective call and shared by every compiled expression in it.
///
/// The objective's monomials only ever use exponents in
/// `{±1, ±0.5}` (processor ratios and the 2D mesh's square-root terms),
/// so with these caches a monomial value is a handful of multiplies
/// instead of a dot product plus `exp` — the dominant cost of the
/// smoothed forward sweep. The caches are *not* used at
/// [`Sharpness::Exact`]: there the `exp(Σ a_j x_j)` path is kept so the
/// compiled evaluation stays bit-identical to the tree walk and exact
/// `max` tie-breaking never diverges.
#[derive(Debug, Default)]
pub struct VarCache {
    /// `exp(x_j)` per variable. Filled on every objective call (even at
    /// [`Sharpness::Exact`], where the monomials don't consume it): the
    /// objective's fused `A_p = (1/p) Σ T_i e^{x_i}` accumulation reads
    /// it directly.
    pub(crate) e: Vec<f64>,
    /// `1 / exp(x_j)`.
    pub(crate) inv: Vec<f64>,
    /// `sqrt(exp(x_j))`; filled only when `halves` is requested.
    pub(crate) sq: Vec<f64>,
    /// `1 / sqrt(exp(x_j))`; same lifecycle as `sq`.
    pub(crate) isq: Vec<f64>,
}

impl VarCache {
    /// Fill the caches for the point `x`. `halves` asks for the
    /// square-root caches too (only needed when some monomial carries a
    /// `±0.5` exponent). Capacity is retained across calls.
    pub fn fill(&mut self, x: &[f64], halves: bool) {
        let n = x.len();
        self.e.resize(n, 0.0);
        self.inv.resize(n, 0.0);
        for (j, &xj) in x.iter().enumerate() {
            let e = xj.exp();
            self.e[j] = e;
            self.inv[j] = 1.0 / e;
        }
        if halves {
            self.sq.resize(n, 0.0);
            self.isq.resize(n, 0.0);
            for j in 0..n {
                let s = self.e[j].sqrt();
                self.sq[j] = s;
                self.isq[j] = 1.0 / s;
            }
        }
    }
}

/// One monomial value: the cached-factor product when a [`VarCache`] is
/// supplied, the reference `coeff · exp(Σ a_j x_j)` otherwise.
#[inline]
fn mono_val(terms: &[(u32, f64)], coeff: f64, x: &[f64], cache: Option<&VarCache>) -> f64 {
    if coeff == 0.0 {
        return 0.0;
    }
    match cache {
        Some(c) => {
            let mut v = coeff;
            for &(j, a) in terms {
                let j = j as usize;
                v *= if a == 1.0 {
                    c.e[j]
                } else if a == -1.0 {
                    c.inv[j]
                } else if a == 0.5 {
                    c.sq[j]
                } else if a == -0.5 {
                    c.isq[j]
                } else {
                    c.e[j].powf(a)
                };
            }
            v
        }
        None => {
            let e: f64 = terms.iter().map(|&(j, a)| a * x[j as usize]).sum();
            coeff * e.exp()
        }
    }
}

/// One post-order instruction. `Mono` pushes a value; `Sum`/`Max` pop
/// their `k` children and push the reduction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `coeff * exp(Σ a_j x_j)` over `terms[lo..hi]`.
    Mono { coeff: f64, lo: u32, hi: u32 },
    /// Sum of the top `k` stack values, in push order.
    Sum { k: u32 },
    /// Smoothed max of the top `k` stack values; weights are recorded at
    /// `wts[w0 .. w0 + k]`.
    Max { k: u32, w0: u32 },
}

/// A compiled generalized posynomial: post-order ops over a flat term
/// table. Build once per objective with [`CompiledExpr::compile`], then
/// evaluate via [`CompiledExpr::eval_tape`] / [`CompiledExpr::backprop`]
/// against caller-owned tape slices (see
/// [`crate::workspace::EvalScratch`]).
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    pub(crate) ops: Vec<Op>,
    /// `(variable index, exponent)` pairs of every monomial, contiguous.
    pub(crate) terms: Vec<(u32, f64)>,
    /// Total `max` weight slots (Σ k over `Max` ops).
    pub(crate) wts_len: usize,
}

impl CompiledExpr {
    /// Flatten an expression tree. Child order is preserved, so at
    /// [`Sharpness::Exact`] evaluation is bit-identical to [`Expr::eval`].
    pub fn compile(e: &Expr) -> CompiledExpr {
        let mut c = CompiledExpr { ops: Vec::new(), terms: Vec::new(), wts_len: 0 };
        c.emit(e);
        c
    }

    fn emit(&mut self, e: &Expr) {
        match e {
            Expr::Mono(m) => {
                let lo = self.terms.len() as u32;
                self.terms.extend(m.exps.iter().map(|&(j, a)| (j as u32, a)));
                let hi = self.terms.len() as u32;
                self.ops.push(Op::Mono { coeff: m.coeff, lo, hi });
            }
            Expr::Sum(v) => {
                for child in v {
                    self.emit(child);
                }
                self.ops.push(Op::Sum { k: v.len() as u32 });
            }
            Expr::Max(v) => {
                for child in v {
                    self.emit(child);
                }
                let w0 = self.wts_len as u32;
                self.wts_len += v.len();
                self.ops.push(Op::Max { k: v.len() as u32, w0 });
            }
        }
    }

    /// Number of value-tape slots this expression needs (one per op).
    pub fn vals_len(&self) -> usize {
        self.ops.len()
    }

    /// Number of weight-tape slots this expression needs.
    pub fn wts_len(&self) -> usize {
        self.wts_len
    }

    /// Whether any monomial carries a `±0.5` exponent (the 2D mesh's
    /// square-root network terms); tells the objective whether
    /// [`VarCache::fill`] must populate the square-root caches.
    pub fn has_half_exponents(&self) -> bool {
        self.terms.iter().any(|&(_, a)| a == 0.5 || a == -0.5)
    }

    /// Value-only evaluation (no tape): same arithmetic as
    /// [`CompiledExpr::eval_tape`] given the same `cache` choice, so the
    /// two return bit-identical values. Used by the descent loop's
    /// line-search probes, which never take a gradient.
    pub fn eval(
        &self,
        x: &[f64],
        sharp: Sharpness,
        stack: &mut Vec<f64>,
        cache: Option<&VarCache>,
    ) -> f64 {
        let base = stack.len();
        for op in &self.ops {
            let v = match *op {
                Op::Mono { coeff, lo, hi } => {
                    mono_val(&self.terms[lo as usize..hi as usize], coeff, x, cache)
                }
                Op::Sum { k } => {
                    let b = stack.len() - k as usize;
                    let mut s = 0.0;
                    for &c in &stack[b..] {
                        s += c;
                    }
                    stack.truncate(b);
                    s
                }
                Op::Max { k, w0: _ } => {
                    let b = stack.len() - k as usize;
                    let v = smax_fast(&stack[b..], sharp);
                    stack.truncate(b);
                    v
                }
            };
            stack.push(v);
        }
        let out = stack.pop().unwrap_or(0.0);
        debug_assert_eq!(stack.len(), base);
        out
    }

    /// Evaluate at log-space point `x`, recording each op's value into
    /// `vals` and each `max`'s weights into `wts` (the tape). `stack` is
    /// the shared value stack; it is restored to its entry length.
    pub fn eval_tape(
        &self,
        x: &[f64],
        sharp: Sharpness,
        stack: &mut Vec<f64>,
        vals: &mut [f64],
        wts: &mut [f64],
        cache: Option<&VarCache>,
    ) -> f64 {
        debug_assert_eq!(vals.len(), self.ops.len());
        debug_assert_eq!(wts.len(), self.wts_len);
        let base = stack.len();
        for (i, op) in self.ops.iter().enumerate() {
            let v = match *op {
                Op::Mono { coeff, lo, hi } => {
                    mono_val(&self.terms[lo as usize..hi as usize], coeff, x, cache)
                }
                Op::Sum { k } => {
                    let b = stack.len() - k as usize;
                    let mut s = 0.0;
                    for &c in &stack[b..] {
                        s += c;
                    }
                    stack.truncate(b);
                    s
                }
                Op::Max { k, w0 } => {
                    let b = stack.len() - k as usize;
                    let v = smax_weights_fast(
                        &stack[b..],
                        sharp,
                        &mut wts[w0 as usize..w0 as usize + k as usize],
                    );
                    stack.truncate(b);
                    v
                }
            };
            vals[i] = v;
            stack.push(v);
        }
        let out = stack.pop().unwrap_or(0.0);
        debug_assert_eq!(stack.len(), base);
        out
    }

    /// Accumulate `seed * ∂value/∂x` into `grad` by replaying the tape
    /// recorded by the matching [`CompiledExpr::eval_tape`] call in
    /// reverse. No expression re-evaluation: monomial values come from
    /// `vals`, `max` weights from `wts`. `adj` is a scratch adjoint
    /// stack (restored to its entry length).
    pub fn backprop(
        &self,
        seed: f64,
        vals: &[f64],
        wts: &[f64],
        grad: &mut [f64],
        adj: &mut Vec<f64>,
    ) {
        debug_assert_eq!(vals.len(), self.ops.len());
        if seed == 0.0 || self.ops.is_empty() {
            return;
        }
        let base = adj.len();
        adj.push(seed);
        for (i, op) in self.ops.iter().enumerate().rev() {
            let a = adj.pop().expect("adjoint stack in sync with ops");
            match *op {
                Op::Mono { coeff: _, lo, hi } => {
                    let av = a * vals[i];
                    if av != 0.0 {
                        for &(j, e) in &self.terms[lo as usize..hi as usize] {
                            grad[j as usize] += av * e;
                        }
                    }
                }
                // Children were pushed left-to-right, so the reverse walk
                // meets the *last* child's subtree first: push adjoints
                // left-to-right and pops line up with child k-1, k-2, ...
                Op::Sum { k } => {
                    for _ in 0..k {
                        adj.push(a);
                    }
                }
                Op::Max { k, w0 } => {
                    for t in 0..k as usize {
                        adj.push(a * wts[w0 as usize + t]);
                    }
                }
            }
        }
        debug_assert_eq!(adj.len(), base);
    }
}

/// Smoothed max with gradient weights written into `wts`, semantically
/// identical to [`crate::expr::smax_weights`] (same first-argmax rule at
/// [`Sharpness::Exact`], same all-zero guard) but built for the hot
/// path: integer sharpness goes through `powi` (repeated squaring), and
/// the weights `(v_k/val)^{s-1}` are recovered from the already-computed
/// powers as `(t_k/Σt) · (val/v_k)` — one division each instead of a
/// `powf`.
pub(crate) fn smax_weights_fast(vals: &[f64], sharp: Sharpness, wts: &mut [f64]) -> f64 {
    debug_assert_eq!(vals.len(), wts.len());
    let m = vals.iter().copied().fold(0.0_f64, f64::max);
    match sharp {
        Sharpness::Exact => {
            let k = vals.iter().position(|&v| v == m);
            for w in wts.iter_mut() {
                *w = 0.0;
            }
            if let Some(k) = k {
                wts[k] = 1.0;
            }
            m
        }
        Sharpness::Smooth(s) => {
            if m == 0.0 {
                for w in wts.iter_mut() {
                    *w = 0.0;
                }
                return 0.0;
            }
            let mut sum = 0.0;
            for (w, &v) in wts.iter_mut().zip(vals) {
                let t = pow_sharp(v / m, s);
                *w = t;
                sum += t;
            }
            let val = m * root_sharp(sum, s);
            for (w, &v) in wts.iter_mut().zip(vals) {
                // (v/val)^(s-1) = ((v/m)^s / Σt) · (val/v), since
                // (val/m)^s = Σt. Underflowed powers stay exactly 0.
                *w = if *w == 0.0 { 0.0 } else { (*w / sum) * (val / v) };
            }
            val
        }
    }
}

/// Value-only [`smax_weights_fast`] for paths that need no tape.
pub(crate) fn smax_fast(vals: &[f64], sharp: Sharpness) -> f64 {
    let m = vals.iter().copied().fold(0.0_f64, f64::max);
    match sharp {
        Sharpness::Exact => m,
        Sharpness::Smooth(s) => {
            if m == 0.0 {
                return 0.0;
            }
            let sum: f64 = vals.iter().map(|&v| pow_sharp(v / m, s)).sum();
            m * root_sharp(sum, s)
        }
    }
}

/// `b^s` for `b ∈ [0, 1]`: repeated squaring via `powi` when `s` is a
/// small positive integer (the annealing schedule's 4/16/64/256 all
/// are), `powf` otherwise.
#[inline]
pub(crate) fn pow_sharp(b: f64, s: f64) -> f64 {
    if s.fract() == 0.0 && (1.0..=512.0).contains(&s) {
        b.powi(s as i32)
    } else {
        b.powf(s)
    }
}

/// `v^{1/s}`: repeated hardware `sqrt` when `s` is a power of two (the
/// annealing schedule's are), `powf` otherwise.
#[inline]
pub(crate) fn root_sharp(v: f64, s: f64) -> f64 {
    if s.fract() == 0.0 && (2.0..=512.0).contains(&s) && (s as u32).is_power_of_two() {
        let mut r = v;
        let mut k = s as u32;
        while k > 1 {
            r = r.sqrt();
            k >>= 1;
        }
        r
    } else {
        v.powf(1.0 / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{smax_weights, Monomial};

    fn sample_expr() -> Expr {
        // Nested max-in-sum-in-max, mirroring the shapes the objective
        // builds (1D transfer startup max inside a node-T sum).
        Expr::sum(vec![
            Expr::max(vec![
                Expr::Mono(Monomial::single(2.0, 0, 1.0)),
                Expr::sum(vec![
                    Expr::Mono(Monomial::single(1.0, 1, 1.0)),
                    Expr::max(vec![
                        Expr::Mono(Monomial::pair(0.5, 0, 1.0, 1, -1.0)),
                        Expr::constant(0.25),
                    ]),
                ]),
            ]),
            Expr::Mono(Monomial::pair(1.0, 0, 1.0, 1, -1.0)),
            Expr::constant(0.3),
        ])
    }

    fn tape_for(c: &CompiledExpr) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; c.vals_len()], vec![0.0; c.wts_len()])
    }

    #[test]
    fn compiled_eval_is_bitwise_identical_to_tree_at_exact() {
        let e = sample_expr();
        let c = CompiledExpr::compile(&e);
        let (mut vals, mut wts) = tape_for(&c);
        let mut stack = Vec::new();
        for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7], [2.0, -1.0]] {
            let v0 = e.eval(&x, Sharpness::Exact);
            let v1 = c.eval_tape(&x, Sharpness::Exact, &mut stack, &mut vals, &mut wts, None);
            assert_eq!(v0.to_bits(), v1.to_bits(), "at {x:?}");
            assert!(stack.is_empty());
        }
    }

    #[test]
    fn compiled_eval_matches_tree_at_smooth_to_rounding() {
        let e = sample_expr();
        let c = CompiledExpr::compile(&e);
        let (mut vals, mut wts) = tape_for(&c);
        let mut stack = Vec::new();
        let mut cache = VarCache::default();
        for s in [4.0, 64.0, 256.0, 3.7] {
            for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7]] {
                let v0 = e.eval(&x, Sharpness::Smooth(s));
                let sharp = Sharpness::Smooth(s);
                let v1 = c.eval_tape(&x, sharp, &mut stack, &mut vals, &mut wts, None);
                assert!(
                    (v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0),
                    "s={s} x={x:?}: {v0} vs {v1}"
                );
                cache.fill(&x, c.has_half_exponents());
                let v2 = c.eval_tape(&x, sharp, &mut stack, &mut vals, &mut wts, Some(&cache));
                assert!(
                    (v0 - v2).abs() <= 1e-12 * v0.abs().max(1.0),
                    "cached s={s} x={x:?}: {v0} vs {v2}"
                );
                let v3 = c.eval(&x, sharp, &mut stack, Some(&cache));
                assert_eq!(v2.to_bits(), v3.to_bits(), "eval vs eval_tape, same cache");
            }
        }
    }

    #[test]
    fn backprop_matches_tree_gradient() {
        let e = sample_expr();
        let c = CompiledExpr::compile(&e);
        let (mut vals, mut wts) = tape_for(&c);
        let mut stack = Vec::new();
        let mut adj = Vec::new();
        let mut cache = VarCache::default();
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0), Sharpness::Smooth(256.0)] {
            for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7], [2.0, -1.0]] {
                let mut g0 = vec![0.0; 2];
                let _ = e.eval_grad(&x, sharp, 1.7, &mut g0);
                // Smooth uses the cached-factor monomials, Exact the
                // bit-identical exp path — mirroring the objective.
                let vc = if matches!(sharp, Sharpness::Smooth(_)) {
                    cache.fill(&x, c.has_half_exponents());
                    Some(&cache)
                } else {
                    None
                };
                let _ = c.eval_tape(&x, sharp, &mut stack, &mut vals, &mut wts, vc);
                let mut g1 = vec![0.0; 2];
                c.backprop(1.7, &vals, &wts, &mut g1, &mut adj);
                assert!(adj.is_empty() && stack.is_empty());
                for j in 0..2 {
                    assert!(
                        (g0[j] - g1[j]).abs() <= 1e-9 * (1.0 + g0[j].abs()),
                        "{sharp:?} x={x:?} var {j}: tree {} vs tape {}",
                        g0[j],
                        g1[j]
                    );
                }
            }
        }
    }

    #[test]
    fn backprop_zero_seed_is_a_no_op() {
        let e = sample_expr();
        let c = CompiledExpr::compile(&e);
        let (mut vals, mut wts) = tape_for(&c);
        let mut stack = Vec::new();
        let _ =
            c.eval_tape(&[1.0, 1.0], Sharpness::Smooth(8.0), &mut stack, &mut vals, &mut wts, None);
        let mut g = vec![0.0; 2];
        let mut adj = Vec::new();
        c.backprop(0.0, &vals, &wts, &mut g, &mut adj);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fast_smax_kernels_match_reference() {
        for sharp in [Sharpness::Exact, Sharpness::Smooth(4.0), Sharpness::Smooth(256.0)] {
            for vals in [
                vec![1.0, 2.0, 3.0, 0.5],
                vec![2.0, 2.0],
                vec![0.0, 0.0],
                vec![7.0],
                vec![1e-8, 100.0, 0.0],
            ] {
                let (v0, w0) = smax_weights(&vals, sharp);
                let mut w1 = vec![0.0; vals.len()];
                let v1 = smax_weights_fast(&vals, sharp, &mut w1);
                let v2 = smax_fast(&vals, sharp);
                assert!((v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0), "{sharp:?} {vals:?}");
                assert_eq!(v1.to_bits(), v2.to_bits(), "value-only kernel must agree");
                for (a, b) in w0.iter().zip(&w1) {
                    assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                        "{sharp:?} {vals:?}: weight {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_monomials_match_exp_path_with_half_exponents() {
        // ±0.5 exponents (the 2D mesh network terms) exercise the
        // square-root caches; an exotic exponent hits the powf fallback.
        let e = Expr::sum(vec![
            Expr::Mono(Monomial::pair(3.0, 0, 0.5, 1, -0.5)),
            Expr::Mono(Monomial::single(1.5, 1, -0.5)),
            Expr::Mono(Monomial::single(0.5, 0, 2.0)),
        ]);
        let c = CompiledExpr::compile(&e);
        assert!(c.has_half_exponents());
        let (mut vals, mut wts) = tape_for(&c);
        let mut stack = Vec::new();
        let mut cache = VarCache::default();
        for x in [[0.0, 0.0], [1.3, -0.4], [2.0, 2.0]] {
            let sharp = Sharpness::Smooth(16.0);
            let v0 = c.eval_tape(&x, sharp, &mut stack, &mut vals, &mut wts, None);
            cache.fill(&x, true);
            let v1 = c.eval_tape(&x, sharp, &mut stack, &mut vals, &mut wts, Some(&cache));
            assert!((v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0), "x={x:?}: {v0} vs {v1}");
        }
    }

    #[test]
    fn zero_expression_compiles_and_evaluates() {
        let c = CompiledExpr::compile(&Expr::zero());
        let (mut vals, mut wts) = tape_for(&c);
        let mut stack = Vec::new();
        let v = c.eval_tape(&[], Sharpness::Smooth(8.0), &mut stack, &mut vals, &mut wts, None);
        assert_eq!(v, 0.0);
        let mut g: Vec<f64> = Vec::new();
        let mut adj = Vec::new();
        c.backprop(1.0, &vals, &wts, &mut g, &mut adj);
    }
}
