//! K-wide (batched) execution of compiled expression tapes.
//!
//! Multistart descends K start points against one objective, replaying
//! the *same* compiled tape at each. This module adds a
//! structure-of-arrays execution mode for [`CompiledExpr`]: every tape
//! slot becomes a lane-major block of `k` values (`slot * k + lane`), and
//! the `Mono`/`Sum`/`Max` forward sweeps plus the reverse adjoint sweep
//! run as elementwise lane kernels.
//!
//! It has one caller in the solver, the smooth stages of the multistart
//! (`solve::descend_multi`, K = 4–8): per lane the kernels beat the
//! scalar tape 1.3–1.5× at K = 4, 1.6–1.9× at K = 6 and 1.9–2.8× at
//! K = 8, but at K = 1 they run at 0.4–0.6× of it, so every K ≤ 2 caller
//! stays on the scalar tape in `compiled`/`objective`.
//!
//! The kernels are hand-rolled explicit-width chunks (`[f64; LANES]`)
//! plus a per-element tail, which the compiler auto-vectorizes — no
//! external SIMD crates. Chunk and tail perform the identical per-lane
//! IEEE operation (SIMD f64 lane arithmetic is IEEE-identical to scalar,
//! and Rust never contracts `a * b + c` into an FMA), so a lane's result
//! does not depend on where in a row it sits.
//!
//! Numerical contract versus the scalar tape: each lane's trajectory
//! depends only on its own slots (no cross-lane arithmetic), so results
//! are independent of batch composition and width. The batched smoothed
//! power kernel uses exponentiation by squaring rather than `powi`, so a
//! batched evaluation may differ from the scalar path in the last ulps;
//! the gradient property tests pin agreement at 1e-9 relative. The
//! exact-mode (`s = ∞`) paths at the objective level bypass these
//! kernels entirely and gather/scatter through the scalar sweep, keeping
//! exact `max` tie-breaking bit-identical to the tree walk.

use crate::compiled::{CompiledExpr, Op};
use crate::expr::Sharpness;

/// Chunk width of the explicit-width kernels. Wide enough to fill an
/// AVX-512 register; narrower ISAs simply split each chunk.
pub(crate) const LANES: usize = 8;

// ---------------------------------------------------------------------
// Lane kernels: `[f64; LANES]` chunks, then the tail element by element.
// ---------------------------------------------------------------------

/// `dst[l] *= src[l]`.
#[inline]
pub(crate) fn lanes_mul(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (sc, st) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for l in 0..LANES {
            d[l] *= s[l];
        }
    }
    for (d, s) in dt.iter_mut().zip(st) {
        *d *= s;
    }
}

/// `dst[l] += src[l]`.
#[inline]
pub(crate) fn lanes_add(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (sc, st) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for l in 0..LANES {
            d[l] += s[l];
        }
    }
    for (d, s) in dt.iter_mut().zip(st) {
        *d += s;
    }
}

/// `dst[l] += src[l] * c` (multiply then add; never an FMA).
#[inline]
pub(crate) fn lanes_add_scaled(dst: &mut [f64], src: &[f64], c: f64) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (sc, st) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for l in 0..LANES {
            d[l] += s[l] * c;
        }
    }
    for (d, s) in dt.iter_mut().zip(st) {
        *d += s * c;
    }
}

/// `dst[l] = a[l] * b[l]`.
#[inline]
pub(crate) fn lanes_set_mul(dst: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert!(dst.len() == a.len() && dst.len() == b.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (ac, at) = a.as_chunks::<LANES>();
    let (bc, bt) = b.as_chunks::<LANES>();
    for ((d, x), y) in dc.iter_mut().zip(ac).zip(bc) {
        for l in 0..LANES {
            d[l] = x[l] * y[l];
        }
    }
    for ((d, x), y) in dt.iter_mut().zip(at).zip(bt) {
        *d = x * y;
    }
}

/// `dst[l] = a[l] / b[l]`.
#[inline]
pub(crate) fn lanes_set_div(dst: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert!(dst.len() == a.len() && dst.len() == b.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (ac, at) = a.as_chunks::<LANES>();
    let (bc, bt) = b.as_chunks::<LANES>();
    for ((d, x), y) in dc.iter_mut().zip(ac).zip(bc) {
        for l in 0..LANES {
            d[l] = x[l] / y[l];
        }
    }
    for ((d, x), y) in dt.iter_mut().zip(at).zip(bt) {
        *d = x / y;
    }
}

/// `dst[l] = max(dst[l], src[l])`.
#[inline]
pub(crate) fn lanes_max(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (sc, st) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for l in 0..LANES {
            d[l] = d[l].max(s[l]);
        }
    }
    for (d, s) in dt.iter_mut().zip(st) {
        *d = d.max(*s);
    }
}

/// `dst[l] *= dst[l]` (elementwise square, the inner step of the
/// power-of-two power/root kernels).
#[inline]
fn lanes_square(dst: &mut [f64]) {
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    for d in dc.iter_mut() {
        for v in d.iter_mut() {
            *v = *v * *v;
        }
    }
    for d in dt.iter_mut() {
        *d = *d * *d;
    }
}

/// `dst[l] = sqrt(dst[l])`.
#[inline]
fn lanes_sqrt(dst: &mut [f64]) {
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    for d in dc.iter_mut() {
        for v in d.iter_mut() {
            *v = v.sqrt();
        }
    }
    for d in dt.iter_mut() {
        *d = d.sqrt();
    }
}

/// `dst[l] *= base[l].powf(a)` — the exotic-exponent monomial fallback;
/// `powf` is a libm call, so there is nothing to chunk.
#[inline]
fn lanes_mul_powf(dst: &mut [f64], base: &[f64], a: f64) {
    for (d, b) in dst.iter_mut().zip(base) {
        *d *= b.powf(a);
    }
}

/// `b^n` for integer `n >= 1` by squaring. Unlike `powi`, the exact
/// multiply sequence is fixed and elementwise, so the batched power
/// kernel vectorizes; it may differ from `powi` in the last ulps.
#[inline]
fn pow_uint(mut b: f64, mut n: u32) -> f64 {
    let mut r = 1.0;
    loop {
        if n & 1 == 1 {
            r *= b;
        }
        n >>= 1;
        if n == 0 {
            break;
        }
        b *= b;
    }
    r
}

/// In-place `out[l] = out[l]^s`, mirroring the scalar `pow_sharp` tiers:
/// power-of-two integer sharpness (the whole annealing schedule) runs as
/// repeated elementwise squaring, other small integers via
/// exponentiation by squaring, and everything else through `powf`.
#[inline]
pub(crate) fn lanes_pow_sharp(out: &mut [f64], s: f64) {
    if s.fract() == 0.0 && (1.0..=512.0).contains(&s) {
        let n = s as u32;
        if n.is_power_of_two() {
            let mut m = n;
            while m > 1 {
                lanes_square(out);
                m >>= 1;
            }
        } else {
            for o in out.iter_mut() {
                *o = pow_uint(*o, n);
            }
        }
    } else {
        for o in out.iter_mut() {
            *o = o.powf(s);
        }
    }
}

/// In-place `out[l] = out[l]^(1/s)`: repeated hardware `sqrt` when `s`
/// is a power of two, `powf` otherwise (same tiers as `root_sharp`).
#[inline]
pub(crate) fn lanes_root_sharp(out: &mut [f64], s: f64) {
    if s.fract() == 0.0 && (2.0..=512.0).contains(&s) && (s as u32).is_power_of_two() {
        let mut m = s as u32;
        while m > 1 {
            lanes_sqrt(out);
            m >>= 1;
        }
    } else {
        let inv = 1.0 / s;
        for o in out.iter_mut() {
            *o = o.powf(inv);
        }
    }
}

// ---------------------------------------------------------------------
// Batched variable cache.
// ---------------------------------------------------------------------

/// Lane-major batched [`crate::compiled::VarCache`]: `e[j*k + l]` is
/// `exp(x_j)` for lane `l`. Filled once per batched objective call; the
/// reciprocal and square-root sweeps vectorize across `j*k` entries.
#[derive(Debug, Default)]
pub struct BatchVarCache {
    /// Current lane count.
    pub(crate) k: usize,
    /// `exp(x_j)` per variable per lane.
    pub(crate) e: Vec<f64>,
    /// `1 / exp(x_j)`.
    pub(crate) inv: Vec<f64>,
    /// `sqrt(exp(x_j))`; filled only when `halves` is requested.
    pub(crate) sq: Vec<f64>,
    /// `1 / sqrt(exp(x_j))`.
    pub(crate) isq: Vec<f64>,
}

impl BatchVarCache {
    /// Fill for the lane-major point block `xs` (`n * k` entries,
    /// `xs[j*k + l]`). Capacity is retained across calls.
    pub(crate) fn fill(&mut self, xs: &[f64], n: usize, k: usize, halves: bool) {
        debug_assert_eq!(xs.len(), n * k);
        self.k = k;
        let len = n * k;
        self.e.clear();
        self.e.resize(len, 0.0);
        self.inv.clear();
        self.inv.resize(len, 0.0);
        for (ei, &x) in self.e.iter_mut().zip(xs) {
            *ei = x.exp();
        }
        lanes_set_recip(&mut self.inv, &self.e);
        if halves {
            self.sq.clear();
            self.sq.resize(len, 0.0);
            self.isq.clear();
            self.isq.resize(len, 0.0);
            self.sq.copy_from_slice(&self.e);
            lanes_sqrt(&mut self.sq);
            lanes_set_recip(&mut self.isq, &self.sq);
        }
    }
}

/// `dst[l] = 1 / src[l]`.
#[inline]
fn lanes_set_recip(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (dc, dt) = dst.as_chunks_mut::<LANES>();
    let (sc, st) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for l in 0..LANES {
            d[l] = 1.0 / s[l];
        }
    }
    for (d, s) in dt.iter_mut().zip(st) {
        *d = 1.0 / s;
    }
}

// ---------------------------------------------------------------------
// Batched smoothed max.
// ---------------------------------------------------------------------

/// K-wide [`crate::compiled::smax_weights_fast`]: `cands` holds `kk`
/// lane-major candidate slots; the per-lane smax value is written into
/// `cands[..k]` and the weights into `wts` (`kk * k`). `scratch` must
/// hold `3 * k` entries (contents ignored on entry).
///
/// Candidates are nonnegative (posynomial values), so the only guard the
/// smooth path needs is a unit divisor for all-zero lanes: those lanes
/// flow through the normal sequence and come out with value `+0.0` and
/// all-zero weights, exactly like the scalar kernel's early return.
pub(crate) fn smax_batch(
    k: usize,
    kk: usize,
    sharp: Sharpness,
    cands: &mut [f64],
    wts: &mut [f64],
    scratch: &mut [f64],
) {
    debug_assert_eq!(cands.len(), kk * k);
    debug_assert_eq!(wts.len(), kk * k);
    debug_assert!(scratch.len() >= 3 * k);
    debug_assert!(kk > 0);
    let (m, rest) = scratch.split_at_mut(k);
    let (md, sum) = rest.split_at_mut(k);
    m.fill(0.0);
    for t in 0..kk {
        lanes_max(m, &cands[t * k..(t + 1) * k]);
    }
    match sharp {
        Sharpness::Exact => {
            wts.fill(0.0);
            for l in 0..k {
                for t in 0..kk {
                    if cands[t * k + l] == m[l] {
                        wts[t * k + l] = 1.0;
                        break;
                    }
                }
            }
            cands[..k].copy_from_slice(m);
        }
        Sharpness::Smooth(s) => {
            sum.fill(0.0);
            for l in 0..k {
                md[l] = if m[l] == 0.0 { 1.0 } else { m[l] };
            }
            for t in 0..kk {
                let w = &mut wts[t * k..(t + 1) * k];
                lanes_set_div(w, &cands[t * k..(t + 1) * k], md);
                lanes_pow_sharp(w, s);
                lanes_add(sum, w);
            }
            // val = m * sum^(1/s); root into md (no longer needed) so
            // the raw power sum survives for the weight recovery.
            md.copy_from_slice(sum);
            lanes_root_sharp(md, s);
            lanes_mul(m, md); // m now holds the smax value per lane
            for t in 0..kk {
                for l in 0..k {
                    let w = wts[t * k + l];
                    wts[t * k + l] =
                        if w == 0.0 { 0.0 } else { (w / sum[l]) * (m[l] / cands[t * k + l]) };
                }
            }
            cands[..k].copy_from_slice(m);
        }
    }
}

// ---------------------------------------------------------------------
// Batched tape execution on CompiledExpr.
// ---------------------------------------------------------------------

impl CompiledExpr {
    /// K-wide forward evaluation recording a lane-major tape. The k-wide
    /// result slot is **left on top of `stack`** for the caller (the
    /// objective's DAG recurrence adds the predecessor finish times into
    /// it in place); the caller truncates.
    pub(crate) fn eval_tape_batch(
        &self,
        k: usize,
        sharp: Sharpness,
        stack: &mut Vec<f64>,
        vals: &mut [f64],
        wts: &mut [f64],
        cache: &BatchVarCache,
    ) {
        debug_assert_eq!(vals.len(), self.ops.len() * k);
        debug_assert_eq!(wts.len(), self.wts_len * k);
        for (i, op) in self.ops.iter().enumerate() {
            self.exec_forward_batch(*op, k, sharp, stack, wts, cache);
            let top = stack.len() - k;
            vals[i * k..(i + 1) * k].copy_from_slice(&stack[top..]);
        }
        if self.ops.is_empty() {
            let b = stack.len();
            stack.resize(b + k, 0.0);
        }
    }

    /// One op of the batched forward sweep; the `Max` arm records its
    /// weights into `wts`.
    #[inline]
    fn exec_forward_batch(
        &self,
        op: Op,
        k: usize,
        sharp: Sharpness,
        stack: &mut Vec<f64>,
        wts: &mut [f64],
        cache: &BatchVarCache,
    ) {
        match op {
            Op::Mono { coeff, lo, hi } => {
                let b = stack.len();
                stack.resize(b + k, coeff);
                if coeff != 0.0 {
                    let out = &mut stack[b..];
                    for &(j, a) in &self.terms[lo as usize..hi as usize] {
                        let j = j as usize * k;
                        if a == 1.0 {
                            lanes_mul(out, &cache.e[j..j + k]);
                        } else if a == -1.0 {
                            lanes_mul(out, &cache.inv[j..j + k]);
                        } else if a == 0.5 {
                            lanes_mul(out, &cache.sq[j..j + k]);
                        } else if a == -0.5 {
                            lanes_mul(out, &cache.isq[j..j + k]);
                        } else {
                            lanes_mul_powf(out, &cache.e[j..j + k], a);
                        }
                    }
                }
            }
            Op::Sum { k: kk } => {
                let kk = kk as usize;
                if kk == 0 {
                    let b = stack.len();
                    stack.resize(b + k, 0.0);
                } else {
                    let b = stack.len() - kk * k;
                    let (acc, rest) = stack[b..].split_at_mut(k);
                    for t in 1..kk {
                        lanes_add(acc, &rest[(t - 1) * k..t * k]);
                    }
                    stack.truncate(b + k);
                }
            }
            Op::Max { k: kk, w0 } => {
                let kk = kk as usize;
                let w0 = w0 as usize;
                if kk == 0 {
                    let b = stack.len();
                    stack.resize(b + k, 0.0);
                } else {
                    let b = stack.len() - kk * k;
                    let sl = stack.len();
                    stack.resize(sl + 3 * k, 0.0);
                    let (cands, scr) = stack[b..].split_at_mut(kk * k);
                    smax_batch(k, kk, sharp, cands, &mut wts[w0 * k..(w0 + kk) * k], scr);
                    stack.truncate(b + k);
                }
            }
        }
    }

    /// K-wide reverse sweep over a lane-major tape recorded by
    /// [`CompiledExpr::eval_tape_batch`]: accumulates
    /// `seeds[l] * ∂value_l/∂x` into the lane-major `grad`
    /// (`n_vars * k`). `adj` is a k-wide-slot adjoint stack (restored to
    /// its entry length). Lanes with a zero seed contribute exact zeros
    /// everywhere (adjoints and values are nonnegative, so the
    /// unconditional accumulates only ever add `+0.0` for them).
    pub(crate) fn backprop_batch(
        &self,
        k: usize,
        seeds: &[f64],
        vals: &[f64],
        wts: &[f64],
        grad: &mut [f64],
        adj: &mut Vec<f64>,
    ) {
        debug_assert_eq!(seeds.len(), k);
        debug_assert_eq!(vals.len(), self.ops.len() * k);
        if self.ops.is_empty() || seeds.iter().all(|&s| s == 0.0) {
            return;
        }
        let base = adj.len();
        adj.extend_from_slice(seeds);
        for (i, op) in self.ops.iter().enumerate().rev() {
            match *op {
                Op::Mono { coeff: _, lo, hi } => {
                    let b = adj.len() - k;
                    lanes_mul(&mut adj[b..], &vals[i * k..(i + 1) * k]);
                    let av = &adj[b..];
                    for &(j, e) in &self.terms[lo as usize..hi as usize] {
                        let j = j as usize * k;
                        lanes_add_scaled(&mut grad[j..j + k], av, e);
                    }
                    adj.truncate(b);
                }
                Op::Sum { k: kk } => {
                    let kk = kk as usize;
                    let b = adj.len() - k;
                    if kk == 0 {
                        adj.truncate(b);
                    } else {
                        for _ in 1..kk {
                            adj.extend_from_within(b..b + k);
                        }
                    }
                }
                Op::Max { k: kk, w0 } => {
                    let kk = kk as usize;
                    let w0 = w0 as usize;
                    let b = adj.len() - k;
                    if kk == 0 {
                        adj.truncate(b);
                    } else {
                        adj.resize(b + kk * k, 0.0);
                        let (a0, rest) = adj[b..].split_at_mut(k);
                        for t in 1..kk {
                            lanes_set_mul(
                                &mut rest[(t - 1) * k..t * k],
                                a0,
                                &wts[(w0 + t) * k..(w0 + t + 1) * k],
                            );
                        }
                        lanes_mul(a0, &wts[w0 * k..(w0 + 1) * k]);
                    }
                }
            }
        }
        debug_assert_eq!(adj.len(), base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{smax_weights_fast, VarCache};
    use crate::expr::{Expr, Monomial};

    fn sample_expr() -> Expr {
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

    fn lane_points(k: usize) -> Vec<[f64; 2]> {
        (0..k).map(|l| [0.1 * l as f64 - 0.3, 0.7 - 0.2 * l as f64]).collect()
    }

    #[test]
    fn batched_eval_matches_scalar_per_lane() {
        let e = sample_expr();
        let c = CompiledExpr::compile(&e);
        let mut cache = VarCache::default();
        for &k in &[1usize, 2, 3, 4, 8, 17] {
            let pts = lane_points(k);
            let mut xs = vec![0.0; 2 * k];
            for (l, p) in pts.iter().enumerate() {
                xs[l] = p[0];
                xs[k + l] = p[1];
            }
            let mut bc = BatchVarCache::default();
            bc.fill(&xs, 2, k, true);
            for s in [4.0, 64.0, 256.0, 3.0, 3.7] {
                let sharp = Sharpness::Smooth(s);
                let mut stack = Vec::new();
                let mut vals = vec![0.0; c.vals_len() * k];
                let mut wts = vec![0.0; c.wts_len() * k];
                c.eval_tape_batch(k, sharp, &mut stack, &mut vals, &mut wts, &bc);
                let top = stack.len() - k;
                let batched: Vec<f64> = stack[top..].to_vec();
                stack.truncate(top);
                for l in 0..k {
                    let mut sstack = Vec::new();
                    cache.fill(&pts[l], true);
                    let v0 = c.eval(&pts[l], sharp, &mut sstack, Some(&cache));
                    assert!(
                        (v0 - batched[l]).abs() <= 1e-12 * v0.abs().max(1.0),
                        "k={k} lane={l} s={s}: scalar {v0} vs batched {}",
                        batched[l]
                    );
                }
            }
        }
    }

    #[test]
    fn batched_backprop_matches_scalar_per_lane() {
        let e = sample_expr();
        let c = CompiledExpr::compile(&e);
        let mut cache = VarCache::default();
        for &k in &[1usize, 2, 4, 8, 17] {
            let pts = lane_points(k);
            let mut xs = vec![0.0; 2 * k];
            for (l, p) in pts.iter().enumerate() {
                xs[l] = p[0];
                xs[k + l] = p[1];
            }
            let mut bc = BatchVarCache::default();
            bc.fill(&xs, 2, k, true);
            let sharp = Sharpness::Smooth(16.0);
            let mut stack = Vec::new();
            let mut vals = vec![0.0; c.vals_len() * k];
            let mut wts = vec![0.0; c.wts_len() * k];
            c.eval_tape_batch(k, sharp, &mut stack, &mut vals, &mut wts, &bc);
            stack.truncate(stack.len() - k);
            let seeds: Vec<f64> = (0..k).map(|l| 1.0 + 0.25 * l as f64).collect();
            let mut grad = vec![0.0; 2 * k];
            let mut adj = Vec::new();
            c.backprop_batch(k, &seeds, &vals, &wts, &mut grad, &mut adj);
            assert!(adj.is_empty() && stack.is_empty());
            for l in 0..k {
                let mut svals = vec![0.0; c.vals_len()];
                let mut swts = vec![0.0; c.wts_len()];
                let mut sstack = Vec::new();
                cache.fill(&pts[l], true);
                let _ =
                    c.eval_tape(&pts[l], sharp, &mut sstack, &mut svals, &mut swts, Some(&cache));
                let mut g = vec![0.0; 2];
                let mut sadj = Vec::new();
                c.backprop(seeds[l], &svals, &swts, &mut g, &mut sadj);
                for j in 0..2 {
                    assert!(
                        (g[j] - grad[j * k + l]).abs() <= 1e-9 * (1.0 + g[j].abs()),
                        "k={k} lane={l} var={j}: scalar {} vs batched {}",
                        g[j],
                        grad[j * k + l]
                    );
                }
            }
        }
    }

    #[test]
    fn batched_smax_matches_scalar_kernel() {
        for sharp in [Sharpness::Exact, Sharpness::Smooth(4.0), Sharpness::Smooth(256.0)] {
            let rows: Vec<Vec<f64>> = vec![
                vec![1.0, 2.0, 3.0, 0.5],
                vec![0.0, 0.0, 0.0, 0.0],
                vec![2.0, 2.0, 1e-8, 100.0],
            ];
            let (k, kk) = (rows.len(), rows[0].len());
            // lane-major candidates: lane l = row l.
            let mut cands = vec![0.0; kk * k];
            for (l, row) in rows.iter().enumerate() {
                for (t, &v) in row.iter().enumerate() {
                    cands[t * k + l] = v;
                }
            }
            let mut wts = vec![0.0; kk * k];
            let mut scratch = vec![0.0; 3 * k];
            smax_batch(k, kk, sharp, &mut cands, &mut wts, &mut scratch);
            for (l, row) in rows.iter().enumerate() {
                let mut sw = vec![0.0; kk];
                let v0 = smax_weights_fast(row, sharp, &mut sw);
                let v1 = cands[l];
                assert!(
                    (v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0),
                    "{sharp:?} lane {l}: {v0} vs {v1}"
                );
                for t in 0..kk {
                    assert!(
                        (sw[t] - wts[t * k + l]).abs() <= 1e-9 * (1.0 + sw[t].abs()),
                        "{sharp:?} lane {l} cand {t}: {} vs {}",
                        sw[t],
                        wts[t * k + l]
                    );
                }
            }
        }
    }

    #[test]
    fn pow_kernels_match_scalar_tiers() {
        let base = [0.0, 1e-9, 0.3, 0.9999, 1.0];
        for s in [1.0, 3.0, 4.0, 64.0, 256.0, 3.7] {
            let mut v = base.to_vec();
            lanes_pow_sharp(&mut v, s);
            for (l, &b) in base.iter().enumerate() {
                let r = b.powf(s);
                assert!(
                    (v[l] - r).abs() <= 1e-9 * (1.0 + r.abs()),
                    "pow s={s} b={b}: {} vs {r}",
                    v[l]
                );
            }
        }
        for s in [2.0, 64.0, 256.0, 3.7] {
            let mut v = [0.0, 0.5, 1.0, 2.5];
            let orig = v;
            lanes_root_sharp(&mut v, s);
            for (l, &b) in orig.iter().enumerate() {
                let r = b.powf(1.0 / s);
                assert!(
                    (v[l] - r).abs() <= 1e-9 * (1.0 + r.abs()),
                    "root s={s} b={b}: {} vs {r}",
                    v[l]
                );
            }
        }
    }

    #[test]
    fn zero_expression_batched_paths_are_safe() {
        let c = CompiledExpr::compile(&Expr::zero());
        let k = 4;
        let bc = BatchVarCache::default();
        let mut stack = Vec::new();
        let mut vals = vec![0.0; c.vals_len() * k];
        let mut wts = vec![0.0; c.wts_len() * k];
        c.eval_tape_batch(k, Sharpness::Smooth(8.0), &mut stack, &mut vals, &mut wts, &bc);
        let top = stack.len() - k;
        assert!(stack[top..].iter().all(|&v| v == 0.0));
        stack.truncate(top);
        let mut grad: Vec<f64> = Vec::new();
        let mut adj = Vec::new();
        c.backprop_batch(k, &[1.0; 4], &vals, &wts, &mut grad, &mut adj);
    }
}
