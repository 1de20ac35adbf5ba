//! The lane executor: K-wide sweeps of the level program.
//!
//! K points of one objective sweep the *same* [`LevelProgram`]. The lane
//! sweeps
//! (`LevelProgram::forward_lanes` here; `LevelProgram::push_adjoints`
//! and `LevelProgram::accumulate` at `k > 1`, whose arithmetic is the
//! scalar executor's) widen every tape slot to a lane-major row of `k`
//! values (`slot * k + lane`) and run the program level by level, like
//! the scalar forward sweep in [`crate::compiled`].
//!
//! No descent runs on it any more: since the dense solve became one
//! start (PR 20) every descent, and every exact sweep, is on the scalar
//! executor. It stays for its outside callers — the repo benchmark's
//! `solver.eval_grad_batch8_us` probe and `bench-solve`'s lane columns —
//! until a `benchmark` PR lets it go (ROADMAP; DESIGN.md §11 has the
//! measured per-lane table).
//!
//! What is vectorised, on a baseline x86-64 build (SSE2, two `f64` per
//! register — not the "eight lanes fill one AVX-512 register" of earlier
//! revisions, which never held at K = 4 or 6, where every row was
//! shorter than a chunk): the level's arity-2 maxes, which are most of
//! the arithmetic. Their operands are one contiguous `ops × k` block per
//! level, so `smax2_rows` sweeps them in `[f64; 8]` blocks whatever
//! `k` is — divides, squarings, square roots and the weight recovery as
//! packed instructions with four independent chains in flight. The
//! monomial level, the adjoint push and the gradient accumulation work
//! on one row of `k` per op and take compile-time lane blocks of
//! 8/4/2/1 (see `LevelProgram::smooth_monomials`). Sums, maxes of
//! other arity and the DAG recurrence run the plain row loops below.
//! Block, vector and scalar code perform the identical per-lane IEEE
//! operation (SIMD `f64` lane arithmetic is IEEE-identical to scalar,
//! and Rust never contracts `a * b + c` into an FMA), so a lane's result
//! does not depend on where in a row it sits. No external SIMD crates.
//!
//! Numerical contract versus the scalar executor: each lane's arithmetic
//! reads only its own slots (no cross-lane operation), so results are
//! independent of batch composition and width. The lane power kernel
//! takes exponentiation by squaring for an integer sharpness that is not
//! a power of two, where the scalar one calls `powi`, and the lane
//! backward sweep seeds `A_p` with `w · (1/p)` where the scalar one
//! divides by `p`; a lane may therefore differ from the scalar sweep in
//! the last ulps (the property tests pin agreement at 1e-9 relative), but
//! it equals what it equalled before the level program
//! (`tests/tape_bits.rs`). The lane executor is smooth-only: exact
//! points, whose first-argmax tie-breaking is pinned to the tree walk,
//! belong to the scalar one.

use crate::compiled::{pow2_log, smax2_rows, LevelProgram};
use crate::workspace::BatchEvalScratch;

// ---------------------------------------------------------------------
// Row kernels: one operation across a row of `k` lanes. Plain loops —
// the rows they see are short (`k`), and the compiler vectorises them.
// ---------------------------------------------------------------------

/// `dst[l] *= src[l]`.
#[inline]
fn lanes_mul(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

/// `dst[l] += src[l]`.
#[inline]
pub(crate) fn lanes_add(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
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

/// The lane executor's power tiers below the squarings: an integer `s`
/// that is not a power of two by square-and-multiply, anything else
/// through `powf`.
#[inline]
fn lane_pow_other(b: f64, s: f64) -> f64 {
    if s.fract() == 0.0 && (1.0..=512.0).contains(&s) {
        pow_uint(b, s as u32)
    } else {
        b.powf(s)
    }
}

/// In-place `out[l] = out[l]^s`, mirroring the scalar `pow_sharp` tiers:
/// power-of-two integer sharpness (the whole annealing schedule) runs as
/// repeated elementwise squaring, everything else through
/// [`lane_pow_other`].
#[inline]
fn lanes_pow_sharp(out: &mut [f64], s: f64) {
    match pow2_log(s, 1.0) {
        Some(q) => (0..q).for_each(|_| out.iter_mut().for_each(|o| *o *= *o)),
        None => out.iter_mut().for_each(|o| *o = lane_pow_other(*o, s)),
    }
}

/// In-place `out[l] = out[l]^(1/s)`: repeated hardware `sqrt` when `s`
/// is a power of two, `powf` otherwise (same tiers as `root_sharp`).
#[inline]
fn lanes_root_sharp(out: &mut [f64], s: f64) {
    match pow2_log(s, 2.0) {
        Some(q) => (0..q).for_each(|_| out.iter_mut().for_each(|o| *o = o.sqrt())),
        None => {
            let inv = 1.0 / s;
            out.iter_mut().for_each(|o| *o = o.powf(inv));
        }
    }
}

// ---------------------------------------------------------------------
// Batched smoothed max.
// ---------------------------------------------------------------------

/// K-wide `crate::compiled::smax_weights_fast` at `Smooth(s)`: `cands`
/// holds `kk` lane-major candidate rows; the per-lane smax value goes to
/// `out` (`k`) and the weights to `wts` (`kk * k`). `scratch` must hold
/// `2 * k` entries (contents ignored on entry).
///
/// Candidates are nonnegative (posynomial values), so the only guard the
/// chain needs is a unit divisor for all-zero lanes: those lanes flow
/// through the normal sequence and come out with value `+0.0` and
/// all-zero weights, exactly like the scalar kernel's early return (as
/// does a max of no candidates at all, `kk = 0`).
pub(crate) fn smax_batch(
    k: usize,
    kk: usize,
    s: f64,
    cands: &[f64],
    out: &mut [f64],
    wts: &mut [f64],
    scratch: &mut [f64],
) {
    debug_assert_eq!(cands.len(), kk * k);
    debug_assert_eq!(wts.len(), kk * k);
    debug_assert!(out.len() == k && scratch.len() >= 2 * k);
    let m = out;
    m.fill(0.0);
    for row in cands.chunks_exact(k) {
        for (m, &c) in m.iter_mut().zip(row) {
            *m = m.max(c);
        }
    }
    // One finite candidate per lane is its own smoothed max with weight
    // 1 (0 on a zero lane): the chain below reduces to `c/c`, `1^s`,
    // `1^(1/s)`, `c·1`, `(1/1)·(c/c)` — every node with a single
    // in-edge.
    if kk == 1 && m.iter().all(|v| v.is_finite()) {
        for (w, &v) in wts.iter_mut().zip(&*m) {
            *w = if v == 0.0 { 0.0 } else { 1.0 };
        }
        return;
    }
    let (md, sum) = scratch[..2 * k].split_at_mut(k);
    sum.fill(0.0);
    for l in 0..k {
        md[l] = if m[l] == 0.0 { 1.0 } else { m[l] };
    }
    for (w, row) in wts.chunks_exact_mut(k).zip(cands.chunks_exact(k)) {
        for ((w, &c), &d) in w.iter_mut().zip(row).zip(&*md) {
            *w = c / d;
        }
        lanes_pow_sharp(w, s);
        lanes_add(sum, w);
    }
    // val = m * sum^(1/s); root into md (no longer needed) so the raw
    // power sum survives for the weight recovery.
    md.copy_from_slice(sum);
    lanes_root_sharp(md, s);
    lanes_mul(m, md); // m now holds the smax value per lane
    for t in 0..kk {
        for l in 0..k {
            let w = wts[t * k + l];
            wts[t * k + l] = if w == 0.0 { 0.0 } else { (w / sum[l]) * (m[l] / cands[t * k + l]) };
        }
    }
}

// ---------------------------------------------------------------------
// Lane sweeps of the level program.
// ---------------------------------------------------------------------

impl LevelProgram {
    /// K-wide `LevelProgram::forward` at `Smooth(s)`: fills the
    /// variable cache for the lane-major points `xs`, then records every
    /// op's value row into `scratch.tape_vals` (root `r` at
    /// `[r·k .. (r+1)·k]`) and every max's weight rows into
    /// `scratch.tape_wts`, level by level. A level's arity-2 maxes are
    /// one `ops × k` call of the elementwise kernel, so their rows are
    /// long enough for its vector chunks at every `k`.
    pub(crate) fn forward_lanes(
        &self,
        xs: &[f64],
        k: usize,
        s: f64,
        scratch: &mut BatchEvalScratch,
    ) {
        debug_assert_eq!(xs.len(), self.n_vars * k);
        scratch.ensure_tape(self, k);
        scratch.var_cache.fill(xs, self.needs_halves);
        scratch.counts.exp_calls += xs.len() as u64;
        let BatchEvalScratch { tape_vals: vals, tape_wts: wts, var_cache, stack, .. } = scratch;
        self.smooth_monomials(k, &var_cache.fac, vals);
        for lv in &self.levels {
            let base = lv.child_base as usize;
            let (outs, kids) = vals.split_at_mut(base * k);
            let n = lv.max2.len();
            if n > 0 {
                let (a, b) = kids[..2 * n * k].split_at(n * k);
                let (wa, wb) = wts[lv.w0 as usize * k..][..2 * n * k].split_at_mut(n * k);
                let staged = &mut stack[..n * k];
                smax2_rows::<false>(s, |b| lane_pow_other(b, s), a, b, staged, wa, wb);
                for (i, &o) in self.max2_out[lv.max2.clone()].iter().enumerate() {
                    outs[o as usize * k..][..k].copy_from_slice(&staged[i * k..][..k]);
                }
            }
            for r in &self.reduces[lv.maxes.clone()] {
                let (c0, arity) = (r.c0 as usize - base, r.arity as usize);
                let out = &mut outs[r.out as usize * k..][..k];
                let w = &mut wts[r.w0 as usize * k..][..arity * k];
                smax_batch(k, arity, s, &kids[c0 * k..][..arity * k], out, w, stack);
            }
            for r in &self.reduces[lv.sums.clone()] {
                let c0 = r.c0 as usize - base;
                let out = &mut outs[r.out as usize * k..][..k];
                if r.arity == 0 {
                    out.fill(0.0);
                } else {
                    out.copy_from_slice(&kids[c0 * k..][..k]);
                    for t in 1..r.arity as usize {
                        lanes_add(out, &kids[(c0 + t) * k..][..k]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::smax_weights_fast;
    use crate::compiled::tests::{sample_expr, single, sweep};
    use crate::expr::{Expr, Monomial, Sharpness};
    use crate::workspace::EvalScratch;
    use proptest::prelude::*;

    fn lane_points(k: usize) -> Vec<[f64; 2]> {
        (0..k).map(|l| [0.1 * l as f64 - 0.3, 0.7 - 0.2 * l as f64]).collect()
    }

    fn lane_major<P: AsRef<[f64]>>(pts: &[P]) -> Vec<f64> {
        let (k, n) = (pts.len(), pts[0].as_ref().len());
        let mut xs = vec![0.0; n * k];
        for (l, p) in pts.iter().enumerate() {
            for (j, &v) in p.as_ref().iter().enumerate() {
                xs[j * k + l] = v;
            }
        }
        xs
    }

    /// Lane record + replay of a one-root program: per-lane values and
    /// the lane-major `seeds[l] · ∇value_l`.
    fn sweep_lanes(
        prog: &LevelProgram,
        xs: &[f64],
        k: usize,
        s: f64,
        seeds: &[f64],
        scratch: &mut BatchEvalScratch,
    ) -> (Vec<f64>, Vec<f64>) {
        prog.forward_lanes(xs, k, s, scratch);
        scratch.slot_adj[..k].copy_from_slice(seeds);
        prog.push_adjoints(k, &mut scratch.slot_adj, &scratch.tape_wts);
        let mut grad = vec![0.0; xs.len()];
        let all = prog.mono_range(0);
        prog.accumulate(all, k, &scratch.tape_vals, &scratch.slot_adj, &mut grad);
        (scratch.tape_vals[..k].to_vec(), grad)
    }

    #[test]
    fn batched_eval_matches_scalar_per_lane() {
        let prog = single(&sample_expr(), 2);
        let (mut scalar, mut lanes) = (EvalScratch::default(), BatchEvalScratch::default());
        for &k in &[1usize, 2, 3, 4, 8, 17] {
            let pts = lane_points(k);
            let xs = lane_major(&pts);
            for s in [4.0, 64.0, 256.0, 3.0, 3.7] {
                let (batched, _) = sweep_lanes(&prog, &xs, k, s, &vec![1.0; k], &mut lanes);
                for l in 0..k {
                    let (v0, _) = sweep(&prog, &pts[l], Sharpness::Smooth(s), 1.0, &mut scalar);
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
        let prog = single(&sample_expr(), 2);
        let (mut scalar, mut lanes) = (EvalScratch::default(), BatchEvalScratch::default());
        for &k in &[1usize, 2, 4, 8, 17] {
            let pts = lane_points(k);
            let xs = lane_major(&pts);
            let seeds: Vec<f64> = (0..k).map(|l| 1.0 + 0.25 * l as f64).collect();
            let (_, grad) = sweep_lanes(&prog, &xs, k, 16.0, &seeds, &mut lanes);
            for l in 0..k {
                let (_, g) = sweep(&prog, &pts[l], Sharpness::Smooth(16.0), seeds[l], &mut scalar);
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
        for s in [4.0, 256.0] {
            for rows in [
                vec![
                    vec![1.0, 2.0, 3.0, 0.5],
                    vec![0.0, 0.0, 0.0, 0.0],
                    vec![2.0, 2.0, 1e-8, 100.0],
                ],
                vec![vec![7.0], vec![0.0], vec![1e-8]],
            ] {
                let (k, kk) = (rows.len(), rows[0].len());
                // lane-major candidates: lane l = row l.
                let mut cands = vec![0.0; kk * k];
                for (l, row) in rows.iter().enumerate() {
                    for (t, &v) in row.iter().enumerate() {
                        cands[t * k + l] = v;
                    }
                }
                let (mut out, mut wts) = (vec![0.0; k], vec![0.0; kk * k]);
                smax_batch(k, kk, s, &cands, &mut out, &mut wts, &mut vec![0.0; 2 * k]);
                for (l, row) in rows.iter().enumerate() {
                    let mut sw = vec![0.0; kk];
                    let v0 = smax_weights_fast(row, Sharpness::Smooth(s), &mut sw);
                    assert!(
                        (v0 - out[l]).abs() <= 1e-12 * v0.abs().max(1.0),
                        "s={s} lane {l}: {v0} vs {}",
                        out[l]
                    );
                    for t in 0..kk {
                        assert!(
                            (sw[t] - wts[t * k + l]).abs() <= 1e-9 * (1.0 + sw[t].abs()),
                            "s={s} lane {l} cand {t}: {} vs {}",
                            sw[t],
                            wts[t * k + l]
                        );
                    }
                }
            }
        }
    }

    /// The lane kernel's single-candidate shortcut returns what its
    /// chain computes on one candidate row, to the bit (the chain on a
    /// lone row is the chain on that row beside an all-zero one, whose
    /// powers add `+0.0` to every sum).
    #[test]
    fn single_candidate_row_is_the_chain_to_the_bit() {
        let row = [0.0, 1e-300, 1.0, 1e300];
        let k = row.len();
        for s in [4.0, 64.0, 256.0, 3.7] {
            let (mut out, mut w) = (vec![f64::NAN; k], vec![f64::NAN; k]);
            smax_batch(k, 1, s, &row, &mut out, &mut w, &mut vec![0.0; 2 * k]);
            let mut two = row.to_vec();
            two.extend([0.0; 4]);
            let (mut out2, mut w2) = (vec![f64::NAN; k], vec![f64::NAN; 2 * k]);
            smax_batch(k, 2, s, &two, &mut out2, &mut w2, &mut vec![0.0; 2 * k]);
            for l in 0..k {
                assert_eq!(
                    (out[l].to_bits(), w[l].to_bits()),
                    (out2[l].to_bits(), w2[l].to_bits()),
                    "s={s} v={:e}: ({}, {}) vs ({}, {})",
                    row[l],
                    out[l],
                    w[l],
                    out2[l],
                    w2[l]
                );
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
        let prog = single(&Expr::zero(), 0);
        let k = 4;
        let mut lanes = BatchEvalScratch::default();
        let (vals, grad) = sweep_lanes(&prog, &[], k, 8.0, &[1.0; 4], &mut lanes);
        assert!(vals.iter().all(|&v| v.to_bits() == 0));
        assert!(grad.is_empty());
    }

    /// splitmix64 over a test-local state.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    const TREE_VARS: usize = 4;

    /// A random tree of the kind the objective never builds: depth up to
    /// 5, `Sum` / `Max` of arity 1–5 constructed directly (so single
    /// children and zero terms survive), exponent vectors drawn from a
    /// small pool so they repeat, exotic exponents, zero coefficients.
    fn random_tree(state: &mut u64, depth: usize) -> Expr {
        let pick = next(state) % 10;
        if depth == 0 || pick < 4 {
            let coeff = match next(state) % 6 {
                0 => 0.0,
                c => 0.25 * c as f64,
            };
            let exps = [1.0, -1.0, 0.5, -0.5, 2.0, -0.3];
            let draw = |state: &mut u64| {
                ((next(state) % 2) as usize, exps[(next(state) % exps.len() as u64) as usize])
            };
            return Expr::Mono(match next(state) % 4 {
                0 => Monomial::constant(coeff),
                1 => {
                    let (j, a) = draw(state);
                    Monomial::single(coeff, j, a)
                }
                _ => {
                    let ((i, a), (j, b)) = (draw(state), draw(state));
                    Monomial::pair(coeff, i, a, 2 + j, b)
                }
            });
        }
        let arity = 1 + (next(state) % 5) as usize;
        let kids = (0..arity).map(|_| random_tree(state, depth - 1)).collect();
        if pick & 1 == 0 {
            Expr::Sum(kids)
        } else {
            Expr::Max(kids)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Both executors against the tree walk on trees of arbitrary
        /// shape: exact values bitwise equal to `Expr::eval`, smooth
        /// values to 1e-12 and gradients to 1e-9 against
        /// `Expr::eval_grad`, at K = 1 (scalar tape) and K = 5 (lane
        /// tape: a 4-block and a 1-block).
        #[test]
        fn level_program_matches_tree_on_random_trees(seed in 0u64..1_000_000) {
            let mut state = seed;
            let e = random_tree(&mut state, 5);
            let prog = single(&e, TREE_VARS);
            let k = 5;
            let pts: Vec<Vec<f64>> = (0..k)
                .map(|_| {
                    (0..TREE_VARS).map(|_| (next(&mut state) % 4001) as f64 / 1000.0 - 2.0).collect()
                })
                .collect();
            let (mut scalar, mut lanes) = (EvalScratch::default(), BatchEvalScratch::default());
            let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * (1.0 + b.abs());
            for x in &pts {
                let (v, _) = sweep(&prog, x, Sharpness::Exact, 1.0, &mut scalar);
                prop_assert_eq!(v.to_bits(), e.eval(x, Sharpness::Exact).to_bits(), "exact at {:?}", x);
            }
            for s in [2.0, 8.0, 256.0, 3.0, 3.7] {
                let sharp = Sharpness::Smooth(s);
                let xs = lane_major(&pts);
                let seeds: Vec<f64> = (0..k).map(|l| 0.5 + l as f64).collect();
                let (lane_vals, lane_grads) = sweep_lanes(&prog, &xs, k, s, &seeds, &mut lanes);
                for (l, x) in pts.iter().enumerate() {
                    let mut g0 = vec![0.0; TREE_VARS];
                    let v0 = e.eval_grad(x, sharp, seeds[l], &mut g0);
                    let (v1, g1) = sweep(&prog, x, sharp, seeds[l], &mut scalar);
                    prop_assert!(close(v1, v0, 1e-12), "s={} scalar value {} vs tree {}", s, v1, v0);
                    prop_assert!(
                        close(lane_vals[l], v0, 1e-12),
                        "s={} lane {} value {} vs tree {}", s, l, lane_vals[l], v0
                    );
                    for j in 0..TREE_VARS {
                        prop_assert!(
                            close(g1[j], g0[j], 1e-9),
                            "s={} scalar grad[{}] {} vs tree {}", s, j, g1[j], g0[j]
                        );
                        prop_assert!(
                            close(lane_grads[j * k + l], g0[j], 1e-9),
                            "s={} lane {} grad[{}] {} vs tree {}", s, l, j, lane_grads[j * k + l], g0[j]
                        );
                    }
                }
            }
        }
    }
}
