//! The level program: the objective's node and edge expressions as one
//! fixed three-level program, and the tape executor that sweeps it.
//!
//! Every root the objective builds — a node's `T_v`, on a machine with
//! `t_n > 0` an edge's `t^D_e` — has one shape: a constant, some
//! monomials and some arity-2 startup maxes `max(c, c·p_other/p_me)`,
//! summed. The objective emits that shape straight from the graph
//! (`objective.rs`), child by child, into three levels:
//!
//! * **level 0** is every monomial as one fixed-width row — coefficient,
//!   value slot and two factor rows into the [`VarCache`], a monomial of
//!   one term padded with the cache's `1.0` row — stored in the order the
//!   backward pass accumulates them (below). Row `4j + s` is variable
//!   `j` at the exponent `ROW_EXPONENTS[s]`, and names the gradient term;
//! * **level 1** is every startup max. Its first candidate is a constant
//!   of the program (`max_consts`), its second the monomial row in slot
//!   `max_base + i`, so one elementwise kernel (`smax2_rows`) sweeps the
//!   independent chains of all of them at once;
//! * **level 2** is one sum per root that is neither a lone monomial nor a
//!   lone max: its constant (`α·τ`, or `0.0`) plus its other children, read
//!   from a contiguous block of slots in child order. A root without any
//!   term is such a sum with no children: its value is `0.0`.
//!
//! Root `r` owns value slot `r`: a lone monomial or a lone max writes it
//! directly, any other root through its sum. Constants are never stored
//! on the tape: a max reads its constant from the program, a sum starts
//! from its own.
//!
//! The forward sweep records every slot's value and every max's weights;
//! the backward sweep pushes a per-slot adjoint down (copy through a sum,
//! scale by the recorded weight through a max) and then accumulates
//! `adjoint · value · exponent` of every monomial into the gradient —
//! pure multiply-adds, no `exp`, no `powf`, no re-evaluation. Beside the
//! program sit the smoothed-max kernels: the startup maxes' and the one
//! the objective's `C_p` recurrence sweeps each DAG depth with
//! (`smax_columns`), every one of them `smax_weights_fast` to the bit.
//!
//! Numerical contract. Every monomial, at every sharpness, is
//! `coeff · f_0 · f_1`, its factors `factor(exp(x_j), a_j)` read from the
//! variable cache and multiplied in term order (a padded factor is the
//! exact `1.0`) — the product [`crate::expr::Monomial::eval`] forms — so
//! a sweep calls `exp` once per variable and never per monomial. A sum
//! starts from its constant, which is `0.0 + constant` to the bit, and
//! adds its children left to right; a max takes its constant first. The
//! monomial table is laid out in the order a post-order adjoint stack
//! reaches the monomials (roots in the caller's replay order, each root's
//! monomials right to left), so every `grad[j]` receives the same addends
//! in the same order (a padded term adds nothing); a zero adjoint adds
//! `±0.0`, which cannot change a sum that started at `+0.0`. So at
//! [`Sharpness::Exact`] every root is the tree walk of the expression it
//! was emitted for ([`crate::MdgObjective::node_expr`],
//! [`crate::MdgObjective::edge_expr`]) to the bit, and at `Smooth(s)` its
//! maxes differ from the tree's `powf` in the last ulps at most.
//! `crates/solver/tests/tape_bits.rs` pins the bits.

use crate::expr::{factor, Sharpness};
use crate::workspace::EvalScratch;
use std::ops::Range;

/// Per-sweep factors of every monomial at one point, filled once per
/// objective call: four entries per variable `j` — `fac[4j + s]` is
/// `e^{a·x_j}` for the exponent `a = ROW_EXPONENTS[s]` — then the padding
/// factor `1.0` at `4n`, so every monomial term is one row of `fac`.
/// Every entry is `expr::factor` of `fac[4j] = e^{x_j}`, which the
/// objective's fused `A_p = (1/p) Σ T_i e^{x_i}` also reads.
#[derive(Debug, Default)]
pub(crate) struct VarCache {
    fac: Vec<f64>,
}

/// The exponent of row `4j + s` of the [`VarCache`], by `s`.
const ROW_EXPONENTS: [f64; 4] = [1.0, -1.0, 0.5, -0.5];

impl VarCache {
    /// Fill for the point `xs` of `prog`: `exp` once per variable, the
    /// square roots only when some monomial carries a `±0.5` exponent.
    /// Capacity is retained across calls.
    fn fill(&mut self, xs: &[f64], prog: &LevelProgram) {
        let len = xs.len();
        self.fac.resize(4 * len + 1, 0.0);
        let (vars, one) = self.fac.split_at_mut(4 * len);
        for (f, &x) in vars.chunks_exact_mut(4).zip(xs) {
            let e = x.exp();
            (f[0], f[1]) = (e, factor(e, -1.0));
            if prog.needs_halves {
                (f[2], f[3]) = (factor(e, 0.5), factor(e, -0.5));
            }
        }
        one[0] = 1.0;
    }

    /// `e^{x_j}`.
    #[inline]
    pub(crate) fn e(&self, j: usize) -> f64 {
        self.fac[4 * j]
    }
}

/// One level-0 op: `coeff · fac[rows[0]] · fac[rows[1]]` into `slot`. A
/// monomial of one term is padded with the `1.0` row; a row names its
/// gradient term (`LevelProgram::accumulate`).
#[derive(Debug, Clone, Copy)]
struct Mono {
    coeff: f64,
    slot: u32,
    rows: [u32; 2],
}

/// One level-2 op: `init + Σ vals[c0 .. c0 + arity]`, left to right,
/// into `out`.
#[derive(Debug, Clone, Copy)]
struct Sum {
    init: f64,
    out: u32,
    c0: u32,
    arity: u32,
}

/// Shape of a compiled program, for the tests and the docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeStats {
    /// The expressions' monomials: the program's rows plus its constants.
    pub monomials: usize,
    /// Of those, the constants — the monomials without terms: each
    /// max's first candidate, each non-zero constant a sum starts from,
    /// and the `0.0` of each root without a term.
    pub constants: usize,
    /// Level-2 sums: the roots that are neither a lone monomial nor a
    /// lone max.
    pub sums: usize,
    /// Level-1 startup maxes, each of arity 2.
    pub maxes: usize,
    /// Value slots: the roots, the maxes' operands and the sums' children.
    pub slots: usize,
}

/// The objective's expressions as one three-level program (module docs).
/// The objective emits it root by root: [`LevelProgram::open_root`], then
/// the root's children right to left through [`LevelProgram::mono`] and
/// [`LevelProgram::startup_max`].
#[derive(Debug, Clone)]
pub(crate) struct LevelProgram {
    n_vars: usize,
    /// Level 0, in backward-accumulation order.
    monos: Vec<Mono>,
    /// Level 1: max `i` takes `max(max_consts[i], vals[max_base + i])`
    /// into `max_out[i]`.
    max_consts: Vec<f64>,
    max_out: Vec<u32>,
    max_base: u32,
    /// Level 2.
    sums: Vec<Sum>,
    /// Value slots: the roots first, then the maxes' operands, then the
    /// sums' children.
    n_slots: usize,
    /// Whether any monomial carries a `±0.5` exponent (the 2D mesh's
    /// square-root network terms): whether `VarCache::fill` must fill the
    /// square roots.
    needs_halves: bool,
}

/// The value slots of one root's children, handed out right to left —
/// the order the emitter visits them in.
pub(crate) struct Kids(u32);

impl Kids {
    /// The slot of the next child to the left.
    pub(crate) fn next(&mut self) -> u32 {
        self.0 -= 1;
        self.0
    }
}

impl LevelProgram {
    /// An empty program over `n_vars` variables whose roots are slots
    /// `0 .. n_roots` and whose `maxes` startup maxes take their operands
    /// right after them, with room for `monos` monomials and `sums` sums.
    pub(crate) fn with_capacity(
        n_vars: usize,
        n_roots: usize,
        maxes: usize,
        monos: usize,
        sums: usize,
    ) -> LevelProgram {
        LevelProgram {
            n_vars,
            monos: Vec::with_capacity(monos),
            max_consts: Vec::with_capacity(maxes),
            max_out: Vec::with_capacity(maxes),
            max_base: n_roots as u32,
            sums: Vec::with_capacity(sums),
            n_slots: n_roots + maxes,
            needs_halves: false,
        }
    }

    /// Open root `r`, the sum of the constant `init` (`0.0` for none) and
    /// `kids` further terms, which the caller emits next, right to left,
    /// into the slots the returned [`Kids`] hands out. This is
    /// `Expr::sum`'s collapse: a lone term writes the root's slot itself,
    /// anything else — several terms, a lone constant, no term at all —
    /// is a sum, and a zero `init` is no term.
    pub(crate) fn open_root(&mut self, r: usize, init: f64, kids: u32) -> Kids {
        assert!(init.is_finite() && init >= 0.0, "a root's constant must be finite and >= 0");
        let init = if init == 0.0 { 0.0 } else { init };
        if init == 0.0 && kids == 1 {
            return Kids(r as u32 + 1);
        }
        let c0 = self.n_slots as u32;
        self.n_slots += kids as usize;
        self.sums.push(Sum { init, out: r as u32, c0, arity: kids });
        Kids(c0 + kids)
    }

    /// Emit the monomial `coeff · Π p_j^{a_j}` of one or two terms, every
    /// exponent one of `±1`, `±0.5`, into `slot`; returns its index in the
    /// monomial table.
    ///
    /// # Panics
    /// If the coefficient is zero, negative or not finite, or an exponent
    /// is none of those four.
    pub(crate) fn mono(&mut self, slot: u32, coeff: f64, terms: &[(usize, f64)]) -> u32 {
        assert!(coeff.is_finite() && coeff > 0.0, "a monomial coefficient must be finite and > 0");
        debug_assert!(matches!(terms.len(), 1 | 2), "a monomial of one or two terms");
        let pad = 4 * self.n_vars as u32;
        let mut rows = [pad; 2];
        for (row, &(j, a)) in rows.iter_mut().zip(terms) {
            let s = ROW_EXPONENTS.iter().position(|&b| b == a).expect("an exponent of ±1 or ±0.5");
            *row = 4 * j as u32 + s as u32;
            self.needs_halves |= s >= 2;
        }
        self.monos.push(Mono { coeff, slot, rows });
        self.monos.len() as u32 - 1
    }

    /// Emit the startup max `max(c, c·p_other/p_me)` into `slot`.
    pub(crate) fn startup_max(&mut self, slot: u32, c: f64, other: usize, me: usize) {
        let operand = self.max_base + self.max_out.len() as u32;
        self.mono(operand, c, &[(other, 1.0), (me, -1.0)]);
        self.max_consts.push(c);
        self.max_out.push(slot);
    }

    /// How many monomials the program holds: the end of the range the
    /// roots emitted so far occupy in the accumulation order.
    pub(crate) fn mono_count(&self) -> usize {
        self.monos.len()
    }

    /// How many sums the program holds: the index of the next one
    /// [`LevelProgram::open_root`] opens.
    pub(crate) fn sum_count(&self) -> usize {
        self.sums.len()
    }

    /// Overwrite the coefficient of monomial `i`, one non-zero value for
    /// another: a zero coefficient is no monomial, so whether it is zero
    /// is part of the program's shape and not a value to write.
    pub(crate) fn set_coeff(&mut self, i: u32, coeff: f64) {
        let m = &mut self.monos[i as usize];
        debug_assert!(m.coeff != 0.0 && coeff != 0.0, "a zero coefficient is shape");
        m.coeff = coeff;
    }

    /// [`LevelProgram::set_coeff`] for the constant sum `i` starts from.
    pub(crate) fn set_init(&mut self, i: u32, init: f64) {
        let s = &mut self.sums[i as usize];
        debug_assert!(s.init != 0.0 && init != 0.0, "a zero constant is shape");
        s.init = init;
    }

    /// Shape of the program.
    pub(crate) fn stats(&self) -> TapeStats {
        let sum_consts = self.sums.iter().filter(|s| s.init != 0.0 || s.arity == 0).count();
        let constants = self.max_out.len() + sum_consts;
        TapeStats {
            monomials: self.monos.len() + constants,
            constants,
            sums: self.sums.len(),
            maxes: self.max_out.len(),
            slots: self.n_slots,
        }
    }

    /// Forward sweep at the log-space point `x`: fills the variable
    /// cache, then records every slot's value into `scratch.tape_vals`
    /// (root `r` at `[r]`) and every max's weights into
    /// `scratch.tape_wts`, level by level. The monomial level is the same
    /// at every sharpness; only the maxes read `sharp`.
    pub(crate) fn forward(&self, x: &[f64], sharp: Sharpness, scratch: &mut EvalScratch) {
        debug_assert_eq!(x.len(), self.n_vars);
        let k = self.max_out.len();
        scratch.ensure_tape(self.n_slots, k);
        scratch.var_cache.fill(x, self);
        scratch.counts.exp_calls += x.len() as u64;
        let EvalScratch { tape_vals: vals, tape_wts: wts, var_cache, stack, .. } = scratch;
        let fac = &var_cache.fac;
        for m in &self.monos {
            vals[m.slot as usize] = m.coeff * fac[m.rows[0] as usize] * fac[m.rows[1] as usize];
        }
        if k > 0 {
            let operands = &vals[self.max_base as usize..][..k];
            let (wa, wb) = wts[..2 * k].split_at_mut(k);
            let staged = &mut stack[..k];
            match sharp {
                Sharpness::Exact => max2_exact_rows(&self.max_consts, operands, staged, wa, wb),
                Sharpness::Smooth(s) => smax2_rows(s, &self.max_consts, operands, staged, wa, wb),
            }
            for (&o, &v) in self.max_out.iter().zip(&*staged) {
                vals[o as usize] = v;
            }
        }
        for s in &self.sums {
            let kids = &vals[s.c0 as usize..][..s.arity as usize];
            let v = kids.iter().fold(s.init, |acc, &c| acc + c);
            vals[s.out as usize] = v;
        }
    }

    /// Push the root adjoints the caller wrote into `adj[r]` down to
    /// every monomial's slot: a sum copies its adjoint to each child, a
    /// max scales it by its operand's recorded weight — the products a
    /// post-order adjoint stack forms.
    pub(crate) fn push_adjoints(&self, adj: &mut [f64], wts: &[f64]) {
        for s in &self.sums {
            let a = adj[s.out as usize];
            adj[s.c0 as usize..][..s.arity as usize].fill(a);
        }
        let k = self.max_out.len();
        let operands = self.max_base as usize..self.max_base as usize + k;
        for ((i, &o), &w) in operands.zip(&self.max_out).zip(&wts[k..2 * k]) {
            adj[i] = adj[o as usize] * w;
        }
    }

    /// Accumulate `adjoint · value · exponent` of the monomials in
    /// `range` (accumulation order) into `grad`, from the value and
    /// adjoint tapes. A padded term is skipped: adding its `±0.0` to one
    /// shared entry would queue every padded term of the replay on that
    /// one address, a chain of dependent stores that made the replay of
    /// the `compile-large` graphs about 40 % slower.
    pub(crate) fn accumulate(
        &self,
        range: Range<usize>,
        vals: &[f64],
        adj: &[f64],
        grad: &mut [f64],
    ) {
        let pad = 4 * self.n_vars as u32;
        for m in &self.monos[range] {
            let av = adj[m.slot as usize] * vals[m.slot as usize];
            for r in m.rows {
                if r != pad {
                    grad[(r / 4) as usize] += av * ROW_EXPONENTS[(r % 4) as usize];
                }
            }
        }
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
            // One finite candidate is its own smoothed max with weight
            // 1: the chain below reduces to `v/v = 1`, `1^s`, `1^(1/s)`,
            // `v·1`, `(1/1)·(v/v)` — every node with a single in-edge.
            if vals.len() == 1 && m < f64::INFINITY {
                wts[0] = 1.0;
                return m;
            }
            smax_chain(vals, m, s, wts)
        }
    }
}

/// The general smooth path of `smax_weights_fast`, `m` being the
/// (non-zero) plain max of `vals`.
fn smax_chain(vals: &[f64], m: f64, s: f64, wts: &mut [f64]) -> f64 {
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

/// `b^s` for `b ∈ [0, 1]`: repeated squaring via `powi` when `s` is a
/// small positive integer (the annealing schedule's 4/16/64/256 all
/// are), `powf` otherwise.
#[inline]
fn pow_sharp(b: f64, s: f64) -> f64 {
    if s.fract() == 0.0 && (1.0..=512.0).contains(&s) {
        b.powi(s as i32)
    } else {
        b.powf(s)
    }
}

/// `v^{1/s}`: repeated hardware `sqrt` when `s` is a power of two (the
/// annealing schedule's are), `powf` otherwise.
#[inline]
fn root_sharp(v: f64, s: f64) -> f64 {
    match pow2_log(s, 2.0) {
        Some(q) => (0..q).fold(v, |r, _| r.sqrt()),
        None => v.powf(1.0 / s),
    }
}

/// `log₂ s` when `s` is an integer power of two in `lo..=512` — the tier
/// of the power (`lo = 1`) and root (`lo = 2`) kernels that runs as
/// repeated squaring / repeated `sqrt`.
#[inline]
fn pow2_log(s: f64, lo: f64) -> Option<u32> {
    let pow2 = s.fract() == 0.0 && (lo..=512.0).contains(&s) && (s as u32).is_power_of_two();
    pow2.then(|| (s as u32).trailing_zeros())
}

/// Exact arity-2 max over rows: `val = max(0, a, b)`, weight 1 on the
/// first candidate that attains it.
fn max2_exact_rows(a: &[f64], b: &[f64], val: &mut [f64], wa: &mut [f64], wb: &mut [f64]) {
    for i in 0..a.len() {
        let m = 0.0_f64.max(a[i]).max(b[i]);
        val[i] = m;
        wa[i] = if a[i] == m { 1.0 } else { 0.0 };
        wb[i] = if a[i] != m && b[i] == m { 1.0 } else { 0.0 };
    }
}

/// Smoothed arity-2 max over rows of independent elements — one level's
/// arity-2 maxes: `val[i] = smax_s(a[i], b[i])` with the weights of the
/// two candidates in `wa[i]`, `wb[i]`.
///
/// Per element this is exactly the operation sequence of
/// `smax_weights_fast` on two candidates — max, divide, power, sum from
/// `0.0`, root, product, weight recovery, the same early return for an
/// all-zero element (value `+0.0`, weights `0.0`) — but run in blocks of
/// compile-time width 8, 4, 2, 1, so the dependent divide → squarings →
/// square roots → divides of one element overlap with its neighbours'
/// instead of waiting on each other (a block of 8 is four 128-bit
/// vectors on a baseline x86-64 build). When `s` is a power of two (the
/// whole annealing schedule) the power is `log₂ s` squarings and the
/// root `log₂ s` hardware `sqrt`s, all of it vectorised; for any other
/// sharpness they are `pow_sharp` and `powf(1/s)`. An element's result
/// does not depend on which block it lands in.
#[inline]
fn smax2_rows(s: f64, a: &[f64], b: &[f64], val: &mut [f64], wa: &mut [f64], wb: &mut [f64]) {
    let n = a.len();
    debug_assert!(b.len() == n && val.len() == n && wa.len() == n && wb.len() == n);
    let tiers = (pow2_log(s, 1.0), pow2_log(s, 2.0));
    let mut i = 0;
    while i < n {
        let (a, b) = (&a[i..], &b[i..]);
        let (val, wa, wb) = (&mut val[i..], &mut wa[i..], &mut wb[i..]);
        i += match n - i {
            8.. => smax2_block::<8>(s, tiers, a, b, val, wa, wb),
            4.. => smax2_block::<4>(s, tiers, a, b, val, wa, wb),
            2.. => smax2_block::<2>(s, tiers, a, b, val, wa, wb),
            _ => smax2_block::<1>(s, tiers, a, b, val, wa, wb),
        };
    }
}

/// The first `N` elements of `smax2_rows`' rows, each loop one operation
/// across the block; returns `N`.
#[inline(always)]
fn smax2_block<const N: usize>(
    s: f64,
    (squarings, sqrts): (Option<u32>, Option<u32>),
    a: &[f64],
    b: &[f64],
    val: &mut [f64],
    wa: &mut [f64],
    wb: &mut [f64],
) -> usize {
    let a: &[f64; N] = a[..N].try_into().expect("a slice of N entries");
    let b: &[f64; N] = b[..N].try_into().expect("a slice of N entries");
    let (mut m, mut ta, mut tb) = ([0.0; N], [0.0; N], [0.0; N]);
    for l in 0..N {
        m[l] = 0.0_f64.max(a[l]).max(b[l]);
        let md = if m[l] == 0.0 { 1.0 } else { m[l] };
        ta[l] = a[l] / md;
        tb[l] = b[l] / md;
    }
    match squarings {
        Some(q) => {
            for _ in 0..q {
                for l in 0..N {
                    ta[l] *= ta[l];
                    tb[l] *= tb[l];
                }
            }
        }
        None => {
            for l in 0..N {
                ta[l] = pow_sharp(ta[l], s);
                tb[l] = pow_sharp(tb[l], s);
            }
        }
    }
    let (mut sum, mut root) = ([0.0; N], [0.0; N]);
    for l in 0..N {
        let mut acc = 0.0;
        acc += ta[l];
        acc += tb[l];
        sum[l] = acc;
        root[l] = acc;
    }
    match sqrts {
        Some(q) => {
            for _ in 0..q {
                for r in root.iter_mut() {
                    *r = r.sqrt();
                }
            }
        }
        None => {
            let inv = 1.0 / s;
            for r in root.iter_mut() {
                *r = r.powf(inv);
            }
        }
    }
    for l in 0..N {
        let v = m[l] * root[l];
        let dead = m[l] == 0.0;
        val[l] = if dead { 0.0 } else { v };
        wa[l] = if ta[l] == 0.0 || dead { 0.0 } else { (ta[l] / sum[l]) * (v / a[l]) };
        wb[l] = if tb[l] == 0.0 || dead { 0.0 } else { (tb[l] / sum[l]) * (v / b[l]) };
    }
    N
}

/// The smoothed max of every node of one DAG depth over its in-edge
/// candidates, with each candidate's weight: per node exactly
/// `smax_weights_fast` on its candidates in in-edge order, to the bit.
///
/// Layout: the depth's nodes sorted by in-degree, descending, and their
/// candidates column by column — column `k` holds the `k`-th candidate of
/// the first `heights[k]` nodes, so `heights` is non-increasing and
/// `cands` holds `Σ heights` entries. `start[i]` gets node `i`'s max
/// (`0.0` for a node without candidates, past `heights[0]`), `wts` the
/// weights in the candidates' layout. `work` is staging of
/// `3 · start.len()` entries.
///
/// The one node of a depth, whose columns are its candidates in order,
/// goes through `smax_weights_fast` itself, and a depth whose every node
/// has two candidates through the level program's arity-2 rows. The
/// nodes of any other depth run that function's chain one operation at a
/// time across the depth — max from `0.0`, divide, power (squaring when
/// `s` is a power of two), sum from `0.0` in candidate order, root,
/// weight recovery, the all-zero guard as `smax2_block` has it — so
/// their dependent divides and square roots overlap instead of waiting
/// on each other. A lone finite candidate comes out of the chain as its
/// own value with weight 1, as out of `smax_weights_fast`'s shortcut:
/// `c/c = 1`, and every power and root of `1` is `1`. At `Exact` every
/// node takes the first candidate that attains its max. (Each shortcut
/// was measured against the chain alone: DESIGN.md §6.)
pub(crate) fn smax_columns(
    sharp: Sharpness,
    heights: &[u32],
    cands: &[f64],
    start: &mut [f64],
    wts: &mut [f64],
    work: &mut [f64],
) {
    if let [start] = start {
        *start = smax_weights_fast(cands, sharp, wts);
        return;
    }
    let w = start.len();
    if heights == [w as u32; 2] {
        let (a, b) = cands.split_at(w);
        let (wa, wb) = wts.split_at_mut(w);
        match sharp {
            Sharpness::Exact => max2_exact_rows(a, b, start, wa, wb),
            Sharpness::Smooth(s) => smax2_rows(s, a, b, start, wa, wb),
        }
        return;
    }
    let (m, rest) = work[..3 * w].split_at_mut(w);
    let (sum, root) = rest.split_at_mut(w);
    // Column `k` as the range of `cands` it occupies.
    let columns = || {
        heights.iter().scan(0, |off, &h| {
            let lo = *off;
            *off += h as usize;
            Some(lo..*off)
        })
    };
    m.fill(0.0);
    for col in columns() {
        for (m, &c) in m.iter_mut().zip(&cands[col]) {
            *m = m.max(c);
        }
    }
    let s = match sharp {
        Sharpness::Exact => {
            // `sum` flags the nodes whose argmax is taken.
            sum.fill(0.0);
            for col in columns() {
                for (i, (w, &c)) in wts[col.clone()].iter_mut().zip(&cands[col]).enumerate() {
                    let first = sum[i] == 0.0 && c == m[i];
                    *w = if first { 1.0 } else { 0.0 };
                    if first {
                        sum[i] = 1.0;
                    }
                }
            }
            start.copy_from_slice(m);
            return;
        }
        Sharpness::Smooth(s) => s,
    };
    // `root` holds the divisor, then the root, then the value.
    for (d, &m) in root.iter_mut().zip(&*m) {
        *d = if m == 0.0 { 1.0 } else { m };
    }
    for col in columns() {
        for ((t, &c), &d) in wts[col.clone()].iter_mut().zip(&cands[col]).zip(&*root) {
            *t = c / d;
        }
    }
    let (squarings, sqrts) = (pow2_log(s, 1.0), pow2_log(s, 2.0));
    for col in columns() {
        let t = &mut wts[col];
        match squarings {
            Some(q) => {
                for _ in 0..q {
                    for t in t.iter_mut() {
                        *t *= *t;
                    }
                }
            }
            None => {
                for t in t.iter_mut() {
                    *t = pow_sharp(*t, s);
                }
            }
        }
    }
    sum.fill(0.0);
    for col in columns() {
        for (acc, &t) in sum.iter_mut().zip(&wts[col]) {
            *acc += t;
        }
    }
    root.copy_from_slice(sum);
    match sqrts {
        Some(q) => {
            for _ in 0..q {
                for r in root.iter_mut() {
                    *r = r.sqrt();
                }
            }
        }
        None => {
            let inv = 1.0 / s;
            for r in root.iter_mut() {
                *r = r.powf(inv);
            }
        }
    }
    for ((r, &m), out) in root.iter_mut().zip(&*m).zip(start) {
        *r *= m;
        *out = if m == 0.0 { 0.0 } else { *r };
    }
    for col in columns() {
        let (t, c) = (&mut wts[col.clone()], &cands[col]);
        for (i, (t, &c)) in t.iter_mut().zip(c).enumerate() {
            let dead = m[i] == 0.0;
            *t = if *t == 0.0 || dead { 0.0 } else { (*t / sum[i]) * (root[i] / c) };
        }
    }
}

#[cfg(test)]
impl LevelProgram {
    /// The output slot of sum `i` and the constant it starts from.
    pub(crate) fn sum_at(&self, i: u32) -> (usize, f64) {
        let s = &self.sums[i as usize];
        (s.out as usize, s.init)
    }

    /// The coefficient and the `(variable, exponent)` terms of monomial
    /// `i`, padding dropped, read off its rows as `accumulate` reads them.
    pub(crate) fn mono_at(&self, i: u32) -> (f64, Vec<(u32, f64)>) {
        let m = &self.monos[i as usize];
        let pad = 4 * self.n_vars as u32;
        let terms = m.rows.iter().filter(|&&r| r != pad);
        (m.coeff, terms.map(|&r| (r / 4, ROW_EXPONENTS[r as usize % 4])).collect())
    }

    /// What writes root `r`'s slot, by name: a lone `"mono"`, a lone
    /// `"max"`, or a sum — `"constant"` and `"zero"` when it has no other
    /// child.
    pub(crate) fn root_kind(&self, r: usize) -> &'static str {
        let r = r as u32;
        if self.monos.iter().any(|m| m.slot == r) {
            return "mono";
        }
        if self.max_out.contains(&r) {
            return "max";
        }
        let s = self.sums.iter().find(|s| s.out == r).expect("every root is written");
        match (s.arity, s.init != 0.0) {
            (0, true) => "constant",
            (0, false) => "zero",
            _ => "sum",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::smax_weights;

    #[test]
    fn fast_smax_kernel_matches_reference() {
        for sharp in [Sharpness::Exact, Sharpness::Smooth(4.0), Sharpness::Smooth(256.0)] {
            for vals in [
                vec![1.0, 2.0, 3.0, 0.5],
                vec![2.0, 2.0],
                vec![0.0, 0.0],
                vec![7.0],
                vec![0.0],
                vec![1e-8, 100.0, 0.0],
            ] {
                let (v0, w0) = smax_weights(&vals, sharp);
                let mut w1 = vec![0.0; vals.len()];
                let v1 = smax_weights_fast(&vals, sharp, &mut w1);
                assert!((v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0), "{sharp:?} {vals:?}");
                for (a, b) in w0.iter().zip(&w1) {
                    assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                        "{sharp:?} {vals:?}: weight {a} vs {b}"
                    );
                }
            }
        }
    }

    /// The single-candidate shortcut returns what the divide / power /
    /// root chain computes on one candidate, to the bit.
    #[test]
    fn single_candidate_smax_is_the_chain_to_the_bit() {
        for v in [0.0, 1e-300, 1.0, 1e300] {
            for sharp in [
                Sharpness::Exact,
                Sharpness::Smooth(4.0),
                Sharpness::Smooth(64.0),
                Sharpness::Smooth(256.0),
                Sharpness::Smooth(3.7),
            ] {
                let mut w = [f64::NAN];
                let val = smax_weights_fast(&[v], sharp, &mut w);
                // The general path: at Exact the first-argmax rule, at
                // Smooth the zero guard or the chain.
                let (val0, w0) = match sharp {
                    Sharpness::Exact => (v, 1.0),
                    Sharpness::Smooth(_) if v == 0.0 => (0.0, 0.0),
                    Sharpness::Smooth(s) => {
                        let mut w0 = [f64::NAN];
                        (smax_chain(&[v], v, s, &mut w0), w0[0])
                    }
                };
                assert_eq!(
                    (val.to_bits(), w[0].to_bits()),
                    (val0.to_bits(), w0.to_bits()),
                    "{sharp:?} v={v:e}: ({val}, {}) vs ({val0}, {w0})",
                    w[0]
                );
            }
        }
    }

    /// The elementwise arity-2 kernel is the general kernel on two
    /// candidates, to the bit, in a chunk and in the tail, on every tier.
    #[test]
    fn arity2_rows_are_the_general_kernel_to_the_bit() {
        let a = [1.0, 2.0, 0.0, 0.0, 3.5, 1e-300, 1e300, 0.25, 1.0, 7.0, 1e-9];
        let b = [2.0, 2.0, 0.0, 5.0, 0.0, 1e-300, 1.0, 1e-12, 1e-200, 7.0, 1e9];
        let n = a.len();
        let sharps = [1.0, 2.0, 4.0, 64.0, 256.0, 3.0, 3.7, 600.0].map(Sharpness::Smooth);
        for sharp in sharps.into_iter().chain([Sharpness::Exact]) {
            let (mut val, mut wa, mut wb) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            match sharp {
                Sharpness::Exact => max2_exact_rows(&a, &b, &mut val, &mut wa, &mut wb),
                Sharpness::Smooth(s) => smax2_rows(s, &a, &b, &mut val, &mut wa, &mut wb),
            }
            for i in 0..n {
                let mut w = [0.0; 2];
                let v = smax_weights_fast(&[a[i], b[i]], sharp, &mut w);
                assert_eq!(
                    [val[i].to_bits(), wa[i].to_bits(), wb[i].to_bits()],
                    [v.to_bits(), w[0].to_bits(), w[1].to_bits()],
                    "{sharp:?} element {i}: ({}, {}, {}) vs ({v}, {}, {})",
                    val[i],
                    wa[i],
                    wb[i],
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// The depth kernel is the general kernel on each node's candidates
    /// in order, to the bit: value and every weight, on depths of every
    /// arity from 0 to 13 (0 being a node past `heights[0]`, or every node
    /// of a depth of sources), at every power and root tier and at
    /// `Exact`, over candidates that are zero, tied, `1e±300` or `+∞`.
    #[test]
    fn depth_columns_are_the_general_kernel_to_the_bit() {
        const POOL: [f64; 10] = [0.0, 1.0, 2.0, 2.0, 1e-300, 1e300, f64::INFINITY, 0.5, 3.7, 1e-9];
        let sharps = [1.0, 2.0, 3.0, 3.7, 8.0, 64.0, 256.0, 600.0].map(Sharpness::Smooth);
        let mut state = 42;
        // Every arity; one node of one candidate; nodes of two, with and
        // without a tail of one candidate; sources only; no node.
        let mut depths: Vec<Vec<usize>> =
            vec![(0..=13).rev().collect(), vec![1], vec![2; 9], vec![2, 2, 1], vec![0; 3], vec![]];
        for _ in 0..40 {
            let width = 1 + (next(&mut state) % 9) as usize;
            let mut arities: Vec<usize> =
                (0..width).map(|_| (next(&mut state) % 14) as usize).collect();
            arities.sort_unstable_by(|a, b| b.cmp(a));
            depths.push(arities);
        }
        for arities in &depths {
            // Per node its candidates: all zero, all tied, or drawn from
            // the pool (one in four pool values is a zero, a tie or `+∞`).
            let lists: Vec<Vec<f64>> = arities
                .iter()
                .map(|&k| match next(&mut state) % 4 {
                    0 => vec![0.0; k],
                    1 => vec![2.5; k],
                    _ => (0..k).map(|_| POOL[(next(&mut state) % 10) as usize]).collect(),
                })
                .collect();
            let k_max = arities.first().copied().unwrap_or(0);
            let heights: Vec<u32> =
                (0..k_max).map(|k| arities.iter().filter(|&&a| a > k).count() as u32).collect();
            let cands: Vec<f64> = (0..k_max)
                .flat_map(|k| lists.iter().filter(move |l| l.len() > k).map(move |l| l[k]))
                .collect();
            let w = arities.len();
            for sharp in sharps.into_iter().chain([Sharpness::Exact]) {
                let mut start = vec![f64::NAN; w];
                let mut wts = vec![f64::NAN; cands.len()];
                let mut work = vec![f64::NAN; 3 * w];
                smax_columns(sharp, &heights, &cands, &mut start, &mut wts, &mut work);
                let col_off: Vec<usize> = heights
                    .iter()
                    .scan(0, |off, &h| {
                        let lo = *off;
                        *off += h as usize;
                        Some(lo)
                    })
                    .collect();
                for (i, list) in lists.iter().enumerate() {
                    let mut want = vec![0.0; list.len()];
                    let v = smax_weights_fast(list, sharp, &mut want);
                    let got: Vec<u64> =
                        (0..list.len()).map(|k| wts[col_off[k] + i].to_bits()).collect();
                    assert_eq!(
                        (start[i].to_bits(), got),
                        (v.to_bits(), want.iter().map(|w| w.to_bits()).collect()),
                        "{sharp:?} arities {arities:?}, node {i} {list:?}: {} vs {v}",
                        start[i]
                    );
                }
            }
        }
    }

    /// splitmix64 over a test-local state.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Why `try_allocate` starts at the midpoint and not at `x = 0`: there
    /// every factor is `exp(0) = 1` exactly, so both candidates of every
    /// 1D transfer's startup `max(t_s, t_s · p_other / p_me)` are `t_s`
    /// to the bit, and the exact sweep's first-argmax rule puts weight 1
    /// on the constant one — a subgradient that moves no variable.
    #[test]
    fn at_zero_every_1d_startup_max_ties_on_its_constant() {
        use paradigm_cost::Machine;
        use paradigm_mdg::{complex_matmul_mdg, KernelCostTable};
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let obj = crate::MdgObjective::new(&g, Machine::cm5(16));
        let prog = obj.program();
        let mut scratch = EvalScratch::default();
        prog.forward(&vec![0.0; g.node_count()], Sharpness::Exact, &mut scratch);
        let k = prog.max_out.len();
        assert!(k > 0, "cmm has 1D transfers");
        let operands = &scratch.tape_vals[prog.max_base as usize..][..k];
        for (i, (&c, &v)) in prog.max_consts.iter().zip(operands).enumerate() {
            assert_eq!(c.to_bits(), v.to_bits(), "max {i}");
            assert_eq!((scratch.tape_wts[i], scratch.tape_wts[k + i]), (1.0, 0.0), "max {i}");
        }
    }
}
