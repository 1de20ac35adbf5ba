//! The level program: every [`Expr`] of one objective flattened into a
//! single flat program that the tape executor sweeps level by level.
//!
//! The tree walk in [`Expr::eval_grad`] is correct but pays twice on
//! every gradient: pointer-chasing through boxed enum nodes, and
//! *re-evaluating* each subexpression on the way back down to recover
//! `max` weights and monomial values the forward pass already knew. A
//! post-order tape per expression removes both costs but leaves a third:
//! every smoothed `max` is a chain of dependent divides, squarings and
//! square roots, and an interpreter that executes one op at a time runs
//! those chains one after the other with the divider idle in between.
//!
//! A [`LevelProgram`] is compiled once per objective from its
//! expressions (the roots), handed over one at a time and dropped once
//! placed. Placement is level-local; one relocation pass at the end, when
//! every level's size is known, fixes where each level's slots start:
//!
//! * **one value slot per op** — `vals[slot]`. Root `r` owns slot `r`;
//!   the children of every op own one contiguous block of slots in child
//!   order, allocated level by level from the top, so a parent's slot is
//!   always below its children's and a level splits the tape into
//!   "outputs below, operands above" with one `split_at_mut`;
//! * **level 0** is every monomial (coefficient, term range, exponent
//!   slot for the exact sweep), stored in the order the backward pass
//!   accumulates them (below);
//! * **level ℓ ≥ 1** is every `Sum`/`Max` whose deepest child sits at
//!   ℓ − 1, as homogeneous lists: the arity-2 maxes of a level (every
//!   `max` the objective builds) share one structure-of-arrays operand
//!   block — all first candidates, then all second candidates — so one
//!   elementwise kernel (`smax2_rows`) sweeps the level's independent
//!   chains at once; other arities go through `smax_weights_fast` on
//!   their contiguous child block; sums add their block in child order.
//!
//! The forward sweep records every op's value and every `max`'s weights;
//! the backward sweep pushes a per-slot adjoint top-down (copy through a
//! sum, scale by the recorded weight through a max) and then accumulates
//! `adjoint · value · exponent` of every monomial into the gradient —
//! pure multiply-adds, no `exp`, no `powf`, no re-evaluation.
//!
//! This module holds the program, its compile and its executor: the
//! forward sweep (`LevelProgram::forward`, whose smooth monomial level is
//! `LevelProgram::smooth_monomials`) and the two backward passes
//! (`LevelProgram::push_adjoints`, `LevelProgram::accumulate`).
//!
//! Numerical contract. Per op the sweeps perform exactly the IEEE
//! operation sequence of the post-order tapes they replaced, and every
//! accumulation keeps its order: a sum adds its children left to right,
//! and the monomial table is laid out in the order the old adjoint stack
//! reached the monomials (roots in the caller's replay order, each
//! root's monomials right to left), so every `grad[j]` receives the same
//! addends in the same order. What used to be skipped when an adjoint was
//! zero is now an added `±0.0`, which cannot change a sum that started
//! at `+0.0`. `crates/solver/tests/tape_bits.rs` pins the bits.
//!
//! At [`Sharpness::Exact`] the sweep is **bit-identical** to the tree
//! walk (same summation order, same first-argmax tie-breaking): each
//! monomial is `coeff · exp(Σ a_j x_j)` with the sum taken in term
//! order, but `exp` runs once per *distinct* exponent vector of the
//! program and constants take `coeff` as is (`exp(±0) = 1`). At
//! `Smooth(s)` monomials are products of cached `e^{±x_j}`, `e^{±x_j/2}`
//! factors and the power kernel is repeated squaring, so values may
//! differ from the tree's `powf` in the last ulps; the property tests
//! pin agreement at 1e-12 (values) and 1e-9 (gradients).

use crate::expr::{Expr, Monomial, Sharpness};
use crate::workspace::EvalScratch;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Per-sweep caches of `exp(x_j)` and friends at one point, filled once
/// per objective call: four sections of `n` entries — `e^{x}`, `e^{-x}`,
/// `e^{x/2}`, `e^{-x/2}` — so a monomial term compiles to one index into
/// `fac`.
///
/// The objective's monomials only ever use exponents in `{±1, ±0.5}`
/// (processor ratios and the 2D mesh's square-root terms), so a smoothed
/// monomial is a handful of multiplies instead of a dot product plus
/// `exp`. The factors are *not* used by the monomials of an exact sweep
/// (see the module docs), but the `e^{x}` section is filled on every
/// sweep: the objective's fused `A_p = (1/p) Σ T_i e^{x_i}` reads it.
#[derive(Debug, Default)]
pub struct VarCache {
    pub(crate) fac: Vec<f64>,
    len: usize,
}

impl VarCache {
    /// Fill for the point `xs`. `halves` asks for the square-root
    /// sections too (only needed when some monomial carries a `±0.5`
    /// exponent). Capacity is retained across calls.
    pub(crate) fn fill(&mut self, xs: &[f64], halves: bool) {
        let len = xs.len();
        self.len = len;
        self.fac.resize(if halves { 4 * len } else { 2 * len }, 0.0);
        let (e, rest) = self.fac.split_at_mut(len);
        for (ei, &x) in e.iter_mut().zip(xs) {
            *ei = x.exp();
        }
        let (inv, rest) = rest.split_at_mut(len);
        for (i, &ei) in inv.iter_mut().zip(&*e) {
            *i = 1.0 / ei;
        }
        if halves {
            let (sq, isq) = rest.split_at_mut(len);
            for ((s, i), &ei) in sq.iter_mut().zip(isq).zip(&*e) {
                *s = ei.sqrt();
                *i = 1.0 / *s;
            }
        }
    }

    /// The `exp(x_j)` section.
    pub(crate) fn e(&self) -> &[f64] {
        &self.fac[..self.len]
    }
}

/// Factor-row marker of a term whose exponent is none of `±1`, `±0.5`:
/// the sweep falls back to `exp(x_j).powf(a)`.
const POWF: u32 = u32::MAX;

/// One level-0 op: `coeff · Π factors` over `terms[lo..hi]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mono {
    pub(crate) coeff: f64,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    pub(crate) slot: u32,
    /// Index of this monomial's exponent vector among the program's
    /// distinct ones; constants point at the trailing `1.0` entry. (While
    /// the compile places ops, the section tag of `slot`.)
    exp: u32,
}

/// A `Sum` or a `Max` of arity ≠ 2: reduces the child slots
/// `c0 .. c0 + arity` into `out`; a max records its weights at
/// `w0 .. w0 + arity`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reduce {
    pub(crate) out: u32,
    pub(crate) c0: u32,
    pub(crate) arity: u32,
    pub(crate) w0: u32,
}

/// The ops of one level.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    /// First child slot this level allocated: every output of the level
    /// is below it, every operand at or above it.
    pub(crate) child_base: u32,
    /// Arity-2 maxes: op `i` (output slot `max2_out[i]`) reads
    /// `child_base + i` and `child_base + n + i` and records its weights
    /// at `w0 + i` and `w0 + n + i`, `n` being the level's arity-2 count.
    pub(crate) max2_out: Vec<u32>,
    pub(crate) w0: u32,
    /// Maxes of any other arity.
    pub(crate) maxes: Vec<Reduce>,
    /// Sums.
    pub(crate) sums: Vec<Reduce>,
}

/// Shape of a compiled program, for the benches and the docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeStats {
    /// Level-0 ops.
    pub monomials: usize,
    /// Distinct non-constant exponent vectors: `exp` calls of the
    /// monomial level of one exact sweep.
    pub distinct_exponent_vectors: usize,
    /// `Sum` ops.
    pub sums: usize,
    /// `Max` ops as `(arity, count)`, ascending arity.
    pub maxes_by_arity: Vec<(usize, usize)>,
    /// Levels above the monomials.
    pub levels: usize,
    /// Value slots: one per op (monomials + sums + maxes).
    pub slots: usize,
    /// Weight slots (Σ arity over maxes).
    pub weights: usize,
}

/// All expressions of one objective compiled into one level-by-level
/// program (see the module docs). Build once, root by root, with
/// [`LevelProgram::compile`].
#[derive(Debug, Clone)]
pub struct LevelProgram {
    pub(crate) n_vars: usize,
    /// Monomials in backward-accumulation order.
    pub(crate) monos: Vec<Mono>,
    /// `(variable, exponent)` pairs of every monomial, contiguous.
    pub(crate) terms: Vec<(u32, f64)>,
    /// Factor row of each term in the `VarCache` (`POWF` for an exotic
    /// exponent), parallel to `terms`.
    rows: Vec<u32>,
    /// Term range of each distinct exponent vector: the exact sweep's
    /// `exp` table has one entry per vector plus the constants' `1.0`.
    pub(crate) exp_keys: Vec<(u32, u32)>,
    /// Levels bottom-up (level 1 first).
    pub(crate) levels: Vec<Level>,
    /// Monomial-table range of each root.
    mono_ranges: Vec<(u32, u32)>,
    /// Value slots: one per op.
    pub(crate) n_slots: usize,
    /// Weight slots: Σ arity over maxes.
    pub(crate) n_wts: usize,
    /// Widest arity-2 list of any level (sizes the staging row).
    pub(crate) max2_width: usize,
    /// Whether any monomial carries a `±0.5` exponent (the 2D mesh's
    /// square-root network terms): whether `VarCache::fill` must
    /// populate the square-root sections.
    pub(crate) needs_halves: bool,
}

/// The four sections of a level's block of child slots, in slot order:
/// the first candidates of its arity-2 maxes, their second candidates,
/// the child blocks of its other maxes, the child blocks of its sums.
const FIRST: u32 = 0;
const MAX_KIDS: u32 = 2;
const SUM_KIDS: u32 = 3;

/// Section tag of an output slot that is final as placed: a root's.
const ROOT: u32 = u32::MAX;

/// Section tag of section `section` of level `level`'s child block.
fn tag(level: usize, section: u32) -> u32 {
    4 * (level as u32 - 1) + section
}

/// One level while the compile fills it: its ops, each beside the
/// section tag of its output slot, and the child slots its maxes and sums
/// have taken. Until the relocation at the end every slot reference
/// counts from the start of its section: a child block's `c0` / `w0`
/// from its own level's, an output slot from the section its tag names.
#[derive(Default)]
struct OpenLevel {
    max2_out: Vec<(u32, u32)>,
    maxes: Vec<(Reduce, u32)>,
    sums: Vec<(Reduce, u32)>,
    max_kids: u32,
    sum_kids: u32,
}

/// Where the placer put an op, so that its parent — which learns its
/// own level, and with it its children's slots, only after visiting
/// them — can fill in the op's output slot. (Level index, position.)
#[derive(Clone, Copy)]
enum Placed {
    Mono(usize),
    Max2(usize, usize),
    Max(usize, usize),
    Sum(usize, usize),
}

/// The compile's state between two roots.
struct Placer {
    prog: LevelProgram,
    open: Vec<OpenLevel>,
    /// Handles of visited children whose parent has not finished yet.
    kids: Vec<Placed>,
}

impl Placer {
    /// Place the tree `e`; returns its level and the handle through which
    /// the caller sets its output slot. Children are visited right to
    /// left, so the monomial table fills in the order a post-order
    /// adjoint stack pops them.
    fn place(&mut self, e: &Expr) -> (usize, Placed) {
        let v = match e {
            Expr::Mono(m) => return (0, Placed::Mono(self.push_mono(m))),
            Expr::Sum(v) | Expr::Max(v) => v,
        };
        let first_kid = self.kids.len();
        let mut level = 0;
        for c in v.iter().rev() {
            let (l, placed) = self.place(c);
            level = level.max(l);
            self.kids.push(placed);
        }
        level += 1;
        if self.open.len() < level {
            self.open.resize_with(level, OpenLevel::default);
        }
        let lv = &mut self.open[level - 1];
        let arity = v.len() as u32;
        // The op's handle and the section and local slot of child 0. The
        // children of an arity-2 max sit at one position of two sections,
        // those of any other op in consecutive slots of one.
        let (placed, section, c0, two_sections) = match e {
            Expr::Max(_) if arity == 2 => {
                let i = lv.max2_out.len();
                lv.max2_out.push((0, ROOT));
                (Placed::Max2(level, i), FIRST, i as u32, true)
            }
            Expr::Max(_) => {
                let c0 = lv.max_kids;
                lv.max_kids += arity;
                lv.maxes.push((Reduce { out: 0, c0, arity, w0: c0 }, ROOT));
                (Placed::Max(level, lv.maxes.len() - 1), MAX_KIDS, c0, false)
            }
            _ => {
                let c0 = lv.sum_kids;
                lv.sum_kids += arity;
                lv.sums.push((Reduce { out: 0, c0, arity, w0: 0 }, ROOT));
                (Placed::Sum(level, lv.sums.len() - 1), SUM_KIDS, c0, false)
            }
        };
        // The handles were pushed last child first: child 0 pops first.
        for t in 0..arity {
            let kid = self.kids.pop().expect("one handle per child");
            let (section, local) = if two_sections { (section + t, c0) } else { (section, c0 + t) };
            self.set_out(kid, tag(level, section), local);
        }
        debug_assert_eq!(self.kids.len(), first_kid);
        (level, placed)
    }

    /// Point `placed`'s output at slot `local` of section `tag`.
    fn set_out(&mut self, placed: Placed, tag: u32, local: u32) {
        let (out, tag_of) = match placed {
            Placed::Mono(i) => {
                let m = &mut self.prog.monos[i];
                (&mut m.slot, &mut m.exp)
            }
            Placed::Max2(l, i) => {
                let (out, tag_of) = &mut self.open[l - 1].max2_out[i];
                (out, tag_of)
            }
            Placed::Max(l, i) => {
                let (r, tag_of) = &mut self.open[l - 1].maxes[i];
                (&mut r.out, tag_of)
            }
            Placed::Sum(l, i) => {
                let (r, tag_of) = &mut self.open[l - 1].sums[i];
                (&mut r.out, tag_of)
            }
        };
        (*out, *tag_of) = (local, tag);
    }

    /// Append `m` to the monomial table. A zero coefficient compiles to
    /// the constant `+0.0` with no terms: it evaluates to `0.0` whatever
    /// the point and contributes nothing to any gradient, as
    /// `Monomial::eval` has it.
    fn push_mono(&mut self, m: &Monomial) -> usize {
        let p = &mut self.prog;
        let lo = p.terms.len() as u32;
        let n = p.n_vars as u32;
        let coeff = if m.coeff == 0.0 {
            0.0
        } else {
            for &(j, a) in &m.exps {
                let j = j as u32;
                p.terms.push((j, a));
                p.rows.push(if a == 1.0 {
                    j
                } else if a == -1.0 {
                    n + j
                } else if a == 0.5 {
                    2 * n + j
                } else if a == -0.5 {
                    3 * n + j
                } else {
                    POWF
                });
            }
            m.coeff
        };
        p.monos.push(Mono { coeff, lo, hi: p.terms.len() as u32, slot: 0, exp: ROOT });
        p.monos.len() - 1
    }
}

/// Borrowed exponent vector with bitwise equality: the build-time key of
/// the exact sweep's `exp` deduplication.
struct ExpKey<'a>(&'a [(u32, f64)]);

impl Hash for ExpKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &(j, a) in self.0 {
            state.write_u32(j);
            state.write_u64(a.to_bits());
        }
    }
}

impl PartialEq for ExpKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

impl Eq for ExpKey<'_> {}

impl LevelProgram {
    /// Compile `n_roots` roots over `n_vars` variables into one program.
    /// `roots` yields `(r, tree)` in the order the backward pass
    /// accumulates the roots' monomials, naming every `r < n_roots` once;
    /// each tree is placed (and, handed over by value, dropped) before the
    /// next is asked for. Root `r` gets slot `r`; within a root the
    /// monomials go right to left, the order a post-order adjoint stack
    /// pops them in. Child order is preserved everywhere, so an exact
    /// sweep is bit-identical to [`Expr::eval`].
    ///
    /// # Panics
    /// If `roots` names a root out of range, twice, or not at all.
    pub fn compile<E: Borrow<Expr>>(
        n_vars: usize,
        n_roots: usize,
        roots: impl IntoIterator<Item = (usize, E)>,
    ) -> LevelProgram {
        const UNPLACED: (u32, u32) = (u32::MAX, u32::MAX);
        let prog = LevelProgram {
            n_vars,
            monos: Vec::new(),
            terms: Vec::new(),
            rows: Vec::new(),
            exp_keys: Vec::new(),
            levels: Vec::new(),
            mono_ranges: vec![UNPLACED; n_roots],
            n_slots: 0,
            n_wts: 0,
            max2_width: 0,
            needs_halves: false,
        };
        let mut placer = Placer { prog, open: Vec::new(), kids: Vec::new() };

        // Place every op, level-locally, the roots in accumulation order.
        for (r, e) in roots {
            let lo = placer.prog.monos.len() as u32;
            assert!(
                placer.prog.mono_ranges.get(r) == Some(&UNPLACED),
                "root {r} out of range or twice"
            );
            let (_, placed) = placer.place(e.borrow());
            placer.set_out(placed, ROOT, r as u32);
            placer.prog.mono_ranges[r] = (lo, placer.prog.monos.len() as u32);
        }
        assert!(!placer.prog.mono_ranges.contains(&UNPLACED), "every root must be named");

        // Relocation, top level first: the roots' slots, then one block
        // of child slots per level from the top down, each block its four
        // sections in order, `base[tag]` the first slot of section `tag`.
        // A level's outputs lie in the blocks above it.
        let Placer { mut prog, open, .. } = placer;
        let (mut slot, mut w) = (n_roots as u32, 0_u32);
        let mut base = vec![0_u32; 4 * open.len()];
        let at =
            |base: &[u32], tag, local| if tag == ROOT { local } else { base[tag as usize] + local };
        for (l, lv) in open.into_iter().enumerate().rev() {
            let n2 = lv.max2_out.len() as u32;
            let sections = [slot, slot + n2, slot + 2 * n2, slot + 2 * n2 + lv.max_kids];
            base[4 * l..4 * l + 4].copy_from_slice(&sections);
            let max2_out = lv.max2_out.iter().map(|&(o, t)| at(&base, t, o)).collect();
            let relocate = |ops: &[(Reduce, u32)], c0: u32, w0: u32| {
                let op = |&(r, t): &(Reduce, u32)| Reduce {
                    out: at(&base, t, r.out),
                    c0: r.c0 + c0,
                    w0: r.w0 + w0,
                    ..r
                };
                ops.iter().map(op).collect()
            };
            let maxes = relocate(&lv.maxes, sections[2], w + 2 * n2);
            let sums = relocate(&lv.sums, sections[3], 0);
            prog.levels.push(Level { child_base: slot, max2_out, w0: w, maxes, sums });
            prog.max2_width = prog.max2_width.max(n2 as usize);
            slot += 2 * n2 + lv.max_kids + lv.sum_kids;
            w += 2 * n2 + lv.max_kids;
        }
        prog.levels.reverse();
        (prog.n_slots, prog.n_wts) = (slot as usize, w as usize);
        for m in &mut prog.monos {
            m.slot = at(&base, m.exp, m.slot);
        }
        prog.monos.shrink_to_fit();
        prog.terms.shrink_to_fit();
        prog.rows.shrink_to_fit();

        // One exponent slot per distinct exponent vector, numbered in
        // order of first use; the map lives only here.
        let LevelProgram { monos, terms, exp_keys, .. } = &mut prog;
        let mut seen: HashMap<ExpKey<'_>, u32> = HashMap::new();
        for m in monos.iter_mut().filter(|m| m.lo != m.hi) {
            let (lo, hi) = (m.lo, m.hi);
            m.exp = *seen.entry(ExpKey(&terms[lo as usize..hi as usize])).or_insert_with(|| {
                exp_keys.push((lo, hi));
                exp_keys.len() as u32 - 1
            });
        }
        drop(seen);
        let constant = exp_keys.len() as u32;
        for m in monos.iter_mut().filter(|m| m.lo == m.hi) {
            m.exp = constant;
        }
        exp_keys.shrink_to_fit();
        prog.needs_halves = prog.terms.iter().any(|&(_, a)| a == 0.5 || a == -0.5);
        prog
    }

    /// Factor row of term `t` in the `VarCache`; `None` for an exotic
    /// exponent (`exp(x_j).powf(a)`).
    #[inline]
    pub(crate) fn factor_row(&self, t: usize) -> Option<usize> {
        let row = self.rows[t];
        (row != POWF).then_some(row as usize)
    }

    /// Range of root `r`'s monomials in the accumulation order.
    pub(crate) fn mono_range(&self, r: usize) -> Range<usize> {
        let (lo, hi) = self.mono_ranges[r];
        lo as usize..hi as usize
    }

    /// Overwrite the coefficient of table entry `i`, one non-zero value
    /// for another: a zero coefficient compiles to a constant without
    /// terms (`Placer::push_mono`), so whether it is zero is part of the
    /// program's shape and not a value to write.
    pub(crate) fn set_coeff(&mut self, i: u32, coeff: f64) {
        let m = &mut self.monos[i as usize];
        debug_assert!(m.coeff != 0.0 && coeff != 0.0, "a zero coefficient is shape");
        m.coeff = coeff;
    }

    /// Shape of the program.
    pub fn stats(&self) -> TapeStats {
        let mut by_arity = std::collections::BTreeMap::new();
        let mut sums = 0;
        for lv in &self.levels {
            if !lv.max2_out.is_empty() {
                *by_arity.entry(2).or_insert(0) += lv.max2_out.len();
            }
            for r in &lv.maxes {
                *by_arity.entry(r.arity as usize).or_insert(0) += 1;
            }
            sums += lv.sums.len();
        }
        TapeStats {
            monomials: self.monos.len(),
            distinct_exponent_vectors: self.exp_keys.len(),
            sums,
            maxes_by_arity: by_arity.into_iter().collect(),
            levels: self.levels.len(),
            slots: self.n_slots,
            weights: self.n_wts,
        }
    }

    /// Scalar forward sweep at the log-space point `x`: fills the
    /// variable cache, then records every op's value into
    /// `scratch.tape_vals` (root `r` at `[r]`) and every max's weights
    /// into `scratch.tape_wts`, level by level.
    pub(crate) fn forward(&self, x: &[f64], sharp: Sharpness, scratch: &mut EvalScratch) {
        debug_assert_eq!(x.len(), self.n_vars);
        scratch.ensure_tape(self);
        let smooth = matches!(sharp, Sharpness::Smooth(_));
        scratch.var_cache.fill(x, smooth && self.needs_halves);
        let exps_swept = if smooth { 0 } else { self.exp_keys.len() };
        scratch.counts.exp_calls += (x.len() + exps_swept) as u64;
        let EvalScratch { tape_vals: vals, tape_wts: wts, var_cache, exps, stack, .. } = scratch;
        if smooth {
            self.smooth_monomials(&var_cache.fac, vals);
        } else {
            // `coeff · exp(Σ a_j x_j)`, the sum in term order as the
            // tree walk takes it, the `exp` once per distinct vector.
            for (e, &(lo, hi)) in exps.iter_mut().zip(&self.exp_keys) {
                let dot: f64 = self.terms[lo as usize..hi as usize]
                    .iter()
                    .map(|&(j, a)| a * x[j as usize])
                    .sum();
                *e = dot.exp();
            }
            exps[self.exp_keys.len()] = 1.0;
            for m in &self.monos {
                vals[m.slot as usize] = m.coeff * exps[m.exp as usize];
            }
        }
        for lv in &self.levels {
            let base = lv.child_base as usize;
            let (outs, kids) = vals.split_at_mut(base);
            let n = lv.max2_out.len();
            if n > 0 {
                let (a, b) = kids[..2 * n].split_at(n);
                let (wa, wb) = wts[lv.w0 as usize..][..2 * n].split_at_mut(n);
                let staged = &mut stack[..n];
                match sharp {
                    Sharpness::Exact => max2_exact_rows(a, b, staged, wa, wb),
                    Sharpness::Smooth(s) => smax2_rows(s, a, b, staged, wa, wb),
                }
                for (&o, &v) in lv.max2_out.iter().zip(&*staged) {
                    outs[o as usize] = v;
                }
            }
            for r in &lv.maxes {
                let (c0, arity) = (r.c0 as usize - base, r.arity as usize);
                outs[r.out as usize] = smax_weights_fast(
                    &kids[c0..c0 + arity],
                    sharp,
                    &mut wts[r.w0 as usize..r.w0 as usize + arity],
                );
            }
            for r in &lv.sums {
                let c0 = r.c0 as usize - base;
                let mut s = 0.0;
                for &c in &kids[c0..c0 + r.arity as usize] {
                    s += c;
                }
                outs[r.out as usize] = s;
            }
        }
    }

    /// The monomial level of a smoothed sweep: `coeff · Π factors`,
    /// multiplied in term order, into every monomial's value slot.
    fn smooth_monomials(&self, fac: &[f64], vals: &mut [f64]) {
        for m in &self.monos {
            let mut out = m.coeff;
            for t in m.lo as usize..m.hi as usize {
                out *= match self.factor_row(t) {
                    Some(row) => fac[row],
                    None => {
                        let (j, a) = self.terms[t];
                        fac[j as usize].powf(a)
                    }
                };
            }
            vals[m.slot as usize] = out;
        }
    }

    /// Push the root adjoints the caller wrote into `adj[r]` down to
    /// every monomial's slot: a sum copies its adjoint to each child, a
    /// max scales it by the recorded weight — the same left-to-right
    /// products a post-order adjoint stack forms.
    pub(crate) fn push_adjoints(&self, adj: &mut [f64], wts: &[f64]) {
        for lv in self.levels.iter().rev() {
            let base = lv.child_base as usize;
            let (outs, kids) = adj.split_at_mut(base);
            let (n, w0) = (lv.max2_out.len(), lv.w0 as usize);
            for (i, &o) in lv.max2_out.iter().enumerate() {
                let a = outs[o as usize];
                kids[i] = a * wts[w0 + i];
                kids[n + i] = a * wts[w0 + n + i];
            }
            for r in &lv.maxes {
                let a = outs[r.out as usize];
                for t in 0..r.arity as usize {
                    kids[r.c0 as usize - base + t] = a * wts[r.w0 as usize + t];
                }
            }
            for r in &lv.sums {
                let a = outs[r.out as usize];
                kids[r.c0 as usize - base..][..r.arity as usize].fill(a);
            }
        }
    }

    /// Accumulate `adjoint · value · exponent` of the monomials in
    /// `range` (accumulation order) into `grad`, from the value and
    /// adjoint tapes.
    pub(crate) fn accumulate(
        &self,
        range: Range<usize>,
        vals: &[f64],
        adj: &[f64],
        grad: &mut [f64],
    ) {
        for m in &self.monos[range] {
            let av = adj[m.slot as usize] * vals[m.slot as usize];
            for &(j, e) in &self.terms[m.lo as usize..m.hi as usize] {
                grad[j as usize] += av * e;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::smax_weights;
    use proptest::prelude::*;

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

    /// One expression as a one-root program.
    fn single(e: &Expr, n_vars: usize) -> LevelProgram {
        LevelProgram::compile(n_vars, 1, [(0, e)])
    }

    /// Scalar record + replay of a one-root program: the value and
    /// `seed · ∇value`.
    fn sweep(
        prog: &LevelProgram,
        x: &[f64],
        sharp: Sharpness,
        seed: f64,
        scratch: &mut EvalScratch,
    ) -> (f64, Vec<f64>) {
        prog.forward(x, sharp, scratch);
        scratch.slot_adj[0] = seed;
        prog.push_adjoints(&mut scratch.slot_adj, &scratch.tape_wts);
        let mut grad = vec![0.0; x.len()];
        let all = prog.mono_range(0);
        prog.accumulate(all, &scratch.tape_vals, &scratch.slot_adj, &mut grad);
        (scratch.tape_vals[0], grad)
    }

    #[test]
    fn level_sweep_is_bitwise_identical_to_tree_at_exact() {
        let e = sample_expr();
        let prog = single(&e, 2);
        // Placed right to left: the root's last two children, a constant
        // and a ratio, come first, the four monomials under its `max` last.
        let coeffs: Vec<f64> = prog.monos.iter().map(|m| m.coeff).collect();
        assert_eq!(coeffs, [0.3, 1.0, 0.25, 0.5, 1.0, 2.0]);
        let mut scratch = EvalScratch::default();
        for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7], [2.0, -1.0]] {
            let v0 = e.eval(&x, Sharpness::Exact);
            let (v1, _) = sweep(&prog, &x, Sharpness::Exact, 1.0, &mut scratch);
            assert_eq!(v0.to_bits(), v1.to_bits(), "at {x:?}");
        }
    }

    #[test]
    fn level_sweep_matches_tree_at_smooth_to_rounding() {
        let e = sample_expr();
        let prog = single(&e, 2);
        let mut scratch = EvalScratch::default();
        for s in [4.0, 64.0, 256.0, 3.0, 3.7] {
            for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7]] {
                let v0 = e.eval(&x, Sharpness::Smooth(s));
                let (v1, _) = sweep(&prog, &x, Sharpness::Smooth(s), 1.0, &mut scratch);
                assert!(
                    (v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0),
                    "s={s} x={x:?}: {v0} vs {v1}"
                );
            }
        }
    }

    #[test]
    fn adjoint_sweep_matches_tree_gradient() {
        let e = sample_expr();
        let prog = single(&e, 2);
        let mut scratch = EvalScratch::default();
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0), Sharpness::Smooth(256.0)] {
            for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7], [2.0, -1.0]] {
                let mut g0 = vec![0.0; 2];
                let _ = e.eval_grad(&x, sharp, 1.7, &mut g0);
                let (_, g1) = sweep(&prog, &x, sharp, 1.7, &mut scratch);
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
    fn zero_seed_is_a_no_op() {
        let prog = single(&sample_expr(), 2);
        let mut scratch = EvalScratch::default();
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0)] {
            let (_, g) = sweep(&prog, &[1.0, 1.0], sharp, 0.0, &mut scratch);
            assert!(g.iter().all(|&v| v.to_bits() == 0), "{sharp:?}: {g:?}");
        }
    }

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

    #[test]
    fn cached_monomials_match_exp_path_with_half_exponents() {
        // ±0.5 exponents (the 2D mesh network terms) exercise the
        // square-root sections; an exotic exponent hits the powf
        // fallback. The tree evaluates `coeff · exp(Σ a·x)`.
        let e = Expr::sum(vec![
            Expr::Mono(Monomial::pair(3.0, 0, 0.5, 1, -0.5)),
            Expr::Mono(Monomial::single(1.5, 1, -0.5)),
            Expr::Mono(Monomial::single(0.5, 0, 2.0)),
        ]);
        let prog = single(&e, 2);
        assert!(prog.needs_halves);
        let mut scratch = EvalScratch::default();
        for x in [[0.0, 0.0], [1.3, -0.4], [2.0, 2.0]] {
            let sharp = Sharpness::Smooth(16.0);
            let v0 = e.eval(&x, sharp);
            let (v1, g1) = sweep(&prog, &x, sharp, 1.0, &mut scratch);
            assert!((v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0), "x={x:?}: {v0} vs {v1}");
            let mut g0 = vec![0.0; 2];
            let _ = e.eval_grad(&x, sharp, 1.0, &mut g0);
            for j in 0..2 {
                assert!((g0[j] - g1[j]).abs() <= 1e-9 * (1.0 + g0[j].abs()), "x={x:?} var {j}");
            }
        }
    }

    #[test]
    fn zero_expression_compiles_and_evaluates() {
        let prog = single(&Expr::zero(), 0);
        let mut scratch = EvalScratch::default();
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0)] {
            let (v, g) = sweep(&prog, &[], sharp, 1.0, &mut scratch);
            assert_eq!(v.to_bits(), 0);
            assert!(g.is_empty());
        }
    }

    /// Several roots, a replay order that is not the root order, a
    /// repeated exponent vector, a zero coefficient and empty `Sum` /
    /// `Max` nodes: root `r`'s value lands in slot `r`, the monomial
    /// table follows the replay order right to left, and an exact sweep
    /// needs one `exp` per distinct exponent vector.
    #[test]
    fn roots_replay_order_and_exponent_dedup() {
        let ratio = |c| Expr::Mono(Monomial::pair(c, 0, 1.0, 1, -1.0));
        let roots = [
            Expr::Sum(vec![ratio(2.0), Expr::constant(1.0), ratio(3.0)]),
            Expr::Mono(Monomial::single(0.0, 1, 1.0)),
            Expr::Max(vec![
                ratio(0.5),
                Expr::Mono(Monomial::single(4.0, 1, -1.0)),
                Expr::Sum(vec![]),
                Expr::Max(vec![]),
            ]),
        ];
        let prog = LevelProgram::compile(2, 3, [2, 0, 1].map(|r| (r, &roots[r])));
        let stats = prog.stats();
        assert_eq!(stats.monomials, 6);
        assert_eq!(stats.distinct_exponent_vectors, 2, "p0/p1 three times, 1/p1 once");
        assert_eq!(stats.sums, 2);
        assert_eq!(stats.maxes_by_arity, vec![(0, 1), (4, 1)]);
        assert_eq!(stats.levels, 2);
        assert_eq!(stats.slots, 6 + 2 + 2);
        assert_eq!(stats.weights, 4);
        assert_eq!(prog.mono_range(2), 0..2);
        assert_eq!(prog.mono_range(0), 2..5);
        assert_eq!(prog.mono_range(1), 5..6);
        // Right to left within a root: root 0's table reads 3, 1, 2.
        let coeffs: Vec<f64> = prog.monos[2..5].iter().map(|m| m.coeff).collect();
        assert_eq!(coeffs, [3.0, 1.0, 2.0]);
        // So a root's k-th monomial child is the k-th entry from the end of
        // its range (where the objective finds a node's cost terms); the
        // nested empty `Sum` / `Max` of root 2 place nothing.
        let from_end = |r: usize, k: usize| prog.monos[prog.mono_range(r).end - 1 - k].coeff;
        assert_eq!([from_end(0, 0), from_end(0, 1), from_end(0, 2)], [2.0, 1.0, 3.0]);
        assert_eq!(from_end(1, 0), 0.0);
        assert_eq!([from_end(2, 0), from_end(2, 1)], [0.5, 4.0]);
        let mut scratch = EvalScratch::default();
        let x = [0.4, 1.1];
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0)] {
            prog.forward(&x, sharp, &mut scratch);
            for (r, e) in roots.iter().enumerate() {
                let (v0, v1) = (e.eval(&x, sharp), scratch.tape_vals[r]);
                assert!((v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0), "{sharp:?} root {r}");
                if matches!(sharp, Sharpness::Exact) {
                    assert_eq!(v0.to_bits(), v1.to_bits(), "exact root {r}");
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

        /// The executor against the tree walk on trees of arbitrary
        /// shape, at five points each: exact values bitwise equal to
        /// `Expr::eval`, smooth values to 1e-12 and gradients to 1e-9
        /// against `Expr::eval_grad`.
        #[test]
        fn level_program_matches_tree_on_random_trees(seed in 0u64..1_000_000) {
            let mut state = seed;
            let e = random_tree(&mut state, 5);
            let prog = single(&e, TREE_VARS);
            let pts: Vec<Vec<f64>> = (0..5)
                .map(|_| {
                    (0..TREE_VARS).map(|_| (next(&mut state) % 4001) as f64 / 1000.0 - 2.0).collect()
                })
                .collect();
            let mut scratch = EvalScratch::default();
            let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * (1.0 + b.abs());
            for x in &pts {
                let (v, _) = sweep(&prog, x, Sharpness::Exact, 1.0, &mut scratch);
                prop_assert_eq!(v.to_bits(), e.eval(x, Sharpness::Exact).to_bits(), "exact at {:?}", x);
            }
            for s in [2.0, 8.0, 256.0, 3.0, 3.7] {
                let sharp = Sharpness::Smooth(s);
                for (l, x) in pts.iter().enumerate() {
                    let w = 0.5 + l as f64;
                    let mut g0 = vec![0.0; TREE_VARS];
                    let v0 = e.eval_grad(x, sharp, w, &mut g0);
                    let (v1, g1) = sweep(&prog, x, sharp, w, &mut scratch);
                    prop_assert!(close(v1, v0, 1e-12), "s={} value {} vs tree {}", s, v1, v0);
                    for j in 0..TREE_VARS {
                        prop_assert!(
                            close(g1[j], g0[j], 1e-9),
                            "s={} grad[{}] {} vs tree {}", s, j, g1[j], g0[j]
                        );
                    }
                }
            }
        }
    }
}
