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
//! * **level 0** is every monomial as one fixed-width row — coefficient,
//!   value slot and two factor rows into the [`VarCache`], a monomial of
//!   fewer terms padded with the cache's `1.0` row (every objective
//!   monomial has at most two) — stored in the order the backward pass
//!   accumulates them (below). A factor row also names its gradient
//!   term: row `4j + s` is variable `j` at the exponent
//!   `ROW_EXPONENTS[s]`. A monomial without terms (every `α·τ`, the
//!   constant candidate of every 1D startup max, a zero coefficient) is
//!   no row: it sits in a table of `(coefficient, slot)` pairs that the
//!   forward sweep stores and the backward pass never visits — on every
//!   `cm5` objective more than half of level 0;
//! * **level ℓ ≥ 1** is every `Sum`/`Max` whose deepest child sits at
//!   ℓ − 1, as homogeneous lists: the arity-2 maxes of a level (every
//!   `max` the objective builds) share one structure-of-arrays operand
//!   block — all first candidates, then all second candidates — so one
//!   elementwise kernel (`smax2_rows`) sweeps the level's independent
//!   chains at once; maxes of other arities go through
//!   `smax_weights_fast` on their contiguous child block, and every sum
//!   adds its block in child order.
//!
//! The forward sweep records every op's value and every `max`'s weights;
//! the backward sweep pushes a per-slot adjoint top-down (copy through a
//! sum, scale by the recorded weight through a max) and then accumulates
//! `adjoint · value · exponent` of every monomial into the gradient —
//! pure multiply-adds, no `exp`, no `powf`, no re-evaluation.
//!
//! This module holds the program, its compile and its executor: the
//! forward sweep (`LevelProgram::forward`) and the two backward passes
//! (`LevelProgram::push_adjoints`, `LevelProgram::accumulate`). Beside
//! them sit the smoothed-max kernels, those of the levels and the one
//! the objective's `C_p` recurrence sweeps each DAG depth with
//! (`smax_columns`), every one of them `smax_weights_fast` to the bit.
//!
//! Numerical contract. Every monomial, at every sharpness, is
//! `coeff · f_0 · f_1`, its factors `factor(exp(x_j), a_j)` read from
//! the variable cache and multiplied in term order (a padded factor is
//! the exact `1.0`, so a constant is its coefficient to the bit) — the
//! product [`Monomial::eval`] forms — so a sweep
//! calls `exp` once per variable and never per monomial. A sum adds its
//! children left to right; every accumulation keeps its order: the
//! monomial table is laid out in the order a post-order adjoint stack
//! reaches the monomials (roots in the caller's replay order, each
//! root's monomials right to left), so every `grad[j]` receives the same
//! addends in the same order (a padded term adds nothing); a zero adjoint
//! adds `±0.0`, which cannot change a sum that started at `+0.0`.
//! `crates/solver/tests/tape_bits.rs` pins the bits.
//!
//! At [`Sharpness::Exact`] the sweep is **bit-identical** to the tree
//! walk (same monomial product, same summation order, same first-argmax
//! tie-breaking), and so is a sweep at any sharpness of a tree without a
//! `max`. At `Smooth(s)` the power kernel of a `max` is repeated
//! squaring, so its values may differ from the tree's `powf` in the last
//! ulps; the property tests pin agreement at 1e-12 (values) and 1e-9
//! (gradients).

use crate::expr::{factor, Expr, Monomial, Sharpness};
use crate::workspace::EvalScratch;
use std::borrow::Borrow;
use std::ops::Range;

/// Per-sweep factors of every monomial at one point, filled once per
/// objective call: four entries per variable `j` — `fac[4j + s]` is
/// `e^{a·x_j}` for the exponent `a = ROW_EXPONENTS[s]` — then the padding
/// factor `1.0` at `4n`, then one `e^{a·x_j}` per term whose exponent is
/// none of those four (the objective builds none), so every monomial
/// term compiles to one row of `fac`. Every entry is `expr::factor` of
/// `fac[4j] = e^{x_j}`, which the objective's fused
/// `A_p = (1/p) Σ T_i e^{x_i}` also reads.
#[derive(Debug, Default)]
pub struct VarCache {
    pub(crate) fac: Vec<f64>,
}

/// The exponent of row `4j + s` of the [`VarCache`], by `s`.
const ROW_EXPONENTS: [f64; 4] = [1.0, -1.0, 0.5, -0.5];

impl VarCache {
    /// Fill for the point `xs` of `prog`: `exp` once per variable, the
    /// square roots only when some monomial carries a `±0.5` exponent.
    /// Capacity is retained across calls.
    pub(crate) fn fill(&mut self, xs: &[f64], prog: &LevelProgram) {
        let len = xs.len();
        self.fac.resize(4 * len + 1 + prog.powf.len(), 0.0);
        let (vars, rest) = self.fac.split_at_mut(4 * len);
        for (f, &x) in vars.chunks_exact_mut(4).zip(xs) {
            let e = x.exp();
            (f[0], f[1]) = (e, factor(e, -1.0));
            if prog.needs_halves {
                (f[2], f[3]) = (factor(e, 0.5), factor(e, -0.5));
            }
        }
        rest[0] = 1.0;
        for (f, &(j, a)) in rest[1..].iter_mut().zip(&prog.powf) {
            *f = factor(vars[4 * j as usize], a);
        }
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
pub(crate) struct Mono {
    pub(crate) coeff: f64,
    pub(crate) slot: u32,
    rows: [u32; 2],
}

/// A level-0 op without terms — an `α·τ`, the constant candidate of a 1D
/// startup max, a zero coefficient: `coeff` into `slot` at every point.
/// The forward sweep stores it (it is `coeff · 1.0 · 1.0` to the bit) and
/// the replay never reads it: it has no gradient term.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Const {
    pub(crate) coeff: f64,
    pub(crate) slot: u32,
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
    /// Level-0 ops, constants included.
    pub monomials: usize,
    /// Of those, the constants: the level-0 ops without terms.
    pub constants: usize,
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
    /// Monomials with at least one term, in backward-accumulation order.
    pub(crate) monos: Vec<Mono>,
    /// Level-0 ops without terms, in placement order.
    pub(crate) consts: Vec<Const>,
    /// `(variable, exponent)` of every term whose exponent is none of
    /// `±1`, `±0.5`: the `VarCache` entries past its `1.0`.
    powf: Vec<(u32, f64)>,
    /// Levels bottom-up (level 1 first).
    pub(crate) levels: Vec<Level>,
    /// Monomial-table range of each root.
    mono_ranges: Vec<(u32, u32)>,
    /// Where each root's constants end in `consts` (they start where the
    /// previously placed root's end).
    const_ends: Vec<u32>,
    /// Value slots: one per op.
    pub(crate) n_slots: usize,
    /// Weight slots: Σ arity over maxes.
    pub(crate) n_wts: usize,
    /// Widest arity-2 max list of any level (sizes the staging row).
    pub(crate) max2_width: usize,
    /// Whether any monomial carries a `±0.5` exponent (the 2D mesh's
    /// square-root network terms): whether `VarCache::fill` must
    /// fill the square roots.
    needs_halves: bool,
}

/// The four sections of a level's block of child slots, in slot order:
/// the first candidates of its arity-2 maxes, their second candidates,
/// the child blocks of its other maxes, the child blocks of its sums.
const MAX_KIDS: u32 = 2;
const SUM_KIDS: u32 = 3;
const SECTIONS: u32 = 4;

/// Section tag of an output slot that is final as placed: a root's.
const ROOT: u32 = u32::MAX;

/// Section tag of section `section` of level `level`'s child block.
fn tag(level: usize, section: u32) -> u32 {
    SECTIONS * (level as u32 - 1) + section
}

/// One level while the compile fills it: its ops, each beside the
/// section tag of its output slot, and the child slots its sums and its
/// maxes of other arities have taken. Until the relocation at the end every
/// slot reference counts from the start of its section: a child block's
/// `c0` / `w0` from its own level's, an output slot from the section its
/// tag names.
#[derive(Default)]
struct OpenLevel {
    /// Output slots of the arity-2 maxes.
    max2: Vec<(u32, u32)>,
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
    Const(usize),
    Max2(usize, usize),
    Max(usize, usize),
    Sum(usize, usize),
}

/// The compile's state between two roots.
struct Placer {
    prog: LevelProgram,
    open: Vec<OpenLevel>,
    /// Section tag of each monomial's and each constant's `slot` until
    /// the relocation.
    mono_tags: Vec<u32>,
    const_tags: Vec<u32>,
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
            Expr::Mono(m) => return (0, self.push_mono(m)),
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
                let i = lv.max2.len();
                lv.max2.push((0, ROOT));
                (Placed::Max2(level, i), 0, i as u32, true)
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
            Placed::Mono(i) => (&mut self.prog.monos[i].slot, &mut self.mono_tags[i]),
            Placed::Const(i) => (&mut self.prog.consts[i].slot, &mut self.const_tags[i]),
            Placed::Max2(l, i) => {
                let (out, tag_of) = &mut self.open[l - 1].max2[i];
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

    /// Append `m` to the monomial table, or to the constants when it has
    /// no terms. A zero coefficient compiles to the constant `+0.0`: it
    /// evaluates to `0.0` whatever the point and contributes nothing to
    /// any gradient, as `Monomial::eval` has it.
    ///
    /// # Panics
    /// If `m` has more than two terms.
    fn push_mono(&mut self, m: &Monomial) -> Placed {
        let p = &mut self.prog;
        if m.coeff() == 0.0 || m.exps().is_empty() {
            let coeff = if m.coeff() == 0.0 { 0.0 } else { m.coeff() };
            p.consts.push(Const { coeff, slot: 0 });
            self.const_tags.push(ROOT);
            return Placed::Const(p.consts.len() - 1);
        }
        let n = p.n_vars as u32;
        let exps = m.exps();
        assert!(exps.len() <= 2, "a monomial of at most two terms, got {}", exps.len());
        let mut mono = Mono { coeff: m.coeff(), slot: 0, rows: [4 * n; 2] };
        for (k, &(j, a)) in exps.iter().enumerate() {
            let j = j as u32;
            // The `VarCache` row of `factor(e_j, a)`.
            mono.rows[k] = match ROW_EXPONENTS.iter().position(|&b| b == a) {
                Some(s) => 4 * j + s as u32,
                None => {
                    p.powf.push((j, a));
                    4 * n + p.powf.len() as u32
                }
            };
            p.needs_halves |= a == 0.5 || a == -0.5;
        }
        p.monos.push(mono);
        self.mono_tags.push(ROOT);
        Placed::Mono(p.monos.len() - 1)
    }
}

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
    /// If `roots` names a root out of range, twice, or not at all, or a
    /// monomial has more than two terms.
    pub fn compile<E: Borrow<Expr>>(
        n_vars: usize,
        n_roots: usize,
        roots: impl IntoIterator<Item = (usize, E)>,
    ) -> LevelProgram {
        const UNPLACED: (u32, u32) = (u32::MAX, u32::MAX);
        let prog = LevelProgram {
            n_vars,
            monos: Vec::new(),
            consts: Vec::new(),
            powf: Vec::new(),
            levels: Vec::new(),
            mono_ranges: vec![UNPLACED; n_roots],
            const_ends: vec![0; n_roots],
            n_slots: 0,
            n_wts: 0,
            max2_width: 0,
            needs_halves: false,
        };
        let mut placer = Placer {
            prog,
            open: Vec::new(),
            mono_tags: Vec::new(),
            const_tags: Vec::new(),
            kids: Vec::new(),
        };

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
            placer.prog.const_ends[r] = placer.prog.consts.len() as u32;
        }
        assert!(!placer.prog.mono_ranges.contains(&UNPLACED), "every root must be named");

        // Relocation, top level first: the roots' slots, then one block
        // of child slots per level from the top down, each block its four
        // sections in order, `base[tag]` the first slot of section `tag`.
        // A level's outputs lie in the blocks above it.
        let Placer { mut prog, open, mono_tags, const_tags, .. } = placer;
        let (mut slot, mut w) = (n_roots as u32, 0_u32);
        let mut base = vec![0_u32; SECTIONS as usize * open.len()];
        let at =
            |base: &[u32], tag, local| if tag == ROOT { local } else { base[tag as usize] + local };
        for (l, lv) in open.into_iter().enumerate().rev() {
            let n2 = lv.max2.len() as u32;
            let kids = slot + 2 * n2;
            let sections = [slot, slot + n2, kids, kids + lv.max_kids];
            base[SECTIONS as usize * l..][..SECTIONS as usize].copy_from_slice(&sections);
            let max2_out = lv.max2.iter().map(|&(o, t)| at(&base, t, o)).collect();
            let relocate = |ops: &[(Reduce, u32)], c0: u32, w0: u32| {
                let op = |&(r, t): &(Reduce, u32)| Reduce {
                    out: at(&base, t, r.out),
                    c0: r.c0 + c0,
                    w0: r.w0 + w0,
                    ..r
                };
                ops.iter().map(op).collect()
            };
            let maxes = relocate(&lv.maxes, sections[MAX_KIDS as usize], w + 2 * n2);
            let sums = relocate(&lv.sums, sections[SUM_KIDS as usize], 0);
            prog.levels.push(Level { child_base: slot, max2_out, w0: w, maxes, sums });
            prog.max2_width = prog.max2_width.max(n2 as usize);
            slot = kids + lv.max_kids + lv.sum_kids;
            w += 2 * n2 + lv.max_kids;
        }
        prog.levels.reverse();
        (prog.n_slots, prog.n_wts) = (slot as usize, w as usize);
        for (m, &t) in prog.monos.iter_mut().zip(&mono_tags) {
            m.slot = at(&base, t, m.slot);
        }
        for (c, &t) in prog.consts.iter_mut().zip(&const_tags) {
            c.slot = at(&base, t, c.slot);
        }
        prog.monos.shrink_to_fit();
        prog.consts.shrink_to_fit();
        prog.powf.shrink_to_fit();
        prog
    }

    /// Range of root `r`'s monomials in the accumulation order.
    pub(crate) fn mono_range(&self, r: usize) -> Range<usize> {
        let (lo, hi) = self.mono_ranges[r];
        lo as usize..hi as usize
    }

    /// Where root `r`'s constants end in the constant table: its last
    /// placed (its first child's, the compile going right to left) is at
    /// `const_end(r) - 1`.
    pub(crate) fn const_end(&self, r: usize) -> usize {
        self.const_ends[r] as usize
    }

    /// The `(variable, exponent)` terms of table entry `i`, padding
    /// dropped, read off its rows as `accumulate` reads them.
    #[cfg(test)]
    pub(crate) fn terms(&self, i: usize) -> Vec<(u32, f64)> {
        let one = 4 * self.n_vars as u32;
        let term = |r| {
            if r < one {
                (r / 4, ROW_EXPONENTS[r as usize % 4])
            } else {
                self.powf[(r - one - 1) as usize]
            }
        };
        self.monos[i].rows.into_iter().filter(|&r| r != one).map(term).collect()
    }

    /// Overwrite the coefficient of monomial-table entry `i`, one
    /// non-zero value for another: a zero coefficient compiles to a
    /// constant without terms (`Placer::push_mono`), so whether it is zero
    /// is part of the program's shape and not a value to write.
    pub(crate) fn set_coeff(&mut self, i: u32, coeff: f64) {
        let m = &mut self.monos[i as usize];
        debug_assert!(m.coeff != 0.0 && coeff != 0.0, "a zero coefficient is shape");
        m.coeff = coeff;
    }

    /// [`LevelProgram::set_coeff`] for constant `i`.
    pub(crate) fn set_const(&mut self, i: u32, coeff: f64) {
        let c = &mut self.consts[i as usize];
        debug_assert!(c.coeff != 0.0 && coeff != 0.0, "a zero coefficient is shape");
        c.coeff = coeff;
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
            monomials: self.monos.len() + self.consts.len(),
            constants: self.consts.len(),
            sums,
            maxes_by_arity: by_arity.into_iter().collect(),
            levels: self.levels.len(),
            slots: self.n_slots,
            weights: self.n_wts,
        }
    }

    /// Forward sweep at the log-space point `x`: fills the variable
    /// cache, then records every op's value into `scratch.tape_vals`
    /// (root `r` at `[r]`) and every max's weights into
    /// `scratch.tape_wts`, level by level. The monomial level is the same
    /// at every sharpness; only the maxes read `sharp`.
    pub(crate) fn forward(&self, x: &[f64], sharp: Sharpness, scratch: &mut EvalScratch) {
        debug_assert_eq!(x.len(), self.n_vars);
        scratch.ensure_tape(self);
        scratch.var_cache.fill(x, self);
        scratch.counts.exp_calls += x.len() as u64;
        let EvalScratch { tape_vals: vals, tape_wts: wts, var_cache, stack, .. } = scratch;
        let fac = &var_cache.fac;
        for c in &self.consts {
            vals[c.slot as usize] = c.coeff;
        }
        for m in &self.monos {
            vals[m.slot as usize] = m.coeff * fac[m.rows[0] as usize] * fac[m.rows[1] as usize];
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
        let one = 4 * self.n_vars as u32;
        for m in &self.monos[range] {
            let av = adj[m.slot as usize] * vals[m.slot as usize];
            // Row `4j + s` is the term `(j, ROW_EXPONENTS[s])`, the rows
            // past the padding row `one` the exotic terms in `powf`.
            for r in m.rows {
                if r < one {
                    grad[(r / 4) as usize] += av * ROW_EXPONENTS[(r % 4) as usize];
                } else if r > one {
                    let (j, a) = self.powf[(r - one - 1) as usize];
                    grad[j as usize] += av * a;
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

    /// The sample tree: exact values bitwise equal to the tree walk's,
    /// smooth ones to 1e-12.
    #[test]
    fn level_sweep_matches_the_tree_walk() {
        let e = sample_expr();
        let prog = single(&e, 2);
        // Placed right to left: the root's last two children, a constant
        // and a ratio, come first, the four monomials under its `max` last;
        // the two constants go to their own table.
        let coeffs: Vec<f64> = prog.monos.iter().map(|m| m.coeff).collect();
        assert_eq!(coeffs, [1.0, 0.5, 1.0, 2.0]);
        let consts: Vec<f64> = prog.consts.iter().map(|c| c.coeff).collect();
        assert_eq!(consts, [0.3, 0.25]);
        let mut scratch = EvalScratch::default();
        let sharps = [4.0, 64.0, 256.0, 3.0, 3.7].map(Sharpness::Smooth);
        for sharp in sharps.into_iter().chain([Sharpness::Exact]) {
            for x in [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.7], [2.0, -1.0]] {
                let v0 = e.eval(&x, sharp);
                let (v1, _) = sweep(&prog, &x, sharp, 1.0, &mut scratch);
                let tol = if sharp == Sharpness::Exact { 0.0 } else { 1e-12 };
                assert!((v0 - v1).abs() <= tol * v0.abs().max(1.0), "{sharp:?} {x:?}: {v0} {v1}");
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
        let n = g.node_count();
        let roots = (0..n).map(|v| (v, obj.node_expr(paradigm_mdg::NodeId(v))));
        let edges = g.edges().map(|(e, _)| (n + e.0, obj.edge_expr(e)));
        let prog = LevelProgram::compile(n, n + g.edge_count(), roots.chain(edges));
        let mut scratch = EvalScratch::default();
        prog.forward(&vec![0.0; n], Sharpness::Exact, &mut scratch);
        let mut ties = 0;
        for lv in &prog.levels {
            let (k, w) = (lv.max2_out.len(), lv.w0 as usize);
            let cands = &scratch.tape_vals[lv.child_base as usize..][..2 * k];
            let wts = &scratch.tape_wts[w..w + 2 * k];
            for i in 0..k {
                assert_eq!(cands[i].to_bits(), cands[k + i].to_bits(), "max {i}");
                assert_eq!((wts[i], wts[k + i]), (1.0, 0.0), "max {i}");
                ties += 1;
            }
        }
        assert!(ties > 0, "cmm has 1D transfers");
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

    /// Several roots, a replay order that is not the root order, a zero
    /// coefficient and empty `Sum` / `Max` nodes: root `r`'s value lands
    /// in slot `r`, the monomial table follows the replay order right to
    /// left with every row padded to two terms, the constants (the zero
    /// coefficient among them) sit in their own table in placement order,
    /// and a sweep, exact or smooth, calls `exp` once per variable.
    #[test]
    fn roots_replay_order_and_padding() {
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
        assert_eq!((stats.monomials, stats.constants), (6, 2));
        assert_eq!(stats.sums, 2);
        assert_eq!(stats.maxes_by_arity, vec![(0, 1), (4, 1)]);
        assert_eq!(stats.levels, 2);
        assert_eq!(stats.slots, 6 + 2 + 2);
        assert_eq!(stats.weights, 4);
        assert_eq!(prog.mono_range(2), 0..2);
        assert_eq!(prog.mono_range(0), 2..4);
        assert_eq!(prog.mono_range(1), 4..4);
        assert_eq!([prog.const_end(2), prog.const_end(0), prog.const_end(1)], [0, 1, 2]);
        // Right to left within a root: root 0's table reads 3, 2, and its
        // constant 1 is the constant table's first entry.
        let coeffs: Vec<f64> = prog.monos[2..4].iter().map(|m| m.coeff).collect();
        assert_eq!(coeffs, [3.0, 2.0]);
        let consts: Vec<f64> = prog.consts.iter().map(|c| c.coeff).collect();
        assert_eq!(consts, [1.0, 0.0]);
        // So a root's k-th monomial child is the k-th entry from the end of
        // its range (where the objective finds a node's cost terms); the
        // nested empty `Sum` / `Max` of root 2 place nothing.
        let from_end = |r: usize, k: usize| prog.monos[prog.mono_range(r).end - 1 - k].coeff;
        assert_eq!([from_end(0, 0), from_end(0, 1)], [2.0, 3.0]);
        assert_eq!([from_end(2, 0), from_end(2, 1)], [0.5, 4.0]);
        // Two terms or one: every row pads to two factors on the `1.0`
        // row, `4n`; variable `j`'s factor at exponent −1 is row `4j + 1`.
        assert_eq!(prog.terms(2), [(0, 1.0), (1, -1.0)]);
        assert_eq!(prog.terms(0), [(1, -1.0)]);
        let one = 4 * 2;
        assert_eq!(prog.monos[0].rows, [4 + 1, one]);
        let mut scratch = EvalScratch::default();
        let x = [0.4, 1.1];
        for sharp in [Sharpness::Exact, Sharpness::Smooth(8.0)] {
            let before = scratch.counts;
            prog.forward(&x, sharp, &mut scratch);
            assert_eq!(scratch.counts.since(before).exp_calls, 2, "{sharp:?}");
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
    /// Without `maxes` every inner node is a `Sum`.
    fn random_tree(state: &mut u64, depth: usize, maxes: bool) -> Expr {
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
        let kids = (0..arity).map(|_| random_tree(state, depth - 1, maxes)).collect();
        if pick & 1 == 0 || !maxes {
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
        /// against `Expr::eval_grad`. Then a second tree without a `max`
        /// (no `powf` kernel on either side): its values bitwise equal to
        /// `Expr::eval` at every sharpness, one monomial formula on both.
        #[test]
        fn level_program_matches_tree_on_random_trees(seed in 0u64..1_000_000) {
            let mut state = seed;
            let e = random_tree(&mut state, 5, true);
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
            let e = random_tree(&mut state, 5, false);
            let prog = single(&e, TREE_VARS);
            let sharps = [2.0, 8.0, 256.0, 3.0, 3.7].map(Sharpness::Smooth);
            for sharp in sharps.into_iter().chain([Sharpness::Exact]) {
                for x in &pts {
                    let (v, v0) = (sweep(&prog, x, sharp, 1.0, &mut scratch).0, e.eval(x, sharp));
                    prop_assert_eq!(v.to_bits(), v0.to_bits(), "max-free {:?} at {:?}", sharp, x);
                }
            }
        }
    }
}
