//! Reusable solver scratch memory.
//!
//! Every hot entry point of the solver — the objective's forward/backward
//! sweeps, the projected-gradient descent loop, coordinate descent's
//! golden-section evaluations — works out of a [`SolverWorkspace`]: a set
//! of preallocated buffers sized for one (MDG, machine) objective. After
//! the first call at a given graph size ("warm-up"), no code path that
//! holds a workspace performs any heap allocation per iteration; the
//! `alloc_free` integration test asserts this with a counting allocator.
//!
//! A forward sweep is two passes. The level program (`compiled.rs`)
//! evaluates every node's `T_v` and, on a machine with `t_n > 0`, every
//! edge's `t^D_e` (with `t_n = 0` each is zero and none is compiled).
//! Then the `C_p` recurrence runs one DAG depth at a time: each depth's
//! in-edge candidates are gathered column by column and one batched
//! smoothed-max kernel sweeps them all, since no node of a depth reads
//! another's finish time. `A_p` is summed in topological order beside it.
//!
//! What a sweep scratch holds follows those passes: one value per slot,
//! one weight per startup-max candidate, one adjoint per slot, the
//! variable cache, and one staging row that serves the startup maxes'
//! outputs and one depth's candidates, weights and kernel rows in turn. These
//! tapes and the per-node and per-edge DAG buffers only ever grow — each
//! sweep overwrites every entry it later reads (the backward replay
//! zeroes its own node adjoints), so a scratch that alternates between
//! objectives (ADMM blocks, a serving worker's solves) is sized once, by
//! the largest, and never zeroed.
//!
//! Beside the sweep scratch a workspace owns a dense gradient and the
//! descent stage's [`DescentState`], as disjoint fields: a descent
//! model borrows the scratch and a gradient buffer while the stage holds
//! the iterate ([`SolverWorkspace::split`]).
//!
//! A workspace belongs to its caller, who passes it by `&mut` into every
//! solve it runs: [`crate::try_allocate_from`] solves on the caller's
//! workspace, [`crate::try_allocate`] on a fresh one. A long-lived caller
//! — a serving worker thread — keeps one for its whole life and reuses
//! its warm buffers across solves instead of re-growing them. Nothing is
//! shared between threads, so the solver holds no global state and a
//! workspace needs no lock. A solve that panics leaves its workspace as
//! reusable as one that returned, since every sweep overwrites what it
//! later reads.

use crate::compiled::VarCache;
use crate::descent::DescentState;

/// Lifetime work counters of one sweep scratch: plain integers bumped
/// in passing (a scratch has one owner at a time), free unless read.
/// The benches gate on `forward_sweeps <= probes`: a loop that re-sweeps
/// its accepted point reads `forward_sweeps = probes + iterations`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepCounts {
    /// Points swept forward, recording or value-only.
    pub forward_sweeps: u64,
    /// Backward tape replays, counted the same way.
    pub backward_sweeps: u64,
    /// Points a descent loop evaluated through this scratch: every
    /// line-search probe plus each stage's start.
    pub probes: u64,
    /// Points a descent loop took the gradient at: each stage's start
    /// and every accepted step. `backward_sweeps == gradients` over a
    /// solve says no model replayed a point twice.
    pub gradients: u64,
    /// `exp` calls of the forward sweeps: one per variable per point,
    /// the variable cache, exact or smooth.
    pub exp_calls: u64,
    /// Objectives a caller that carries them compiled for this scratch:
    /// the ADMM block solves that were handed no tape, or one of another
    /// shape. (One-shot builds — a dense solve's — are not counted.)
    pub tape_builds: u64,
}

impl SweepCounts {
    /// Counts accumulated since the `earlier` snapshot.
    pub fn since(self, earlier: SweepCounts) -> SweepCounts {
        SweepCounts {
            forward_sweeps: self.forward_sweeps.saturating_sub(earlier.forward_sweeps),
            backward_sweeps: self.backward_sweeps.saturating_sub(earlier.backward_sweeps),
            probes: self.probes.saturating_sub(earlier.probes),
            gradients: self.gradients.saturating_sub(earlier.gradients),
            exp_calls: self.exp_calls.saturating_sub(earlier.exp_calls),
            tape_builds: self.tape_builds.saturating_sub(earlier.tape_builds),
        }
    }
}

impl std::ops::AddAssign for SweepCounts {
    /// Sum the counts of two scratches (an ADMM solve's blocks and its
    /// coordinator).
    fn add_assign(&mut self, c: SweepCounts) {
        self.forward_sweeps += c.forward_sweeps;
        self.backward_sweeps += c.backward_sweeps;
        self.probes += c.probes;
        self.gradients += c.gradients;
        self.exp_calls += c.exp_calls;
        self.tape_builds += c.tape_builds;
    }
}

/// Sweep buffers for one objective evaluation (forward value sweep,
/// smax-weight tape, backward adjoint sweep, and the shared value stack
/// that replaces per-node candidate `Vec`s).
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Sweep and probe counters.
    pub counts: SweepCounts,
    /// Replay validity: the tapes below belong to the last point
    /// `forward_record` swept on this scratch. Cleared by `eval_with`,
    /// asserted by `backward_replay`.
    pub(crate) recorded: bool,
    /// `(c_seed, area_seed)` = `(∂Φ/∂C_p, ∂Φ/∂A_p)` at the recorded point.
    pub(crate) phi_seeds: (f64, f64),
    /// Per-node finish times `y_v` of the forward `C_p` sweep.
    pub(crate) y: Vec<f64>,
    /// Per-node adjoints of the backward sweep (`∂Φ/∂y_v`).
    pub(crate) adjoint: Vec<f64>,
    /// Per-edge `smax` weight recorded by the forward sweep (the tape;
    /// each edge is an in-edge of exactly one node, so edge id is a
    /// collision-free index).
    pub(crate) tape_w: Vec<f64>,
    /// Staging row: the outputs of the startup maxes before they
    /// scatter to their slots, then one DAG depth's candidates, weights,
    /// starts and kernel rows.
    pub(crate) stack: Vec<f64>,
    /// Per-slot values of the objective's level program, recorded by the
    /// forward sweep (root `r` at `[r]`) and read by the backward one.
    pub(crate) tape_vals: Vec<f64>,
    /// Per-startup-max gradient weights of the level program; same
    /// lifecycle as `tape_vals`.
    pub(crate) tape_wts: Vec<f64>,
    /// Per-slot adjoints of the backward sweep.
    pub(crate) slot_adj: Vec<f64>,
    /// Per-variable `exp(x_j)` caches filled once per sweep (see
    /// `VarCache`).
    pub(crate) var_cache: VarCache,
}

/// Grow `v` to at least `len` entries. The sweeps overwrite every slot
/// they later read, so nothing is zeroed and a scratch that alternates
/// between objectives is sized once, by the largest.
fn grow(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

impl EvalScratch {
    /// The value of every op of the level program the last sweep ran
    /// here (root `r` at `[r]`: node `v`'s `T` at `[v]`; a reused scratch
    /// may hold a larger program's tail beyond the program's slots). Edge
    /// roots exist only on a machine with `t_n > 0`: read a swept edge's
    /// `t^D` through `MdgObjective::swept_edge_delay`. The ADMM
    /// coordinator's global sweep reads its per-node values here, and
    /// tests hold two sweeps equal slot by slot.
    pub fn tape_values(&self) -> &[f64] {
        &self.tape_vals
    }

    /// Grow the DAG buffers to a graph with `nodes` nodes and `edges`
    /// edges, and the staging row to `staging` entries (what the widest
    /// DAG depth needs). Nothing is zeroed: the forward sweep writes
    /// every `y[v]` and `tape_w[e]` before it reads them, and the
    /// backward replay zeroes the adjoints it reads.
    pub(crate) fn ensure(&mut self, nodes: usize, edges: usize, staging: usize) {
        grow(&mut self.y, nodes);
        grow(&mut self.adjoint, nodes);
        grow(&mut self.tape_w, edges);
        grow(&mut self.stack, staging);
    }

    /// Size the tapes and the staging row for a level program of
    /// `slots` value slots and `maxes` startup maxes.
    pub(crate) fn ensure_tape(&mut self, slots: usize, maxes: usize) {
        grow(&mut self.tape_vals, slots);
        grow(&mut self.tape_wts, 2 * maxes);
        grow(&mut self.slot_adj, slots);
        grow(&mut self.stack, maxes);
    }
}

/// Preallocated buffers for one solver thread: the objective's
/// [`EvalScratch`], one dense gradient (the ADMM block model's
/// full-length one), and the descent stage's state.
///
/// Its caller owns it: pass it by `&mut` to [`crate::try_allocate_from`]
/// or `descend_stage`, or `.scratch` to the `*_with` entry points on
/// [`crate::MdgObjective`].
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Objective sweep buffers (public so callers holding their own
    /// gradient vectors can use the `*_with` objective entry points).
    pub scratch: EvalScratch,
    /// The ADMM block model's gradient over all of a block's variables.
    grad: Vec<f64>,
    /// The descent stage's iterate, gradient, trial, step, flag and
    /// quasi-Newton pairs — the only descent buffers.
    pub descent: DescentState,
}

/// The name the repo benchmark's lane probe (`benchmark/src/layers.rs`,
/// `solver.eval_grad_batch8_us`) constructs its workspace under; nobody
/// else's. Goes with that probe in the next `benchmark`-only PR.
#[doc(hidden)]
pub type BatchWorkspace = SolverWorkspace;

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use and are then
    /// retained across calls.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Split borrow for a descent: the sweep scratch and one gradient
    /// buffer (which keeps its capacity across calls) for the model, the
    /// descent state for the stage.
    pub fn split(&mut self) -> (&mut EvalScratch, &mut Vec<f64>, &mut DescentState) {
        (&mut self.scratch, &mut self.grad, &mut self.descent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_only_grows() {
        let mut s = EvalScratch::default();
        s.ensure(5, 7, 4);
        assert_eq!((s.y.len(), s.adjoint.len(), s.tape_w.len(), s.stack.len()), (5, 5, 7, 4));
        s.adjoint[3] = 1.0;
        s.ensure(2, 3, 1);
        assert_eq!(s.adjoint[3], 1.0, "ensure leaves what the sweeps overwrite");
        assert_eq!((s.y.len(), s.tape_w.len()), (5, 7));
        s.ensure(9, 3, 1);
        assert_eq!((s.y.len(), s.adjoint.len()), (9, 9));
    }
}
