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
//! What a sweep scratch holds follows the level program
//! ([`crate::compiled`]): one value per slot, one weight per `max`
//! candidate, one adjoint per slot, the exact sweep's per-vector `exp`
//! table, the variable cache, and one staging row that serves the
//! arity-2 kernel's outputs and the DAG recurrence's candidate lists in
//! turn. These tapes only ever grow — each sweep overwrites every slot
//! it later reads, so a pooled scratch that alternates between
//! objectives (ADMM blocks) is sized once, by the largest, and never
//! zeroed. The per-node and per-edge DAG buffers are fitted and zeroed
//! per sweep.
//!
//! Beside the sweep scratch a workspace owns a dense gradient pair and
//! the descent stage's [`DescentState`], as disjoint fields: a descent
//! model borrows the scratch and a gradient buffer while the stage holds
//! the iterate ([`SolverWorkspace::split`]).
//!
//! Workspaces are checked out of one small global pool
//! ([`acquire`]/[`PooledWorkspace`]) so long-lived callers — the serving
//! layer's worker threads, ADMM block backends — reuse warm buffers
//! across solves instead of re-growing them. The pool is deliberately
//! simple: a mutex-guarded free list capped at [`POOL_CAP`] entries;
//! contention is one lock per *solve start*, not per iteration, so it
//! never shows up in profiles.

use crate::compiled::{LevelProgram, VarCache};
use crate::descent::DescentState;
use paradigm_race::plock;
use paradigm_race::sync::atomic::{AtomicU64, Ordering};
use paradigm_race::sync::Mutex;
use std::ops::{Deref, DerefMut};

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
    /// `exp` calls of the forward sweeps: one per variable per point for
    /// the variable cache plus, on an exact sweep, one per distinct
    /// exponent vector of the program.
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
    /// Staging row: the outputs of one level's arity-2 maxes before
    /// they scatter to their slots, then the per-node candidate lists of
    /// the DAG recurrence.
    pub(crate) stack: Vec<f64>,
    /// Per-slot values of the objective's level program, recorded by the
    /// forward sweep (root `r` at `[r]`) and read by the backward one.
    pub(crate) tape_vals: Vec<f64>,
    /// Per-`max` gradient weights of the level program; same lifecycle
    /// as `tape_vals`.
    pub(crate) tape_wts: Vec<f64>,
    /// Per-slot adjoints of the backward sweep.
    pub(crate) slot_adj: Vec<f64>,
    /// `exp(Σ a_j x_j)` per distinct exponent vector of an exact sweep.
    pub(crate) exps: Vec<f64>,
    /// Per-variable `exp(x_j)` caches filled once per sweep (see
    /// [`VarCache`]).
    pub(crate) var_cache: VarCache,
}

/// Resize `v` to `len` zeros, capacity retained.
fn fit(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

/// Grow `v` to at least `len` entries. The sweeps overwrite every slot
/// they later read, so nothing is zeroed and a pooled scratch that
/// alternates between objectives is sized once, by the largest.
fn grow(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

impl EvalScratch {
    /// The value of every op of the level program the last sweep ran
    /// here (root `r` at `[r]`: node `v`'s `T` at `[v]`, edge `e`'s `t^D`
    /// at `[nodes + e]`; a pooled scratch may hold a larger program's
    /// tail beyond them). The ADMM coordinator's global sweep reads its
    /// per-node and per-edge values here, and tests hold two sweeps
    /// equal slot by slot.
    pub fn tape_values(&self) -> &[f64] {
        &self.tape_vals
    }

    /// Resize the DAG buffers for a graph with `nodes` nodes and `edges`
    /// edges and zero them, and make the staging row hold the candidates
    /// and weights of a node with `max_in` in-edges. Capacity is
    /// retained, so repeated calls at the same (or smaller) size
    /// allocate nothing.
    pub(crate) fn ensure(&mut self, nodes: usize, edges: usize, max_in: usize) {
        fit(&mut self.y, nodes);
        fit(&mut self.adjoint, nodes);
        fit(&mut self.tape_w, edges);
        grow(&mut self.stack, 2 * max_in);
    }

    /// Size the tapes and the staging row for `prog`.
    pub(crate) fn ensure_tape(&mut self, prog: &LevelProgram) {
        grow(&mut self.tape_vals, prog.n_slots);
        grow(&mut self.tape_wts, prog.n_wts);
        grow(&mut self.slot_adj, prog.n_slots);
        grow(&mut self.exps, prog.exp_keys.len() + 1);
        grow(&mut self.stack, prog.max2_width);
    }
}

/// Preallocated buffers for one solver thread: the objective's
/// [`EvalScratch`], the dense `∇A_p` / `∇C_p` pair of the two-seed caller
/// (the stationarity residual; the ADMM block model borrows the first of
/// the pair for its one full-length gradient), and the descent stage's
/// state.
///
/// Construct one directly for a dedicated thread, or [`acquire`] a
/// pooled one; pass it by `&mut` to `descend_stage`, or `.scratch` to the
/// `*_with` entry points on [`crate::MdgObjective`].
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Objective sweep buffers (public so callers holding their own
    /// gradient vectors can use the `*_with` objective entry points).
    pub scratch: EvalScratch,
    /// Dense gradient of `A_p` (stationarity residual); the ADMM block
    /// model's gradient over all of a block's variables.
    pub(crate) grad_a: Vec<f64>,
    /// Dense gradient of `C_p` (stationarity residual).
    pub(crate) grad_c: Vec<f64>,
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
        (&mut self.scratch, &mut self.grad_a, &mut self.descent)
    }
}

/// Upper bound on pooled idle workspaces; beyond this, released
/// workspaces are simply dropped. Sized for a serving layer running a
/// few dozen workers, not for unbounded retention.
const POOL_CAP: usize = 64;

static POOL: Mutex<Vec<SolverWorkspace>> = Mutex::new(Vec::new());
static ACQUIRES: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);

/// A workspace checked out of the global pool; returned on drop.
#[derive(Debug)]
pub struct PooledWorkspace {
    ws: Option<SolverWorkspace>,
}

impl Deref for PooledWorkspace {
    type Target = SolverWorkspace;
    fn deref(&self) -> &SolverWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for PooledWorkspace {
    fn deref_mut(&mut self) -> &mut SolverWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            let mut pool = plock(&POOL);
            if pool.len() < POOL_CAP {
                pool.push(ws);
            }
        }
    }
}

/// Check a workspace out of the global pool (creating a cold one when
/// the pool is empty). The warm buffers inside survive across acquire /
/// release cycles, which is what makes repeat solves — e.g. the serving
/// layer's workers answering cache misses — allocation-free after the
/// first request at a given graph size.
pub fn acquire() -> PooledWorkspace {
    ACQUIRES.fetch_add(1, Ordering::Relaxed);
    let ws = {
        let mut pool = plock(&POOL);
        pool.pop()
    };
    let ws = match ws {
        Some(w) => {
            REUSES.fetch_add(1, Ordering::Relaxed);
            w
        }
        None => SolverWorkspace::new(),
    };
    PooledWorkspace { ws: Some(ws) }
}

/// Summed [`SweepCounts`] of the workspaces idle in the pool right now.
/// With no solve in flight that is every pooled workspace, so the
/// difference of two calls around a solve is that solve's count — how
/// the benches read the loops' counters without the solver threading
/// them through its results.
pub fn pool_sweep_counts() -> SweepCounts {
    let mut total = SweepCounts::default();
    for ws in plock(&POOL).iter() {
        let c = ws.scratch.counts;
        total.forward_sweeps += c.forward_sweeps;
        total.backward_sweeps += c.backward_sweeps;
        total.probes += c.probes;
        total.gradients += c.gradients;
        total.exp_calls += c.exp_calls;
        total.tape_builds += c.tape_builds;
    }
    total
}

/// Lifetime counters of the global pool: `(acquires, reuses)`. A reuse
/// is an acquire satisfied by a previously released (warm) workspace.
/// Exposed so the serving layer can report how often its workers hit
/// warm buffers.
pub fn pool_counters() -> (u64, u64) {
    (ACQUIRES.load(Ordering::Relaxed), REUSES.load(Ordering::Relaxed))
}

/// Drop every pooled workspace and zero the counters. The pool is
/// process-global; the model checker re-runs a closure under many
/// schedules and needs each run to start from the identical empty pool,
/// so its suites call this at the top of every execution. Harmless (but
/// pointless) anywhere else.
#[doc(hidden)]
pub fn reset_pool() {
    plock(&POOL).clear();
    ACQUIRES.store(0, Ordering::Relaxed);
    REUSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_workspaces() {
        let (a0, _) = pool_counters();
        {
            let mut ws = acquire();
            ws.scratch.ensure(8, 12, 3);
            assert_eq!(ws.scratch.y.len(), 8);
            assert_eq!(ws.scratch.tape_w.len(), 12);
        }
        // The released workspace (or another thread's) comes back warm.
        let ws = acquire();
        let (a1, r1) = pool_counters();
        assert!(a1 >= a0 + 2);
        assert!(r1 >= 1, "second acquire should reuse a released workspace");
        drop(ws);
    }

    #[test]
    fn ensure_is_exact_and_idempotent() {
        let mut s = EvalScratch::default();
        s.ensure(5, 7, 2);
        s.adjoint[3] = 1.0;
        s.ensure(5, 7, 2);
        assert_eq!(s.adjoint[3], 0.0, "ensure re-zeroes sweep buffers");
        s.ensure(2, 3, 2);
        assert_eq!(s.y.len(), 2);
        assert_eq!(s.tape_w.len(), 3);
    }
}
