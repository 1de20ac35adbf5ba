//! Projected descent solver for the allocation convex program.
//!
//! The objective is convex in `x = ln p` over the box `[0, ln p]^n`
//! (see [`crate::objective`]), so a projected descent method with an
//! Armijo backtracking line search converges to the global minimum of the
//! smoothed objective from any start; annealing the max-sharpness upward
//! then drives the smoothed optimum onto the exact one. One start — the
//! midpoint of the box — is therefore all a solve runs: each smooth stage
//! descends along a limited-memory quasi-Newton direction until its
//! projected gradient is stationary ([`QN_MEMORY`]; [`STATIONARITY_TOL`]
//! at the top of the ladder, [`WARM_TOL`] on the rungs that only seed the
//! next), and an exact-max projected-subgradient polish ends the solve
//! once it stalls (`Stall`). A smooth rung at most `CARRY_RATIO` = 4×
//! sharper than the one below opens with that rung's quasi-Newton pairs
//! instead of relearning them from a gradient step — every rung of
//! [`SolverConfig::default`], none of [`SolverConfig::fast`]'s 8× step;
//! every other stage starts from an empty ring.
//!
//! Every stage is a call of [`crate::descent::descend`] (DESIGN.md §7
//! has what each caller passes and the measurements behind one start).

use crate::descent::{descend, DescentModel, DescentState, Stage};
use crate::error::{FallbackTier, SolverError};
use crate::expr::Sharpness;
use crate::objective::MdgObjective;
use crate::workspace::{EvalScratch, SolverWorkspace, SweepCounts};
use paradigm_cost::{Allocation, Machine, MdgWeights, PhiBreakdown};
use paradigm_mdg::Mdg;

/// Solver tuning knobs. The defaults solve every workload in this
/// repository to well under 1 % of the brute-force oracle. A solve has no
/// watchdog: it is bounded by its stage caps — one stage per sharpness
/// plus the exact polish, each at most `max_iters_per_stage` iterations
/// of at most 40 probes.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Increasing p-norm sharpness stages; a final exact-max polish stage
    /// is always appended.
    pub sharpness_schedule: Vec<f64>,
    /// Iteration cap of each stage.
    pub max_iters_per_stage: usize,
    /// Stop a stage when an accepted step improves `Phi` by less than
    /// this relative amount.
    pub rel_tol: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            sharpness_schedule: vec![4.0, 16.0, 64.0, 256.0],
            max_iters_per_stage: 400,
            rel_tol: 1e-10,
        }
    }
}

impl SolverConfig {
    /// The two-rung ladder [8, 64] at 150 iterations a stage: the
    /// ladder of `SolveSpec::new`, so of every served request and of the
    /// benchmark's `compile-large`. Its one 8× step is wider than
    /// `CARRY_RATIO`, so its top rung relearns its curvature from a
    /// gradient step: carried there, the pairs bought no iterations
    /// (DESIGN.md §7).
    pub fn fast() -> Self {
        SolverConfig {
            sharpness_schedule: vec![8.0, 64.0],
            max_iters_per_stage: 150,
            ..SolverConfig::default()
        }
    }
}

/// The outcome of one allocation solve.
#[derive(Debug, Clone)]
pub struct AllocationResult {
    /// The continuous allocation found.
    pub alloc: Allocation,
    /// Exact (true-max) objective breakdown at `alloc`; `phi.phi` is the
    /// paper's `Phi` — the optimum finish time lower bound.
    pub phi: PhiBreakdown,
    /// Total descent iterations across all stages.
    pub iterations: usize,
    /// Number of starts descended: 1 (0 for the analytic equal split).
    pub starts: usize,
    /// Which tier produced this result: [`FallbackTier::Primary`] from
    /// [`try_allocate`], [`FallbackTier::EqualSplit`] from
    /// [`equal_split_allocation`].
    pub tier: FallbackTier,
}

/// The annealing parameters every descent caller takes from outside —
/// [`try_allocate`]'s config, an ADMM block job off the wire — checked
/// by one rule: each smoothing sharpness finite and ≥ 1 (below 1 the
/// p-norm is no upper bound of the max; negative, it is a soft *min*),
/// the relative tolerance finite and ≥ 0.
pub fn check_annealing(stages: &[f64], rel_tol: f64) -> Result<(), String> {
    if let Some(s) = stages.iter().find(|s| !s.is_finite() || **s < 1.0) {
        return Err(format!("sharpness {s} must be finite and >= 1"));
    }
    if !rel_tol.is_finite() || rel_tol < 0.0 {
        return Err(format!("relative tolerance {rel_tol} must be finite and >= 0"));
    }
    Ok(())
}

/// Solve the allocation problem for `g` on `machine`.
///
/// ```
/// use paradigm_mdg::example_fig1_mdg;
/// use paradigm_cost::Machine;
/// use paradigm_solver::{allocate, SolverConfig};
///
/// let g = example_fig1_mdg();
/// let res = allocate(&g, Machine::cm5(4), &SolverConfig::default());
/// // The paper's mixed schedule achieves 14.3 s; the continuous optimum
/// // can only be at least as good.
/// assert!(res.phi.phi <= 14.3 + 1e-9);
/// ```
///
/// # Panics
/// Panics if [`try_allocate`] would return an error; callers that need
/// to survive bad inputs should use [`try_allocate`] instead.
pub fn allocate(g: &Mdg, machine: Machine, cfg: &SolverConfig) -> AllocationResult {
    try_allocate(g, machine, cfg).unwrap_or_else(|e| panic!("allocation solve failed: {e}"))
}

/// Fallible [`allocate`]: validates the configuration and the objective,
/// and returns a typed [`SolverError`] instead of panicking — including
/// [`SolverError::NonFinite`] when the solve ends on a non-finite `Phi`.
/// The solve is [`try_allocate_from`] the [`midpoint`] on a fresh
/// workspace.
pub fn try_allocate(
    g: &Mdg,
    machine: Machine,
    cfg: &SolverConfig,
) -> Result<AllocationResult, SolverError> {
    try_allocate_from(&mut SolverWorkspace::new(), g, machine, cfg, &midpoint(g, machine))
}

/// The start every solve of the pipeline runs from: the midpoint of the
/// box, `x = ln p / 2` per node — not a corner: from `x = 0` every
/// `max(p_i, p_j)` of the transfer costs ties, and an exact-only schedule
/// stalls on the tie.
pub fn midpoint(g: &Mdg, machine: Machine) -> Vec<f64> {
    vec![(machine.procs.max(1) as f64).ln() / 2.0; g.node_count()]
}

/// [`try_allocate`] from the caller's start `x0` (`x = ln p` per node,
/// inside the box `[0, ln p]^n`; the START and STOP entries are pinned to
/// 0 whatever they hold) on the caller's workspace `ws`: every stage of
/// the sharpness ladder, then the exact polish. A warm `ws` saves only
/// the growing of its buffers, never a bit of the result, and its
/// [`SweepCounts`] add up this solve's sweeps. The program is convex, so
/// the start moves the answer only by what the stages leave unconverged —
/// the start-independence test (`tests/one_start.rs`) measures exactly
/// that through this entry point.
pub fn try_allocate_from(
    ws: &mut SolverWorkspace,
    g: &Mdg,
    machine: Machine,
    cfg: &SolverConfig,
    x0: &[f64],
) -> Result<AllocationResult, SolverError> {
    check_annealing(&cfg.sharpness_schedule, cfg.rel_tol).map_err(SolverError::InvalidConfig)?;
    let obj = MdgObjective::try_new(g, machine).map_err(SolverError::BadObjective)?;
    let ub = obj.x_upper();
    if x0.len() != obj.num_vars() {
        return Err(SolverError::InvalidConfig(format!(
            "start has {} entries for {} variables",
            x0.len(),
            obj.num_vars()
        )));
    }
    if let Some(v) = x0.iter().find(|v| !(0.0..=ub).contains(*v)) {
        return Err(SolverError::InvalidConfig(format!("start entry {v} is outside [0, {ub}]")));
    }

    let mut stages = cfg.sharpness_schedule.clone();
    stages.sort_by(f64::total_cmp);
    let dense = DenseStages { obj: &obj, max_iters: cfg.max_iters_per_stage, rel_tol: cfg.rel_tol };
    let SolverWorkspace { scratch, descent, .. } = ws;
    // Structural variables pinned to ln 1 = 0 (they never appear in the
    // objective, but a clean value keeps reports readable).
    let mut x = x0.to_vec();
    x[g.start().0] = 0.0;
    x[g.stop().0] = 0.0;
    descent.load(&x);
    let mut iterations = 0;
    let sharps = stages.iter().map(|&s| Sharpness::Smooth(s)).chain([Sharpness::Exact]);
    let mut below = None;
    for (rung, sharp) in sharps.enumerate() {
        // A rung below the top only seeds the next one: it stops early.
        let gtol = if rung + 1 < stages.len() { WARM_TOL } else { STATIONARITY_TOL };
        let carry = matches!((below, sharp), (Some(Sharpness::Smooth(b)), Sharpness::Smooth(s))
            if s <= CARRY_RATIO * b);
        let mut model = ScalarTape { obj: &obj, sharp, scratch: &mut *scratch };
        iterations += dense.run(&mut model, descent, gtol, carry);
        below = Some(sharp);
    }
    let alloc = obj.allocation_from_x(descent.x());

    let phi = obj.exact_phi(&alloc);
    if !phi.phi.is_finite() {
        return Err(SolverError::NonFinite { phi: phi.phi });
    }
    Ok(AllocationResult { alloc, phi, iterations, starts: 1, tier: FallbackTier::Primary })
}

/// The analytic allocation that gives each of the `m` compute nodes
/// `clamp(p/m, 1, p)` processors. Needs no optimization at all, so it
/// cannot fail — the service's answer of last resort.
pub fn equal_split_allocation(g: &Mdg, machine: Machine) -> AllocationResult {
    let p = (machine.procs.max(1)) as f64;
    let m = g.compute_node_count().max(1) as f64;
    let share = (p / m).clamp(1.0, p);
    let mut alloc = Allocation::uniform(g, share);
    alloc.set(g.start(), 1.0);
    alloc.set(g.stop(), 1.0);
    // Score with the exact ground-truth evaluator directly (it never
    // asserts on cost values, unlike the symbolic objective builder).
    let phi = MdgWeights::compute(g, &machine, &alloc).phi(g);
    AllocationResult { alloc, phi, iterations: 0, starts: 0, tier: FallbackTier::EqualSplit }
}

/// First-order stationarity residual for the minimax program
/// `min max(A_p, C_p)` over the box `[0, ln p]^n`.
///
/// A point is stationary iff some convex combination
/// `lambda ∇A_p + (1 - lambda) ∇C_p` (with `lambda` supported on the
/// *active* pieces) lies in the normal cone of the box. The residual
/// scans `lambda` over a grid, projects each combined gradient onto the
/// feasible directions (per variable: interior -> `|g|`, lower bound ->
/// `max(0, -g)`, upper bound -> `max(0, g)`) and returns the smallest
/// infinity norm found, normalized by `Phi`. Zero certifies stationarity
/// — and by convexity, global optimality.
pub fn optimality_residual(obj: &MdgObjective<'_>, x: &[f64], sharp: Sharpness) -> f64 {
    let ub = obj.x_upper();
    let (parts, grad_a, grad_c) = obj.eval_grad_parts(x, sharp);
    // Admissible multipliers: only active pieces may carry weight. A
    // piece is "active" within a small relative band of the max.
    let tol = 1e-6 * parts.phi.abs().max(f64::MIN_POSITIVE);
    let a_active = parts.a_p >= parts.phi - tol.max(1e-3 * parts.phi);
    let c_active = parts.c_p >= parts.phi - tol.max(1e-3 * parts.phi);
    let lambdas: Vec<f64> = match (a_active, c_active) {
        (true, false) => vec![1.0],
        (false, true) => vec![0.0],
        // Both active (the kink) or numerically ambiguous: scan.
        _ => (0..=100).map(|k| k as f64 / 100.0).collect(),
    };
    let start = obj.graph().start().0;
    let stop = obj.graph().stop().0;
    let mut best = f64::INFINITY;
    for lambda in lambdas {
        let mut worst = 0.0_f64;
        for j in 0..x.len() {
            if j == start || j == stop {
                continue;
            }
            let gj = lambda * grad_a[j] + (1.0 - lambda) * grad_c[j];
            let v = if x[j] <= 1e-12 {
                (-gj).max(0.0)
            } else if x[j] >= ub - 1e-12 {
                gj.max(0.0)
            } else {
                gj.abs()
            };
            worst = worst.max(v);
        }
        best = best.min(worst);
    }
    best / parts.phi.abs().max(f64::MIN_POSITIVE)
}

/// The dense objective on the scalar tape.
struct ScalarTape<'a, 'g> {
    obj: &'a MdgObjective<'g>,
    sharp: Sharpness,
    scratch: &'a mut EvalScratch,
}

impl DescentModel for ScalarTape<'_, '_> {
    fn probe(&mut self, x: &[f64]) -> f64 {
        self.obj.forward_record(x, self.sharp, self.scratch).phi
    }
    fn replay(&mut self, _x: &[f64], grad: &mut Vec<f64>) {
        self.obj.backward_replay_phi(self.scratch, grad);
    }
    fn counts(&mut self) -> &mut SweepCounts {
        &mut self.scratch.counts
    }
}

/// Pairs a smooth dense stage builds its quasi-Newton direction from, and
/// the relative projected-gradient norm the ladder's top rung stops on.
/// Constants, not knobs: 4 / 8 / 16 pairs and tolerances from 1e-5 to
/// 1e-8 move the benchmark's solve times by ≤ 20 % and its Φ geomeans by
/// < 1e-4 (DESIGN.md §7).
pub const QN_MEMORY: usize = 8;
/// See [`QN_MEMORY`].
pub const STATIONARITY_TOL: f64 = 1e-6;
/// The relative projected-gradient norm a smooth rung below the top of
/// the ladder stops on. Such a rung only seeds the next one, whose
/// optimum lies a smoothing error (≈ ln k / s) away, so converging it
/// further buys nothing the next rung keeps. 1e-4 saves less; 1e-2 gives
/// strassen at p = 64 +0.28 % Φ under `fast()` (DESIGN.md §7).
pub const WARM_TOL: f64 = 1e-3;

/// The largest sharpness step up the ladder across which a smooth rung
/// opens with the rung below's quasi-Newton pairs
/// ([`DescentState::reset_carrying_pairs`]) instead of relearning them
/// from a gradient step: `default()`'s 4× rungs carry, `fast()`'s 8× step
/// does not — carried there, it bought no iterations and moved
/// `compile-large`'s p90 up 9–12 % (DESIGN.md §7).
const CARRY_RATIO: f64 = 4.0;

/// Accepted steps the exact polish's stall window spans: the stage ends
/// once the last this many together gained less than [`STALL_TOL`] of Φ
/// while the step no longer grows ([`Stall`]). 3 / 5 / 8 steps and 1e-7 …
/// 1e-5 were swept (DESIGN.md §7).
const STALL_STEPS: usize = 5;
/// See [`STALL_STEPS`].
const STALL_TOL: f64 = 1e-6;

/// The exact polish's stall stop, asked after every accepted step. A
/// projected subgradient on a kink creeps on in tiny steps long after it
/// has stopped paying; a step that grows, though, is a kink escape under
/// way (strassen at p = 64 grows it ×1.8 for 25 iterations to unlock
/// 0.28 % of Φ), so the window never ends a stage whose latest move is
/// longer than the one before. A fixed ring: the stage still allocates
/// nothing.
#[derive(Debug, Default)]
struct Stall {
    /// Φ after each of the last [`STALL_STEPS`] accepted steps; the slot
    /// `accepted % STALL_STEPS` holds the oldest.
    f: [f64; STALL_STEPS],
    accepted: usize,
    /// ∞-norm of the previous accepted step.
    moved: f64,
}

impl Stall {
    /// Enter an accepted step — the new value `f` and the ∞-norm of the
    /// move — and say whether the stage has stalled:
    /// `f ≥ f_{STALL_STEPS steps ago}·(1 − STALL_TOL)` and the move no
    /// longer than the previous one.
    fn stalled(&mut self, f: f64, moved: f64) -> bool {
        let slot = self.accepted % STALL_STEPS;
        let (oldest, growing) = (self.f[slot], moved > self.moved);
        self.f[slot] = f;
        self.moved = moved;
        self.accepted += 1;
        self.accepted > STALL_STEPS && !growing && f >= oldest * (1.0 - STALL_TOL)
    }
}

/// What every dense stage shares: all variables free in `[0, ln p]^n`,
/// 40 probes per line search, the dense stop rule, and searches that end
/// on the convexity certificate ([`Stage::certify`]) — Φ and every
/// smoothed Φ_s are convex and the iterate never leaves the box, so once
/// two failed trials prove no shorter one can pass (the exact polish's
/// last search on a kink), the remaining halvings are not swept. With
/// every variable free, the two-loop reads the cached pair products over
/// contiguous rows.
struct DenseStages<'a, 'g> {
    obj: &'a MdgObjective<'g>,
    max_iters: usize,
    rel_tol: f64,
}

impl DenseStages<'_, '_> {
    /// One stage of `model` from the point loaded in `descent`, from
    /// step 0.25: quasi-Newton to the relative stationarity `gtol` at a
    /// smooth sharpness — opening over the last stage's pairs when
    /// `carry`, from an empty ring otherwise; projected subgradient at the
    /// exact max, which has no curvature to learn (and ignores `gtol` and
    /// `carry`), until it stalls ([`Stall`]). Any stage also ends on a
    /// step that improves by at most `rel_tol` while barely moving, a dead
    /// end or the cap. Returns the iterations.
    fn run(
        &self,
        model: &mut ScalarTape<'_, '_>,
        descent: &mut DescentState,
        gtol: f64,
        carry: bool,
    ) -> usize {
        if carry {
            descent.reset_carrying_pairs();
        } else {
            descent.reset();
        }
        let (memory, gtol) = match model.sharp {
            Sharpness::Smooth(_) => (QN_MEMORY, gtol),
            Sharpness::Exact => (0, 0.0),
        };
        let stage = Stage {
            free: None,
            ub: self.obj.x_upper(),
            max_iters: self.max_iters,
            max_probes: 40,
            memory,
            gtol,
            certify: true,
        };
        let rel_tol = self.rel_tol;
        let mut stall = matches!(model.sharp, Sharpness::Exact).then(Stall::default);
        descend(model, descent, &stage, |improve, f, moved| {
            let stalled = stall.as_mut().is_some_and(|stall| stall.stalled(f, moved));
            let spent =
                improve <= rel_tol * f.abs() && (moved < 1e-12 || (improve >= 0.0 && moved < 1e-9));
            stalled || spent
        })
    }
}

/// One dense stage of the scalar tape on `x`, at one fixed sharpness, out
/// of the caller's workspace.
///
/// A smooth stage runs at the top rung's tolerance, [`STATIONARITY_TOL`],
/// so a ladder of these calls is the all-1e-6 solve that [`WARM_TOL`]
/// loosened; an exact stage is the solve's polish, stall stop included.
/// Used by the integration tests (to count allocations per iteration and
/// rebuild that ladder); the solver proper goes through [`try_allocate`].
pub fn descend_stage(
    obj: &MdgObjective<'_>,
    x: &mut [f64],
    sharp: Sharpness,
    max_iters: usize,
    rel_tol: f64,
    ws: &mut SolverWorkspace,
) -> usize {
    let SolverWorkspace { scratch, descent, .. } = ws;
    descent.load(x);
    let mut model = ScalarTape { obj, sharp, scratch };
    let dense = DenseStages { obj, max_iters, rel_tol };
    let iters = dense.run(&mut model, descent, STATIONARITY_TOL, false);
    x.copy_from_slice(descent.x());
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force_pow2;
    use crate::error::{FallbackTier, SolverError};
    use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, random_layered_mdg, strassen_mdg, KernelCostTable,
        NodeId, RandomMdgConfig,
    };

    /// `Stall::stalled` over `(f, moved)` pairs, one verdict per step.
    fn stall_verdicts(steps: impl IntoIterator<Item = (f64, f64)>) -> Vec<bool> {
        let mut stall = Stall::default();
        steps.into_iter().map(|(f, moved)| stall.stalled(f, moved)).collect()
    }

    #[test]
    fn the_stall_window_never_fires_before_it_is_full() {
        // Not one bit of gain and a shrinking step: stalled on every count
        // but the window's, which needs STALL_STEPS steps behind the
        // latest.
        let flat = (0..STALL_STEPS + 1).map(|k| (1.0, 1e-3 / (k + 1) as f64));
        let verdicts = stall_verdicts(flat);
        assert_eq!(verdicts[..STALL_STEPS], [false; STALL_STEPS]);
        assert!(verdicts[STALL_STEPS], "the first full window");
    }

    #[test]
    fn the_stall_window_fires_on_a_small_gain_and_a_step_that_stopped_growing() {
        // Each step gains a fixed share of Φ at an unchanged move: 1e-7 per
        // step is 5e-7 over the window, 3e-7 is 1.5e-6.
        let creep = |gain: f64| (0..3 * STALL_STEPS).map(move |k| (1.0 - gain * k as f64, 1e-4));
        let slow = stall_verdicts(creep(1e-7));
        assert_eq!(slow.iter().position(|&v| v), Some(STALL_STEPS), "{slow:?}");
        assert!(stall_verdicts(creep(3e-7)).iter().all(|&v| !v), "1.5e-6 per window pays");
        // A shrinking step stalls as well as a constant one.
        let shrinking =
            (0..3 * STALL_STEPS).map(|k| (1.0 - 1e-7 * k as f64, 0.5_f64.powi(k as i32)));
        assert_eq!(stall_verdicts(shrinking).iter().position(|&v| v), Some(STALL_STEPS));
    }

    #[test]
    fn the_stall_window_never_fires_while_the_step_grows() {
        // The kink escape of strassen at p = 64 under `fast()`: the polish
        // has backtracked to t = 1.07e-7 and then grows the step ×1.8 on
        // every accepted step for 25 iterations (1.07e-7, 1.93e-7,
        // 3.48e-7, …), gaining almost nothing per window until the escape
        // unlocks 0.28 % of Φ.
        let t = |k: usize| 1.074e-7 * 1.8_f64.powi(k as i32);
        let escape = (0..25).map(|k| (0.1007 * (1.0 - 1e-9 * k as f64), t(k)));
        let verdicts = stall_verdicts(escape.clone());
        assert!(verdicts.iter().all(|&v| !v), "{verdicts:?}");
        // The same values, with the step held where it got to, stall.
        let held = escape.chain((25..30).map(|k| (0.1007 * (1.0 - 1e-9 * k as f64), t(24))));
        assert_eq!(stall_verdicts(held).iter().position(|&v| v), Some(25));
    }

    #[test]
    fn fig1_solver_matches_paper_optimum() {
        let g = example_fig1_mdg();
        let res = allocate(&g, Machine::cm5(4), &SolverConfig::default());
        // Mixed power-of-two allocation achieves 14.3 s; the continuous
        // optimum can only be <= that, and the naive 15.6 s must be beaten.
        assert!(res.phi.phi <= 14.3 + 1e-6, "Phi = {}", res.phi.phi);
        assert!(res.phi.phi > 12.0, "Phi suspiciously low: {}", res.phi.phi);
        // N1 should get (near) the whole machine.
        assert!(res.alloc.get(NodeId(1)) > 3.0);
    }

    #[test]
    fn solver_at_least_as_good_as_pow2_oracle_fig1() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let oracle = brute_force_pow2(&g, m, usize::MAX).expect("small graph");
        let res = allocate(&g, m, &SolverConfig::default());
        assert!(
            res.phi.phi <= oracle.phi.phi * (1.0 + 1e-9),
            "continuous optimum {} must be <= pow2 optimum {}",
            res.phi.phi,
            oracle.phi.phi
        );
        // And the pow2 optimum is the paper's mixed schedule: 14.3 s.
        assert!((oracle.phi.phi - 14.3).abs() < 1e-9);
    }

    #[test]
    fn solver_close_to_oracle_on_random_graphs() {
        let cfg =
            RandomMdgConfig { layers: 3, width_min: 1, width_max: 2, ..RandomMdgConfig::default() };
        let m = Machine::cm5(8);
        for seed in 0..5 {
            let g = random_layered_mdg(&cfg, seed);
            if g.compute_node_count() > 6 {
                continue;
            }
            let oracle = brute_force_pow2(&g, m, usize::MAX).expect("small graph");
            let res = allocate(&g, m, &SolverConfig::default());
            assert!(
                res.phi.phi <= oracle.phi.phi * 1.0 + 1e-9,
                "seed {seed}: solver {} vs oracle {}",
                res.phi.phi,
                oracle.phi.phi
            );
        }
    }

    #[test]
    fn solver_beats_naive_on_cmm() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = allocate(&g, m, &SolverConfig::default());
        let naive = MdgObjective::new(&g, m).exact_phi(&Allocation::uniform(&g, 16.0));
        assert!(res.phi.phi < naive.phi, "solver {} vs naive {}", res.phi.phi, naive.phi);
    }

    #[test]
    fn solver_handles_strassen_at_all_paper_sizes() {
        let g = strassen_mdg(128, &KernelCostTable::cm5());
        for p in [16, 32, 64] {
            let res = allocate(&g, Machine::cm5(p), &SolverConfig::default());
            assert!(res.phi.phi > 0.0 && res.phi.phi.is_finite());
            // Allocation within bounds.
            for (id, _) in g.nodes() {
                let q = res.alloc.get(id);
                assert!((1.0..=p as f64 + 1e-9).contains(&q));
            }
        }
    }

    #[test]
    fn phi_decreases_with_machine_size_cmm() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let cfg = SolverConfig::default();
        let phi16 = allocate(&g, Machine::cm5(16), &cfg).phi.phi;
        let phi32 = allocate(&g, Machine::cm5(32), &cfg).phi.phi;
        let phi64 = allocate(&g, Machine::cm5(64), &cfg).phi.phi;
        assert!(phi32 <= phi16 * 1.001, "{phi32} vs {phi16}");
        assert!(phi64 <= phi32 * 1.001, "{phi64} vs {phi32}");
    }

    #[test]
    fn residual_separates_solution_from_bad_points() {
        // At the solver's solution the point typically sits on the
        // A_p = C_p kink, where the *smoothed* gradient does not vanish
        // exactly — so the diagnostic is comparative: the residual at
        // the solution must be far below the residual at bad points.
        // Moderate smoothing is the diagnostic's operating point: sharp
        // enough to approximate the exact objective, soft enough that the
        // inner DAG max-kinks keep usable gradients.
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = allocate(&g, m, &SolverConfig::default());
        let obj = MdgObjective::new(&g, m);
        let sharp = crate::expr::Sharpness::Smooth(64.0);
        let x_sol: Vec<f64> = g.nodes().map(|(id, _)| res.alloc.get(id).ln()).collect();
        let r_sol = optimality_residual(&obj, &x_sol, sharp);
        let r_ones = optimality_residual(&obj, &vec![0.0; g.node_count()], sharp);
        let r_allp = optimality_residual(&obj, &vec![obj.x_upper(); g.node_count()], sharp);
        assert!(r_sol < 0.01, "solution residual {r_sol}");
        assert!(r_ones > 10.0 * r_sol, "all-ones residual {r_ones} vs solution {r_sol}");
        assert!(r_allp > 10.0 * r_sol, "all-p residual {r_allp} vs solution {r_sol}");
    }

    #[test]
    fn invalid_annealing_is_a_typed_error() {
        let g = example_fig1_mdg();
        let bad = [
            SolverConfig { sharpness_schedule: vec![f64::NAN], ..SolverConfig::fast() },
            SolverConfig { sharpness_schedule: vec![8.0, 0.5], ..SolverConfig::fast() },
            SolverConfig { sharpness_schedule: vec![-4.0], ..SolverConfig::fast() },
            SolverConfig { rel_tol: -1.0, ..SolverConfig::fast() },
        ];
        for cfg in bad {
            let err = try_allocate(&g, Machine::cm5(4), &cfg).unwrap_err();
            assert!(matches!(err, SolverError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn bad_machine_is_a_typed_error() {
        let g = example_fig1_mdg();
        let mut m = Machine::cm5(4);
        m.xfer.t_ss = f64::NAN;
        let err = try_allocate(&g, m, &SolverConfig::fast()).unwrap_err();
        assert!(matches!(err, SolverError::BadObjective(_)), "{err}");
    }

    #[test]
    fn equal_split_is_feasible_and_finite() {
        let g = example_fig1_mdg();
        let r = equal_split_allocation(&g, Machine::cm5(4));
        assert_eq!(r.tier, FallbackTier::EqualSplit);
        assert!(r.phi.phi.is_finite() && r.phi.phi > 0.0);
        // 3 compute nodes on 4 procs: everyone gets floor-ish p/m >= 1.
        assert!((r.alloc.get(NodeId(1)) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.alloc.get(g.start()), 1.0);
    }

    #[test]
    fn fast_config_is_still_reasonable() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let full = allocate(&g, m, &SolverConfig::default());
        let fast = allocate(&g, m, &SolverConfig::fast());
        assert!(
            fast.phi.phi <= full.phi.phi * 1.05,
            "fast {} vs full {}",
            fast.phi.phi,
            full.phi.phi
        );
    }
}
