//! Post-PSA allocation refinement.
//!
//! The PSA schedules a *fixed* (rounded, bounded) allocation; Table 3 of
//! the paper shows the resulting `T_psa` can sit 6–16 % above `Φ`
//! because the convex program's averaged view doesn't see scheduling
//! gaps. This pass closes part of that gap with a greedy hill-climb in
//! the discrete allocation space the PSA actually uses: repeatedly try
//! doubling or halving the processor count of nodes on the *weighted
//! critical path* of the current schedule's MDG, keep any move that
//! shortens `T_psa`, and stop when no single move helps.
//!
//! Every trial is a full PSA run (cheap — the scheduler is linear-ish),
//! so the result is always a valid schedule with the same Theorem-1
//! guarantees as the starting point.

use crate::psa::{psa_schedule, PsaConfig, PsaResult};
use crate::schedule::Schedule;
use paradigm_cost::Machine;
use paradigm_mdg::{Mdg, NodeKind};

/// Maximum hill-climb rounds.
const MAX_ROUNDS: usize = 12;
/// Keep a move only if it improves `T_psa` by at least this factor.
const MIN_IMPROVEMENT: f64 = 1e-6;

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineResult {
    /// The best PSA result found (>= as good as the input).
    pub best: PsaResult,
    /// `T_psa` before refinement.
    pub initial_t_psa: f64,
    /// Accepted moves, as `(node index, old procs, new procs)`.
    pub moves: Vec<(usize, u32, u32)>,
    /// Total PSA trials evaluated.
    pub trials: usize,
}

impl RefineResult {
    /// Relative improvement `1 - best/initial` (0 when nothing helped).
    pub fn improvement(&self) -> f64 {
        1.0 - self.best.t_psa / self.initial_t_psa
    }
}

/// Refine a PSA result by greedy reallocation of critical-path nodes.
/// The returned schedule always respects the same `PB` bound.
pub fn refine_allocation(g: &Mdg, machine: Machine, start: &PsaResult) -> RefineResult {
    let pb = start.pb;
    let psa_cfg = PsaConfig { pb: Some(pb), skip_rounding: true, ..PsaConfig::default() };
    let mut best = start.clone();
    let mut moves = Vec::new();
    let mut trials = 0usize;

    for _ in 0..MAX_ROUNDS {
        // Candidates: compute nodes on the weighted critical path of the
        // current allocation (they bound the makespan from below), plus
        // the last-finishing task (which bounds it from above).
        let weights = &best.weights;
        let mut candidates: Vec<usize> = g
            .nodes()
            .filter(|(id, n)| {
                n.kind == NodeKind::Compute
                    && paradigm_mdg::validate::on_critical_path(
                        g,
                        *id,
                        |v| weights.node_weight(v),
                        |e| weights.edge_weight(e),
                        1e-9 * best.t_psa.max(1e-12),
                    )
            })
            .map(|(id, _)| id.0)
            .collect();
        if let Some(last) = last_finishing_compute(&best.schedule, g) {
            if !candidates.contains(&last) {
                candidates.push(last);
            }
        }

        let mut round_best: Option<(PsaResult, usize, u32, u32)> = None;
        for &node in &candidates {
            let cur = best.bounded.as_u32(paradigm_mdg::NodeId(node));
            let mut trial_sizes = Vec::new();
            if cur * 2 <= pb {
                trial_sizes.push(cur * 2);
            }
            if cur >= 2 {
                trial_sizes.push(cur / 2);
            }
            for q in trial_sizes {
                let mut alloc = best.bounded.clone();
                alloc.set(paradigm_mdg::NodeId(node), q as f64);
                let res = psa_schedule(g, machine, &alloc, &psa_cfg);
                trials += 1;
                let improves = res.t_psa
                    < round_best
                        .as_ref()
                        .map(|(r, _, _, _)| r.t_psa)
                        .unwrap_or(best.t_psa * (1.0 - MIN_IMPROVEMENT));
                if improves {
                    round_best = Some((res, node, cur, q));
                }
            }
        }
        match round_best {
            Some((res, node, old, new)) => {
                moves.push((node, old, new));
                best = res;
            }
            None => break,
        }
    }

    RefineResult { initial_t_psa: start.t_psa, best, moves, trials }
}

/// Index of the compute node whose task finishes last.
fn last_finishing_compute(schedule: &Schedule, g: &Mdg) -> Option<usize> {
    schedule
        .tasks
        .iter()
        .filter(|t| g.node(t.node).kind == NodeKind::Compute)
        .max_by(|a, b| a.finish.partial_cmp(&b.finish).expect("finite times"))
        .map(|t| t.node.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{complex_matmul_mdg, strassen_mdg, KernelCostTable};
    use paradigm_solver::{allocate, SolverConfig};

    fn pipeline(g: &Mdg, p: u32) -> (Machine, PsaResult) {
        let m = Machine::cm5(p);
        let sol = allocate(g, m, &SolverConfig::fast());
        (m, psa_schedule(g, m, &sol.alloc, &PsaConfig::default()))
    }

    #[test]
    fn refinement_never_hurts() {
        for p in [16u32, 64] {
            let g = strassen_mdg(128, &KernelCostTable::cm5());
            let (m, start) = pipeline(&g, p);
            let r = refine_allocation(&g, m, &start);
            assert!(r.best.t_psa <= start.t_psa + 1e-12, "p={p}");
            r.best.schedule.validate(&g, &r.best.weights).unwrap();
            assert!(r.best.bounded.max() <= r.best.pb as f64);
        }
    }

    #[test]
    fn refinement_closes_part_of_the_strassen_gap() {
        // Strassen at 64 procs has the paper's largest Phi deviation;
        // the hill-climb should recover a measurable slice of it.
        let g = strassen_mdg(128, &KernelCostTable::cm5());
        let (m, start) = pipeline(&g, 64);
        let r = refine_allocation(&g, m, &start);
        assert!(
            r.improvement() > 0.01,
            "expected >1% improvement on Strassen, got {:.3}% ({} trials)",
            100.0 * r.improvement(),
            r.trials
        );
        assert!(!r.moves.is_empty());
    }

    #[test]
    fn refinement_is_a_fixpoint_on_already_optimal_schedules() {
        // The fig1 mixed schedule is exactly optimal for pow2
        // allocations: no move can help.
        let g = paradigm_mdg::example_fig1_mdg();
        let (m, start) = pipeline(&g, 4);
        assert!((start.t_psa - 14.3).abs() < 1e-9);
        let r = refine_allocation(&g, m, &start);
        assert!((r.best.t_psa - 14.3).abs() < 1e-9);
        assert!(r.moves.is_empty());
    }

    #[test]
    fn moves_are_recorded_consistently() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let (m, start) = pipeline(&g, 32);
        let r = refine_allocation(&g, m, &start);
        for &(node, old, new) in &r.moves {
            assert!(old != new);
            assert!(new.is_power_of_two());
            assert!(node < g.node_count());
        }
        assert!(r.trials >= r.moves.len());
    }
}
