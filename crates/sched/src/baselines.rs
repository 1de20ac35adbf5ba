//! Baseline execution schemes the paper compares against.
//!
//! * [`spmd_schedule`] — pure data parallelism: every node runs on all
//!   `p` processors, one after another (the "SPMD versions" of Section 6;
//!   redistribution costs between consecutive nodes still apply).
//! * [`task_parallel_schedule`] — pure functional parallelism: every
//!   node runs on exactly one processor; concurrency comes only from the
//!   DAG. (Not in the paper's evaluation, but the natural other extreme;
//!   used by the ablation drivers.)
//! * [`serial_schedule`] — the 1-processor reference time `Σ tau_i`
//!   (no message passing on a single processor), which both the paper's
//!   speedups and ours normalize against.

use crate::psa::{psa_schedule, PsaConfig, PsaResult};
use crate::schedule::{Schedule, Task};
use paradigm_cost::{Allocation, Machine, MdgWeights};
use paradigm_mdg::{Mdg, NodeKind};

/// Pure data-parallel (SPMD) execution: every compute node uses all `p`
/// processors; nodes run serially in a topological order, but never
/// earlier than their predecessors' data has arrived (network delays
/// still apply on machines where `t_n > 0`).
///
/// Returns the schedule together with the weights it was computed from.
pub fn spmd_schedule(g: &Mdg, machine: Machine) -> (Schedule, MdgWeights) {
    let alloc = spmd_allocation(g, machine.procs);
    let weights = MdgWeights::compute(g, &machine, &alloc);
    let all_procs: Vec<u32> = (0..machine.procs).collect();
    let mut tasks: Vec<Task> = Vec::with_capacity(g.node_count());
    let mut finish = vec![0.0_f64; g.node_count()];
    let mut prev_finish = 0.0_f64;
    for &v in g.topo_order() {
        let mut start = prev_finish;
        for &e in g.in_edges(v) {
            let m = g.edge(e).src;
            let cand = finish[m] + weights.edge_weight(e);
            if cand > start {
                start = cand;
            }
        }
        let f = start + weights.node_weight(v);
        finish[v.0] = f;
        let procs =
            if g.node(v).kind == NodeKind::Compute { all_procs.clone() } else { Vec::new() };
        tasks.push(Task { node: v, procs, start, finish: f });
        prev_finish = f;
    }
    let makespan = finish[g.stop().0];
    (Schedule { tasks, machine_procs: machine.procs, makespan }, weights)
}

/// The SPMD allocation: `p` everywhere (1 on structural nodes).
pub(crate) fn spmd_allocation(g: &Mdg, procs: u32) -> Allocation {
    let mut a = Allocation::uniform(g, 1.0);
    for (id, n) in g.nodes() {
        if n.kind == NodeKind::Compute {
            a.set(id, procs as f64);
        }
    }
    a
}

/// Pure task-parallel execution: one processor per node, list-scheduled
/// by the PSA machinery (rounding is a no-op on an all-ones allocation).
pub fn task_parallel_schedule(g: &Mdg, machine: Machine) -> PsaResult {
    psa_schedule(
        g,
        machine,
        &Allocation::uniform(g, 1.0),
        &PsaConfig { pb: Some(1), skip_rounding: true, ..PsaConfig::default() },
    )
}

/// Sequential reference time: `Σ tau_i` over compute nodes. A single
/// processor program passes no messages, so no transfer costs apply.
pub fn serial_schedule(g: &Mdg) -> f64 {
    g.nodes().filter(|(_, n)| n.kind == NodeKind::Compute).map(|(_, n)| n.cost.tau).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, KernelCostTable, NodeId};

    #[test]
    fn spmd_fig1_matches_paper_naive_scheme() {
        let g = example_fig1_mdg();
        let (s, w) = spmd_schedule(&g, Machine::cm5(4));
        assert!((s.makespan - 15.6).abs() < 1e-9, "makespan = {}", s.makespan);
        s.validate(&g, &w).unwrap();
    }

    #[test]
    fn spmd_is_serial_in_time() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let (s, _) = spmd_schedule(&g, Machine::cm5(16));
        // No two compute tasks overlap.
        let mut compute: Vec<&Task> = s.tasks.iter().filter(|t| !t.procs.is_empty()).collect();
        compute.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for pair in compute.windows(2) {
            assert!(pair[1].start >= pair[0].finish - 1e-9);
        }
    }

    #[test]
    fn spmd_speedup_is_sublinear_when_communication_dominates() {
        // For tiny work on many processors, SPMD pays startup costs that
        // the serial execution avoids entirely.
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let serial = serial_schedule(&g);
        let (s64, _) = spmd_schedule(&g, Machine::cm5(64));
        // 64x64 CMM does get speedup at 64 procs, but efficiency is low:
        // speedup well below p.
        let speedup = serial / s64.makespan;
        assert!(speedup > 1.0, "speedup {speedup}");
        assert!(speedup < 32.0, "speedup {speedup} suspiciously high");
    }

    #[test]
    fn task_parallel_uses_single_processors() {
        let g = example_fig1_mdg();
        let res = task_parallel_schedule(&g, Machine::cm5(4));
        res.schedule.validate(&g, &res.weights).unwrap();
        for t in &res.schedule.tasks {
            assert!(t.procs.len() <= 1);
        }
        // N2 and N3 still run concurrently (on different processors).
        let t2 = res.schedule.task_for(NodeId(2)).unwrap();
        let t3 = res.schedule.task_for(NodeId(3)).unwrap();
        assert!(t2.start < t3.finish && t3.start < t2.finish, "no overlap");
    }

    #[test]
    fn serial_time_of_fig1() {
        let g = example_fig1_mdg();
        assert!((serial_schedule(&g) - 3.0 * 16.9).abs() < 1e-9);
    }

    #[test]
    fn spmd_allocation_is_uniform_p() {
        let g = example_fig1_mdg();
        let a = spmd_allocation(&g, 8);
        assert_eq!(a.get(NodeId(1)), 8.0);
        assert_eq!(a.get(g.start()), 1.0);
    }
}
