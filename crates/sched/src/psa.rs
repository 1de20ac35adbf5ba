//! The Prioritized Scheduling Algorithm (paper Section 3).
//!
//! Input: an MDG, a machine, and the *continuous* allocation produced by
//! the convex program. The PSA then:
//!
//! 1. rounds every `p_i` to the nearest power of two;
//! 2. clamps the allocation to the bound `PB` (Corollary 1 by default);
//! 3. recomputes all node/edge weights for the modified allocation;
//! 4. repeatedly takes the ready node with the **lowest EST** (the
//!    prioritization that gives the algorithm its name) and places it at
//!    `max(EST, PST)`, where PST — the Processor Satisfaction Time — is
//!    the instant its processor demand can be met;
//! 5. stops when STOP is placed; STOP's finish time is `T_psa`.
//!
//! Processors are modeled as a flat pool with per-processor free times
//! (the paper's cost functions carry no notion of processor contiguity,
//! so a flat pool loses nothing). A node needing `k` processors takes the
//! `k` earliest-free ones; its PST is the `k`-th smallest free time.

use crate::bounds::optimal_pb;
use crate::rounding::{bound_allocation, round_allocation};
use crate::schedule::{Schedule, Task};
use paradigm_cost::{Allocation, Machine, MdgWeights};
use paradigm_mdg::{Mdg, NodeId, NodeKind};

/// Ready-queue priority of the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// The paper's PSA: pick the ready node with the lowest Earliest
    /// Start Time.
    #[default]
    LowestEst,
    /// Highest Level First: pick the ready node with the longest
    /// remaining weighted path to STOP (classic critical-path list
    /// scheduling; used by the `ablation_scheduler_policy` bench).
    HighestLevelFirst,
}

/// PSA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PsaConfig {
    /// Processor bound; `None` selects Corollary 1's optimum.
    pub pb: Option<u32>,
    /// Skip the rounding step (ablation only — the input allocation must
    /// already be integral powers of two, or the schedule is rejected).
    pub skip_rounding: bool,
    /// Ready-queue priority (the paper's PSA by default).
    pub policy: SchedPolicy,
}

/// Everything the PSA produced.
#[derive(Debug, Clone)]
pub struct PsaResult {
    /// The final schedule.
    pub schedule: Schedule,
    /// Allocation after Step 1 (rounding).
    pub rounded: Allocation,
    /// Allocation after Step 2 (bounding) — the one actually scheduled.
    pub bounded: Allocation,
    /// The processor bound used.
    pub pb: u32,
    /// The recomputed weights (Step 3).
    pub weights: MdgWeights,
    /// `T_psa`: the schedule's makespan.
    pub t_psa: f64,
}

/// Run the PSA. See the module docs for the algorithm.
///
/// ```
/// use paradigm_mdg::example_fig1_mdg;
/// use paradigm_cost::{Allocation, Machine};
/// use paradigm_sched::{psa_schedule, PsaConfig};
///
/// let g = example_fig1_mdg();
/// let mut alloc = Allocation::uniform(&g, 1.0);
/// alloc.set(paradigm_mdg::NodeId(1), 4.0); // N1 on the whole machine
/// alloc.set(paradigm_mdg::NodeId(2), 2.0); // N2 || N3 on halves
/// alloc.set(paradigm_mdg::NodeId(3), 2.0);
/// let res = psa_schedule(&g, Machine::cm5(4), &alloc, &PsaConfig::default());
/// assert!((res.t_psa - 14.3).abs() < 1e-9); // the paper's Figure 2
/// res.schedule.validate(&g, &res.weights).unwrap();
/// ```
///
/// # Panics
/// Panics if `skip_rounding` is set but the allocation is not integral
/// powers of two, or if the allocation size does not match the graph.
pub fn psa_schedule(
    g: &Mdg,
    machine: Machine,
    continuous: &Allocation,
    cfg: &PsaConfig,
) -> PsaResult {
    assert_eq!(continuous.len(), g.node_count(), "allocation/graph size mismatch");
    // Steps 1-2: round, bound.
    let rounded = if cfg.skip_rounding {
        assert!(continuous.is_power_of_two(), "skip_rounding requires a power-of-two allocation");
        continuous.clone()
    } else {
        round_allocation(g, continuous)
    };
    let pb = cfg.pb.unwrap_or_else(|| optimal_pb(machine.procs));
    assert!(pb <= machine.procs, "PB {pb} exceeds machine size {}", machine.procs);
    let bounded = bound_allocation(&rounded, pb);
    // Step 3: recompute weights.
    let weights = MdgWeights::compute(g, &machine, &bounded);

    // HLF priority: longest remaining weighted path to STOP.
    let levels: Vec<f64> = {
        let n = g.node_count();
        let mut level = vec![0.0_f64; n];
        for &v in g.topo_order().iter().rev() {
            let mut best = 0.0_f64;
            for &e in g.out_edges(v) {
                let w = g.edge(e).dst;
                let cand = weights.edge_weight(e) + level[w];
                if cand > best {
                    best = cand;
                }
            }
            level[v.0] = weights.node_weight(v) + best;
        }
        level
    };

    // Steps 4-7: the list scheduling loop.
    let n = g.node_count();
    let p = machine.procs as usize;
    let mut free_time = vec![0.0_f64; p];
    let mut remaining_preds: Vec<usize> = (0..n).map(|v| g.in_edges(NodeId(v)).len()).collect();
    let mut est = vec![f64::INFINITY; n];
    let mut finish = vec![f64::NAN; n];
    let mut ready: Vec<NodeId> = Vec::new();

    est[g.start().0] = 0.0;
    ready.push(g.start());

    let mut order: Vec<Task> = Vec::with_capacity(n);
    // The processors by free time, ties in the order the previous node
    // left them: what a stable sort of the last order would give.
    let mut proc_indices: Vec<usize> = (0..p).collect();

    while let Some(pos) = match cfg.policy {
        SchedPolicy::LowestEst => pick_lowest_est(&ready, &est),
        SchedPolicy::HighestLevelFirst => pick_highest_level(&ready, &levels),
    } {
        let v = ready.swap_remove(pos);
        let node = g.node(v);
        let t_v = weights.node_weight(v);
        let k = if node.kind == NodeKind::Compute { weights.alloc.as_u32(v) as usize } else { 0 };

        let (start, procs) = if k == 0 {
            (est[v.0], Vec::new())
        } else {
            // k earliest-free processors; PST = k-th smallest free time.
            let chosen: Vec<u32> = proc_indices[..k].iter().map(|&i| i as u32).collect();
            let pst = free_time[proc_indices[k - 1]];
            let start = if pst >= est[v.0] { pst } else { est[v.0] };
            let busy_until = start + t_v;
            assert!(!busy_until.is_nan(), "finite free times");
            for &c in &chosen {
                free_time[c as usize] = busy_until;
            }
            // The block now shares one free time and the rest is still
            // sorted, so the stable sort is a merge: the block moves past
            // every processor free strictly earlier and stays ahead of
            // those free at the same instant.
            let behind = proc_indices[k..].partition_point(|&i| free_time[i] < busy_until);
            proc_indices[..k + behind].rotate_left(k);
            (start, chosen)
        };

        let f = start + t_v;
        finish[v.0] = f;
        order.push(Task { node: v, procs, start, finish: f });

        if v == g.stop() {
            break;
        }

        // Step 6: release successors whose predecessors are all placed.
        for &e in g.out_edges(v) {
            let w = g.edge(e).dst;
            remaining_preds[w] -= 1;
            if remaining_preds[w] == 0 {
                let mut ew = 0.0_f64;
                for &ie in g.in_edges(NodeId(w)) {
                    let m = g.edge(ie).src;
                    let cand = finish[m] + weights.edge_weight(ie);
                    if cand > ew {
                        ew = cand;
                    }
                }
                est[w] = ew;
                ready.push(NodeId(w));
            }
        }
    }

    let t_psa = finish[g.stop().0];
    assert!(t_psa.is_finite(), "PSA failed to schedule STOP — malformed MDG?");
    let schedule = Schedule { tasks: order, machine_procs: machine.procs, makespan: t_psa };
    PsaResult { schedule, rounded, bounded, pb, weights, t_psa }
}

/// Index (into `ready`) of the node with the lowest EST; ties break
/// toward the lower node id for determinism.
fn pick_lowest_est(ready: &[NodeId], est: &[f64]) -> Option<usize> {
    if ready.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for i in 1..ready.len() {
        let (ei, eb) = (est[ready[i].0], est[ready[best].0]);
        if ei < eb || (ei == eb && ready[i] < ready[best]) {
            best = i;
        }
    }
    Some(best)
}

/// Index (into `ready`) of the node with the highest level (longest
/// remaining path); ties break toward the lower node id.
fn pick_highest_level(ready: &[NodeId], levels: &[f64]) -> Option<usize> {
    if ready.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for i in 1..ready.len() {
        let (li, lb) = (levels[ready[i].0], levels[ready[best].0]);
        if li > lb || (li == lb && ready[i] < ready[best]) {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::theorem3_factor;
    use paradigm_mdg::{
        block_lu_mdg, complex_matmul_mdg, example_fig1_mdg, fft_2d_mdg, fork_join_mdg,
        random_layered_mdg, stencil_mdg, strassen_mdg, strassen_mdg_multilevel, KernelCostTable,
        RandomMdgConfig,
    };
    use paradigm_solver::{allocate, SolverConfig};

    fn fig1_alloc(g: &Mdg) -> Allocation {
        let mut a = Allocation::uniform(g, 1.0);
        a.set(NodeId(1), 4.0);
        a.set(NodeId(2), 2.0);
        a.set(NodeId(3), 2.0);
        a
    }

    #[test]
    fn fig1_psa_reproduces_mixed_schedule() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let res = psa_schedule(&g, m, &fig1_alloc(&g), &PsaConfig::default());
        // PB for p=4 is 4 -> no clamping; makespan must be the paper's
        // mixed-parallelism 14.3 s.
        assert_eq!(res.pb, 4);
        assert!((res.t_psa - 14.3).abs() < 1e-9, "T_psa = {}", res.t_psa);
        res.schedule.validate(&g, &res.weights).unwrap();
        // N2 and N3 run concurrently on disjoint processor pairs.
        let t2 = res.schedule.task_for(NodeId(2)).unwrap();
        let t3 = res.schedule.task_for(NodeId(3)).unwrap();
        assert!((t2.start - t3.start).abs() < 1e-12);
        assert!(t2.procs.iter().all(|p| !t3.procs.contains(p)));
    }

    #[test]
    fn naive_all4_allocation_gives_serial_schedule() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        assert!((res.t_psa - 15.6).abs() < 1e-9, "T_psa = {}", res.t_psa);
        res.schedule.validate(&g, &res.weights).unwrap();
    }

    #[test]
    fn psa_schedules_are_always_valid() {
        let cfg = RandomMdgConfig::default();
        for seed in 0..10 {
            let g = random_layered_mdg(&cfg, seed);
            for procs in [4u32, 16, 64] {
                let m = Machine::cm5(procs);
                let alloc = Allocation::uniform(&g, (procs as f64 / 3.0).max(1.0));
                let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
                res.schedule
                    .validate(&g, &res.weights)
                    .unwrap_or_else(|e| panic!("seed {seed}, p {procs}: {e}"));
            }
        }
    }

    #[test]
    fn bounding_step_clamps_to_pb() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(64);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 64.0), &PsaConfig::default());
        assert_eq!(res.pb, 32, "Corollary 1 for p=64");
        assert!(res.bounded.max() <= 32.0);
        assert!(res.rounded.max() >= 64.0 - 1e-9, "rounding alone keeps 64");
    }

    #[test]
    fn explicit_pb_overrides_corollary() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(64);
        let res = psa_schedule(
            &g,
            m,
            &Allocation::uniform(&g, 64.0),
            &PsaConfig { pb: Some(8), skip_rounding: false, ..PsaConfig::default() },
        );
        assert_eq!(res.pb, 8);
        assert!(res.bounded.max() <= 8.0);
    }

    /// Theorem 3 end-to-end: T_psa from (convex solve -> PSA) is within
    /// the proven factor of Phi on the paper's workloads.
    #[test]
    fn theorem3_bound_holds_on_paper_workloads() {
        let table = KernelCostTable::cm5();
        let graphs = [complex_matmul_mdg(64, &table), strassen_mdg(128, &table)];
        for g in &graphs {
            for p in [16u32, 32, 64] {
                let m = Machine::cm5(p);
                let sol = allocate(g, m, &SolverConfig::fast());
                let res = psa_schedule(g, m, &sol.alloc, &PsaConfig::default());
                let bound = theorem3_factor(p, res.pb) * sol.phi.phi;
                assert!(
                    res.t_psa <= bound,
                    "{} p={p}: T_psa {} > bound {}",
                    g.name(),
                    res.t_psa,
                    bound
                );
                res.schedule.validate(g, &res.weights).unwrap();
            }
        }
    }

    #[test]
    fn skip_rounding_requires_pow2() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let res = std::panic::catch_unwind(|| {
            psa_schedule(
                &g,
                m,
                &Allocation::uniform(&g, 3.0),
                &PsaConfig { pb: None, skip_rounding: true, ..PsaConfig::default() },
            )
        });
        assert!(res.is_err());
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let g = strassen_mdg(128, &KernelCostTable::cm5());
        let m = Machine::cm5(32);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 8.0), &PsaConfig::default());
        let (cp, _) = res.weights.critical_path_time(&g);
        assert!(res.t_psa >= cp - 1e-9, "makespan below critical path");
        // And at least the area bound.
        let ap = res.weights.average_finish_time();
        assert!(res.t_psa >= ap - 1e-9, "makespan below area bound");
    }

    #[test]
    fn hlf_policy_produces_valid_schedules() {
        let cfg = RandomMdgConfig::default();
        for seed in 0..8 {
            let g = random_layered_mdg(&cfg, seed);
            let m = Machine::cm5(16);
            let psa_cfg =
                PsaConfig { policy: SchedPolicy::HighestLevelFirst, ..PsaConfig::default() };
            let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &psa_cfg);
            res.schedule.validate(&g, &res.weights).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Both policies respect the same lower bounds.
            let (cp, _) = res.weights.critical_path_time(&g);
            assert!(res.t_psa >= cp - 1e-9);
        }
    }

    #[test]
    fn hlf_matches_psa_on_fig1() {
        // On the 3-node example both priorities produce the same optimal
        // mixed schedule.
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let est = psa_schedule(&g, m, &fig1_alloc(&g), &PsaConfig::default());
        let hlf = psa_schedule(
            &g,
            m,
            &fig1_alloc(&g),
            &PsaConfig { policy: SchedPolicy::HighestLevelFirst, ..PsaConfig::default() },
        );
        assert!((est.t_psa - hlf.t_psa).abs() < 1e-12);
    }

    #[test]
    fn single_processor_machine_serializes_everything() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(1);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 1.0), &PsaConfig::default());
        // Three nodes of tau = 16.9 each, serial.
        assert!((res.t_psa - 3.0 * 16.9).abs() < 1e-9);
        res.schedule.validate(&g, &res.weights).unwrap();
    }

    /// Replay `res` in its own placement order with the retired pool
    /// update — a stable sort of all p processors by free time at every
    /// node — and hold every task's processors, in order, and its start and
    /// finish, and `T_psa`, to the bits the merge produced.
    fn assert_merge_is_the_per_node_sort(g: &Mdg, res: &PsaResult) {
        let p = res.schedule.machine_procs as usize;
        let mut free_time = vec![0.0_f64; p];
        let mut proc_indices: Vec<usize> = (0..p).collect();
        let mut finish = vec![f64::NAN; g.node_count()];
        for task in &res.schedule.tasks {
            let v = task.node;
            let mut est = 0.0_f64;
            for &e in g.in_edges(v) {
                let cand = finish[g.edge(e).src] + res.weights.edge_weight(e);
                if cand > est {
                    est = cand;
                }
            }
            let t_v = res.weights.node_weight(v);
            let k = match g.node(v).kind {
                NodeKind::Compute => res.weights.alloc.as_u32(v) as usize,
                _ => 0,
            };
            let start = if k == 0 {
                assert!(task.procs.is_empty(), "{v:?}");
                est
            } else {
                proc_indices.sort_by(|&a, &b| {
                    free_time[a].partial_cmp(&free_time[b]).expect("finite free times")
                });
                let chosen: Vec<u32> = proc_indices[..k].iter().map(|&i| i as u32).collect();
                assert_eq!(task.procs, chosen, "{v:?}");
                let pst = free_time[proc_indices[k - 1]];
                let start = if pst >= est { pst } else { est };
                for &c in &chosen {
                    free_time[c as usize] = start + t_v;
                }
                start
            };
            assert_eq!(task.start.to_bits(), start.to_bits(), "{v:?} start");
            assert_eq!(task.finish.to_bits(), (start + t_v).to_bits(), "{v:?} finish");
            finish[v.0] = start + t_v;
        }
        assert_eq!(res.t_psa.to_bits(), finish[g.stop().0].to_bits());
    }

    /// The processor pool's merge against the stable sort it replaced, on
    /// the gallery graphs and seeded random graphs under uniform
    /// allocations — where many processors free up at exactly the same
    /// instant, so the tie rule decides the processor lists — at
    /// p = 1, 6, 64 and 1024, under both policies and with PB forced to 1
    /// and 2 as well as Corollary 1's.
    #[test]
    fn the_pool_merge_is_the_per_node_stable_sort_to_the_bit() {
        let t = KernelCostTable::cm5();
        let mut graphs = vec![
            example_fig1_mdg(),
            complex_matmul_mdg(64, &t),
            strassen_mdg(128, &t),
            strassen_mdg_multilevel(128, 2, &t),
            fft_2d_mdg(64, 4, &t),
            block_lu_mdg(4, 32, &t),
            stencil_mdg(64, 2, 3, &t),
            random_layered_mdg(&RandomMdgConfig::sized(192), 11),
            fork_join_mdg(6, 12, 5),
        ];
        graphs.extend((0..4).map(|seed| random_layered_mdg(&RandomMdgConfig::default(), seed)));
        let mut tasks = 0;
        for g in &graphs {
            for procs in [1u32, 6, 64, 1024] {
                let m = Machine::cm5(procs);
                for share in [1.0, (procs as f64 / 3.0).max(1.0)] {
                    let alloc = Allocation::uniform(g, share);
                    for pb in [None, Some(1), Some(2)].into_iter().filter(|&pb| pb <= Some(procs)) {
                        for policy in [SchedPolicy::LowestEst, SchedPolicy::HighestLevelFirst] {
                            let cfg = PsaConfig { pb, skip_rounding: false, policy };
                            let res = psa_schedule(g, m, &alloc, &cfg);
                            assert_merge_is_the_per_node_sort(g, &res);
                            tasks += res.schedule.tasks.len();
                        }
                    }
                }
            }
        }
        assert!(tasks > 10_000, "{tasks}");
    }
}
