//! Lowering scheduled MDGs into executable task programs — the paper's
//! Step 5 ("create an executable program for each processor"; MPMD from
//! the PSA schedule, SPMD with every node on all processors).
//!
//! Message synthesis follows the redistribution model exactly:
//!
//! * **1D** transfers block-partition the payload over the source group
//!   and over the destination group and send each overlap — at most
//!   `p_i + p_j − 1` messages; each source processor issues
//!   `≈ max(p_i, p_j)/p_i` of them, matching Eq. 2's premise;
//! * **2D** transfers send one message per `(src, dst)` pair — the
//!   all-pairs pattern of Eq. 3.
//!
//! Data-less precedence edges between compute nodes get a 1-byte token
//! message so that the simulated program enforces the same ordering the
//! schedule promised (a compiled MPMD program would use an equivalent
//! synchronization).

use crate::program::{ComputeSpec, SimMessage, SimTask, TaskProgram};
use paradigm_kernels::block_range;
use paradigm_mdg::{Edge, LoopClass, Mdg, NodeId, NodeKind, TransferKind};
use paradigm_sched::{Schedule, Task};

/// Hand `emit` the group-local messages `(src_rank, dst_rank, bytes)` of
/// one array transfer, ordered by source rank, then destination rank.
fn for_each_transfer_message(
    bytes: u64,
    kind: TransferKind,
    src_procs: usize,
    dst_procs: usize,
    mut emit: impl FnMut(u32, u32, u64),
) {
    let total = bytes as usize;
    match kind {
        TransferKind::OneD => {
            // Both block lists ascend over `0..total`, so one cursor in
            // each meets every overlap in (source, destination) order.
            let (mut i, mut j) = (0, 0);
            while i < src_procs && j < dst_procs {
                let (s0, sl) = block_range(total, src_procs, i);
                let (d0, dl) = block_range(total, dst_procs, j);
                let lo = s0.max(d0);
                let hi = (s0 + sl).min(d0 + dl);
                if hi > lo {
                    emit(i as u32, j as u32, (hi - lo) as u64);
                }
                if s0 + sl <= d0 + dl {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
        TransferKind::TwoD => {
            for i in 0..src_procs {
                let (_, sl) = block_range(total, src_procs, i);
                for j in 0..dst_procs {
                    let (_, dl) = block_range(sl, dst_procs, j);
                    if dl > 0 {
                        emit(i as u32, j as u32, dl as u64);
                    }
                }
            }
        }
    }
}

/// Synthesize the group-local message set of one array transfer.
/// Returns `(src_rank, dst_rank, bytes)` triples; bytes sum to `bytes`.
pub fn synthesize_transfer_messages(
    bytes: u64,
    kind: TransferKind,
    src_procs: usize,
    dst_procs: usize,
) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::new();
    for_each_transfer_message(bytes, kind, src_procs, dst_procs, |i, j, b| out.push((i, j, b)));
    out
}

/// Compute spec for an MDG node: real kernels keep their class and
/// extent; synthetic nodes (zero extent) carry their Amdahl parameters.
fn compute_spec(g: &Mdg, id: NodeId) -> ComputeSpec {
    let node = g.node(id);
    match node.kind {
        NodeKind::Start | NodeKind::Stop => ComputeSpec::None,
        NodeKind::Compute => {
            let known_kernel = matches!(
                node.meta.class,
                LoopClass::MatrixInit | LoopClass::MatrixAdd | LoopClass::MatrixMultiply
            ) && node.meta.rows > 0
                && node.meta.cols > 0;
            if known_kernel {
                ComputeSpec::Kernel {
                    class: node.meta.class.clone(),
                    rows: node.meta.rows,
                    cols: node.meta.cols,
                }
            } else {
                ComputeSpec::Explicit { params: node.cost }
            }
        }
    }
}

/// Shared lowering core: one task per `(node, processors)` entry of
/// `placed`, in that program order.
fn lower<'a>(
    g: &Mdg,
    procs: u32,
    placed: impl ExactSizeIterator<Item = (NodeId, &'a [u32])>,
) -> TaskProgram {
    let mut tasks = Vec::with_capacity(placed.len());
    let mut task_of_node = vec![usize::MAX; g.node_count()];
    for (idx, (v, on)) in placed.enumerate() {
        task_of_node[v.0] = idx;
        let mut ps = on.to_vec();
        ps.sort_unstable();
        tasks.push(SimTask {
            node: v,
            name: g.node(v).name.clone(),
            procs: ps,
            compute: compute_spec(g, v),
            program_order: idx,
        });
    }

    // `None` for an edge with a structural endpoint: schedule-order only.
    let endpoints = |e: &Edge| {
        let (src_task, dst_task) = (task_of_node[e.src], task_of_node[e.dst]);
        let (src_procs, dst_procs) = (&tasks[src_task].procs, &tasks[dst_task].procs);
        (!src_procs.is_empty() && !dst_procs.is_empty())
            .then_some((src_task, dst_task, src_procs, dst_procs))
    };
    // An upper bound on the message count, so `messages` is sized once.
    let bound: usize = g
        .edges()
        .map(|(_, e)| match endpoints(e) {
            None => 0,
            Some((_, _, src_procs, dst_procs)) => {
                let (qs, qd) = (src_procs.len(), dst_procs.len());
                let per_transfer = e.transfers.iter().map(|t| match t.kind {
                    TransferKind::OneD => qs + qd - 1,
                    TransferKind::TwoD => qs * qd,
                });
                per_transfer.sum::<usize>().max(1) // the token of a data-less edge
            }
        })
        .sum();
    let mut messages = Vec::with_capacity(bound);
    for (_, e) in g.edges() {
        let Some((from_task, to_task, src_procs, dst_procs)) = endpoints(e) else { continue };
        if e.transfers.is_empty() {
            // Token message to enforce the precedence at runtime.
            messages.push(SimMessage {
                from_task,
                to_task,
                src_proc: src_procs[0],
                dst_proc: dst_procs[0],
                bytes: 1,
            });
            continue;
        }
        for t in &e.transfers {
            for_each_transfer_message(
                t.bytes,
                t.kind,
                src_procs.len(),
                dst_procs.len(),
                |sr, dr, bytes| {
                    messages.push(SimMessage {
                        from_task,
                        to_task,
                        src_proc: src_procs[sr as usize],
                        dst_proc: dst_procs[dr as usize],
                        bytes,
                    });
                },
            );
        }
    }
    TaskProgram { procs, tasks, messages }
}

/// Lower a PSA (or any valid) schedule to an MPMD task program: each node
/// keeps its scheduled processor set; per-processor program order is the
/// schedule's start-time order.
pub fn lower_mpmd(g: &Mdg, schedule: &Schedule) -> TaskProgram {
    let mut order: Vec<&Task> = schedule.tasks.iter().collect();
    // Stabilize: by (start, node id). Schedule order already satisfies
    // this for the PSA, but be robust to hand-built schedules.
    order.sort_by(|a, b| {
        a.start.partial_cmp(&b.start).expect("finite start times").then(a.node.cmp(&b.node))
    });
    lower(g, schedule.machine_procs, order.iter().map(|t| (t.node, &t.procs[..])))
}

/// Lower the SPMD execution: every compute node on all `procs`
/// processors, topological program order.
pub fn lower_spmd(g: &Mdg, procs: u32) -> TaskProgram {
    let all: Vec<u32> = (0..procs).collect();
    let placed = g
        .topo_order()
        .iter()
        .map(|&v| (v, if g.node(v).kind == NodeKind::Compute { &all[..] } else { &[] }));
    lower(g, procs, placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, KernelCostTable};
    use paradigm_sched::{psa_schedule, PsaConfig};

    #[test]
    fn one_d_message_synthesis_matches_model_counts() {
        // p_i = 2 -> p_j = 8: 8 messages, each src proc sends 4.
        let msgs = synthesize_transfer_messages(32768, TransferKind::OneD, 2, 8);
        assert_eq!(msgs.len(), 8);
        let from0 = msgs.iter().filter(|m| m.0 == 0).count();
        assert_eq!(from0, 4);
        let total: u64 = msgs.iter().map(|m| m.2).sum();
        assert_eq!(total, 32768);
    }

    #[test]
    fn one_d_equal_groups_is_rank_to_rank() {
        let msgs = synthesize_transfer_messages(32768, TransferKind::OneD, 4, 4);
        assert_eq!(msgs.len(), 4);
        assert!(msgs.iter().all(|m| m.0 == m.1));
    }

    #[test]
    fn two_d_all_pairs() {
        let msgs = synthesize_transfer_messages(32768, TransferKind::TwoD, 3, 5);
        assert_eq!(msgs.len(), 15);
        let total: u64 = msgs.iter().map(|m| m.2).sum();
        assert_eq!(total, 32768);
    }

    #[test]
    fn mpmd_lowering_is_valid() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        prog.validate().unwrap();
        assert_eq!(prog.tasks.len(), g.node_count());
        assert!(prog.messages.len() >= 12, "every data edge produces messages");
    }

    #[test]
    fn spmd_lowering_is_valid_and_all_local_for_1d() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let prog = lower_spmd(&g, 16);
        prog.validate().unwrap();
        // Same group, same (1D) distribution: every message is local.
        assert!(prog.messages.iter().all(|m| m.is_local()));
    }

    #[test]
    fn token_messages_for_dataless_edges() {
        let g = example_fig1_mdg(); // edges carry no transfers
        let prog = lower_spmd(&g, 4);
        prog.validate().unwrap();
        // Two compute-compute edges -> two token messages.
        assert_eq!(prog.messages.len(), 2);
        assert!(prog.messages.iter().all(|m| m.bytes == 1));
    }

    #[test]
    fn mpmd_tasks_ordered_by_schedule_start() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let by_node = res.schedule.by_node();
        for w in prog.tasks.windows(2) {
            let sa = by_node.get(w[0].node).unwrap().start;
            let sb = by_node.get(w[1].node).unwrap().start;
            assert!(sa <= sb);
        }
    }
}
