//! Lowering scheduled MDGs into executable task programs — the paper's
//! Step 5 ("create an executable program for each processor"; MPMD from
//! the PSA schedule, SPMD with every node on all processors).
//!
//! Lowering is O(tasks + transfers): one task per scheduled node, one
//! [`SimTransfer`] per array an edge carries, in edge order. The messages
//! are not synthesised here; they are the transfers' expansion into the
//! redistribution model of Eq. 2/3
//! ([`crate::program::for_each_transfer_message`]), numbered in transfer
//! order.
//!
//! Data-less precedence edges between compute nodes get a 1-byte token
//! transfer so that the simulated program enforces the same ordering the
//! schedule promised (a compiled MPMD program would use an equivalent
//! synchronization).

use crate::program::{ComputeSpec, SimTask, SimTransfer, TaskProgram, ValidProgram};
use paradigm_mdg::{LoopClass, Mdg, NodeId, NodeKind, TransferKind};
use paradigm_sched::{Schedule, Task};

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

    // Edges with a structural endpoint are schedule-order only. A
    // zero-byte array has no message, so it has no transfer either.
    let mut transfers = Vec::with_capacity(g.edges().map(|(_, e)| e.transfers.len().max(1)).sum());
    for (_, e) in g.edges() {
        let (from_task, to_task) = (task_of_node[e.src], task_of_node[e.dst]);
        if tasks[from_task].procs.is_empty() || tasks[to_task].procs.is_empty() {
            continue;
        }
        let transfer = |kind, bytes| SimTransfer { from_task, to_task, kind, bytes };
        if e.transfers.is_empty() {
            // Token to enforce the precedence at runtime.
            transfers.push(transfer(TransferKind::OneD, 1));
        }
        let arrays = e.transfers.iter().filter(|t| t.bytes > 0);
        transfers.extend(arrays.map(|t| transfer(t.kind, t.bytes)));
    }
    TaskProgram { procs, tasks, transfers }
}

/// Lower a PSA (or any valid) schedule to an MPMD task program: each node
/// keeps its scheduled processor set; per-processor program order is the
/// schedule's start-time order. A valid schedule (`Schedule::validate`)
/// lowers to a valid program, which is not checked again: debug builds
/// assert it.
pub fn lower_mpmd(g: &Mdg, schedule: &Schedule) -> ValidProgram {
    let mut order: Vec<&Task> = schedule.tasks.iter().collect();
    // Stabilize: by (start, node id). Schedule order already satisfies
    // this for the PSA, but be robust to hand-built schedules.
    order.sort_by(|a, b| {
        a.start.partial_cmp(&b.start).expect("finite start times").then(a.node.cmp(&b.node))
    });
    ValidProgram::lowered(lower(
        g,
        schedule.machine_procs,
        order.iter().map(|t| (t.node, &t.procs[..])),
    ))
}

/// Lower the SPMD execution: every compute node on all `procs`
/// processors, topological program order.
pub fn lower_spmd(g: &Mdg, procs: u32) -> ValidProgram {
    let all: Vec<u32> = (0..procs).collect();
    let placed = g
        .topo_order()
        .iter()
        .map(|&v| (v, if g.node(v).kind == NodeKind::Compute { &all[..] } else { &[] }));
    ValidProgram::lowered(lower(g, procs, placed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, KernelCostTable};
    use paradigm_sched::{psa_schedule, PsaConfig};

    #[test]
    fn mpmd_lowering_is_valid() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        prog.validate().unwrap();
        assert_eq!(prog.tasks.len(), g.node_count());
        assert!(prog.message_count() >= 12, "every data edge produces messages");
    }

    #[test]
    fn spmd_lowering_is_valid_and_all_local_for_1d() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let prog = lower_spmd(&g, 16);
        prog.validate().unwrap();
        // Same group, same (1D) distribution: every message is local.
        assert!(prog.messages().all(|m| m.is_local()));
    }

    #[test]
    fn token_messages_for_dataless_edges() {
        let g = example_fig1_mdg(); // edges carry no transfers
        let prog = lower_spmd(&g, 4);
        prog.validate().unwrap();
        // Two compute-compute edges -> two token transfers, each one
        // message from the first processor to the first processor.
        assert_eq!(prog.transfers.len(), 2);
        let tokens: Vec<_> = prog.messages().map(|m| (m.src_proc, m.dst_proc, m.bytes)).collect();
        assert_eq!(tokens, [(0, 0, 1), (0, 0, 1)]);
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
