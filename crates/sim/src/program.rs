//! Task-program representation — the simulator's executable format.
//!
//! A [`TaskProgram`] is what the paper's Step 5 ("create an executable
//! program for each processor") produces: every task knows its processor
//! set and its compute kernel, and every array transfer between two tasks
//! is one [`SimTransfer`] — the 1D or 2D redistribution of Eq. 2/3 whose
//! point-to-point messages the engines execute. Per-processor program
//! order is fixed at codegen time (field [`SimTask::program_order`]),
//! exactly like a compiled MPMD binary — runtime timing variations can
//! stretch the execution but never reorder it.
//!
//! Messages are derived, never stored: [`TaskProgram::messages`] expands
//! the transfers in index order, each by [`for_each_transfer_message`]
//! (source rank, then destination rank). A message's index in that order
//! seeds the truth machine's noise and breaks receive ties, so the order
//! is part of the format. A rank indexes its task's processor list, so a
//! message's endpoints belong to their tasks by construction.
//!
//! [`TaskProgram::validate`] is the gate every engine runs first; on a
//! valid program it is O(P log P + T) in the P processor slots of the
//! tasks and the T transfers, and two allocations.

use paradigm_mdg::{AmdahlParams, LoopClass, NodeId, TransferKind};

/// What a task computes.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeSpec {
    /// A real kernel: timed by the ground-truth machine's kernel model.
    Kernel {
        /// Loop class.
        class: LoopClass,
        /// Row extent.
        rows: usize,
        /// Column extent.
        cols: usize,
    },
    /// A synthetic node with explicit Amdahl parameters.
    Explicit {
        /// The node's nominal parameters.
        params: AmdahlParams,
    },
    /// Structural (START/STOP): zero work, zero processors.
    None,
}

/// One array transfer from a producing task to a consuming task: `bytes`
/// block-distributed over the producer's processors, redistributed to the
/// consumer's. A data-less precedence edge is a 1-byte 1D transfer, whose
/// one message runs from the producer's first processor to the
/// consumer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTransfer {
    /// Index of the producing task in [`TaskProgram::tasks`].
    pub from_task: usize,
    /// Index of the consuming task.
    pub to_task: usize,
    /// Redistribution shape: 1D overlaps or 2D all-pairs.
    pub kind: TransferKind,
    /// Payload bytes, summed over the transfer's messages.
    pub bytes: u64,
}

/// One point-to-point message, with **global** processor endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimMessage {
    /// Index of the producing task in [`TaskProgram::tasks`].
    pub from_task: usize,
    /// Index of the consuming task.
    pub to_task: usize,
    /// Global id of the sending processor.
    pub src_proc: u32,
    /// Global id of the receiving processor.
    pub dst_proc: u32,
    /// Payload bytes.
    pub bytes: u64,
}

impl SimMessage {
    /// True if the endpoints coincide — executed as a local memory copy.
    pub fn is_local(&self) -> bool {
        self.src_proc == self.dst_proc
    }
}

/// Hand `emit` the group-local messages `(src_rank, dst_rank, bytes)` of
/// one array transfer of `bytes` from a `src_procs`- to a
/// `dst_procs`-processor group, ordered by source rank, then destination
/// rank; their bytes sum to `bytes` and none is empty.
///
/// * **1D** block-partitions the payload over the source group and over
///   the destination group and sends each overlap — at most
///   `p_i + p_j − 1` messages; each source processor issues
///   `≈ max(p_i, p_j)/p_i` of them, matching Eq. 2's premise;
/// * **2D** splits each source block over the destination group and sends
///   one message per non-empty piece — the all-pairs pattern of Eq. 3.
///
/// Blocks are [`paradigm_kernels::block_range`]'s, stepped rather than
/// recomputed: one division pair per group for 1D, one per source rank
/// for 2D (a shift and a mask where the group is a power of two).
///
/// # Panics
/// Panics if either group is empty.
pub fn for_each_transfer_message(
    bytes: u64,
    kind: TransferKind,
    src_procs: usize,
    dst_procs: usize,
    mut emit: impl FnMut(u32, u32, u64),
) {
    let total = bytes as usize;
    let src_split = split(total, src_procs);
    match kind {
        TransferKind::OneD => {
            // Both block lists ascend over `0..total`, so one cursor in
            // each meets every overlap in (source, destination) order.
            let dst_split = split(total, dst_procs);
            let (mut i, mut j) = (0, 0);
            let mut src = (0, block_len(src_split, 0));
            let mut dst = (0, block_len(dst_split, 0));
            while i < src_procs && j < dst_procs {
                let (lo, hi) = (src.0.max(dst.0), src.1.min(dst.1));
                if hi > lo {
                    emit(i as u32, j as u32, (hi - lo) as u64);
                }
                if src.1 <= dst.1 {
                    i += 1;
                    src = (src.1, src.1 + block_len(src_split, i));
                } else {
                    j += 1;
                    dst = (dst.1, dst.1 + block_len(dst_split, j));
                }
            }
        }
        TransferKind::TwoD => {
            for i in 0..src_procs {
                let pieces = split(block_len(src_split, i), dst_procs);
                // A piece is non-empty for every destination, or for the
                // first `extra` of them when the block is smaller than the
                // group.
                let reached = if pieces.0 > 0 { dst_procs } else { pieces.1 };
                for j in 0..reached {
                    emit(i as u32, j as u32, block_len(pieces, j) as u64);
                }
            }
        }
    }
}

/// The number of messages [`for_each_transfer_message`] emits, without
/// walking them where the count has a closed form: always for 2D, and for
/// 1D between equal groups or from or to one processor.
pub(crate) fn message_count(
    bytes: u64,
    kind: TransferKind,
    src_procs: usize,
    dst_procs: usize,
) -> usize {
    let total = bytes as usize;
    match kind {
        TransferKind::TwoD => {
            // Source blocks come in two lengths, `base + 1` for the first
            // `extra` ranks and `base` after; each reaches as many
            // destinations as it has bytes, at most all of them.
            let (base, extra) = split(total, src_procs);
            extra * (base + 1).min(dst_procs) + (src_procs - extra) * base.min(dst_procs)
        }
        TransferKind::OneD if src_procs == dst_procs || src_procs == 1 || dst_procs == 1 => {
            total.min(src_procs.max(dst_procs))
        }
        TransferKind::OneD => {
            let mut n = 0;
            for_each_transfer_message(bytes, kind, src_procs, dst_procs, |_, _, _| n += 1);
            n
        }
    }
}

/// `block_range`'s `(base, extra)`: `total` over `parts` blocks, the first
/// `extra` one longer. Processor groups are powers of two wherever the
/// PSA placed them, so that case shifts instead of dividing.
#[inline]
fn split(total: usize, parts: usize) -> (usize, usize) {
    if parts.is_power_of_two() {
        (total >> parts.trailing_zeros(), total & (parts - 1))
    } else {
        (total / parts, total % parts)
    }
}

/// Length of block `k` of a `(base, extra)` split (`block_range`'s).
fn block_len((base, extra): (usize, usize), k: usize) -> usize {
    base + usize::from(k < extra)
}

/// One task of the program.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTask {
    /// MDG node this task realizes.
    pub node: NodeId,
    /// Display name.
    pub name: String,
    /// Global processor ids this task occupies (empty for structural).
    /// A transfer's rank `r` on this task's side is processor `procs[r]`.
    pub procs: Vec<u32>,
    /// The compute work.
    pub compute: ComputeSpec,
    /// Per-processor program position: tasks sharing a processor execute
    /// in increasing `program_order`. Ties across different processors
    /// are fine.
    pub program_order: usize,
}

/// An executable task program.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProgram {
    /// Machine size.
    pub procs: u32,
    /// All tasks; `program_order` fields must be consistent with the
    /// transfer dataflow (producers before consumers).
    pub tasks: Vec<SimTask>,
    /// All transfers, in the order their messages are numbered.
    pub transfers: Vec<SimTransfer>,
}

impl TaskProgram {
    /// [`for_each_transfer_message`] over transfer `t`, between its tasks'
    /// processor lists. Panics if an endpoint task is out of range or has
    /// no processors, which [`TaskProgram::validate`] rejects.
    pub(crate) fn for_each_message(&self, t: &SimTransfer, emit: impl FnMut(u32, u32, u64)) {
        let (from, to) = (&self.tasks[t.from_task].procs, &self.tasks[t.to_task].procs);
        for_each_transfer_message(t.bytes, t.kind, from.len(), to.len(), emit);
    }

    /// Every message, in index order: the transfers' in turn, each by
    /// source rank, then destination rank. The index is what seeds the
    /// truth machine's noise.
    ///
    /// # Panics
    /// Panics if a transfer's endpoint task is out of range or has no
    /// processors, which [`TaskProgram::validate`] rejects.
    pub fn messages(&self) -> impl Iterator<Item = SimMessage> + '_ {
        self.transfers.iter().flat_map(move |t| {
            let (from, to) = (&self.tasks[t.from_task].procs, &self.tasks[t.to_task].procs);
            let mut messages = Vec::with_capacity(self.transfer_message_count(t));
            self.for_each_message(t, |sr, dr, bytes| {
                messages.push(SimMessage {
                    from_task: t.from_task,
                    to_task: t.to_task,
                    src_proc: from[sr as usize],
                    dst_proc: to[dr as usize],
                    bytes,
                });
            });
            messages
        })
    }

    /// The number of messages of transfer `t`; panics as
    /// `for_each_message` does.
    pub(crate) fn transfer_message_count(&self, t: &SimTransfer) -> usize {
        let (from, to) = (&self.tasks[t.from_task].procs, &self.tasks[t.to_task].procs);
        message_count(t.bytes, t.kind, from.len(), to.len())
    }

    /// The number of messages [`TaskProgram::messages`] yields.
    ///
    /// # Panics
    /// Panics as [`TaskProgram::messages`] does.
    pub fn message_count(&self) -> usize {
        self.transfers.iter().map(|t| self.transfer_message_count(t)).sum()
    }

    /// Validate internal consistency: processor ids are in range and
    /// listed once per task, every transfer joins two tasks that have
    /// processors, in dataflow order, and no processor holds two tasks at
    /// one program position. O(P log P + T) in the P processor slots and
    /// the T transfers; a valid program costs two allocations whatever
    /// its size — an error string is built only when there is an error to
    /// report.
    pub fn validate(&self) -> Result<(), String> {
        // One task's processors at a time, sorted: a processor listed
        // twice is its own neighbour.
        let mut sorted: Vec<u32> =
            Vec::with_capacity(self.tasks.iter().map(|t| t.procs.len()).max().unwrap_or(0));
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(p) = t.procs.iter().find(|&&p| p >= self.procs) {
                return Err(format!("task {i} uses invalid processor {p}"));
            }
            sorted.clear();
            sorted.extend_from_slice(&t.procs);
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("task {i} lists a processor twice"));
            }
        }
        for (k, tr) in self.transfers.iter().enumerate() {
            let from = self
                .tasks
                .get(tr.from_task)
                .ok_or_else(|| format!("transfer {k}: bad from_task"))?;
            let to =
                self.tasks.get(tr.to_task).ok_or_else(|| format!("transfer {k}: bad to_task"))?;
            if let Some(empty) =
                [(tr.from_task, from), (tr.to_task, to)].iter().find(|(_, t)| t.procs.is_empty())
            {
                return Err(format!("transfer {k}: task {} has no processors", empty.0));
            }
            if from.program_order >= to.program_order {
                return Err(format!(
                    "transfer {k}: producer order {} >= consumer order {}",
                    from.program_order, to.program_order
                ));
            }
            if tr.bytes == 0 {
                return Err(format!("transfer {k}: zero bytes"));
            }
        }
        // Per-processor order keys must be unique (a processor cannot run
        // two tasks at the same program position). Sorted, a clash is a
        // pair of neighbours; the one reported is the one a walk over the
        // tasks and their processors would meet first.
        let mut slots: Vec<(usize, u32, usize)> =
            Vec::with_capacity(self.tasks.iter().map(|t| t.procs.len()).sum());
        for t in &self.tasks {
            for &p in &t.procs {
                slots.push((t.program_order, p, slots.len()));
            }
        }
        slots.sort_unstable();
        let clash = slots
            .windows(2)
            .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
            .map(|w| w[1])
            .min_by_key(|&(_, _, met)| met);
        if let Some((order, p, _)) = clash {
            return Err(format!("processor {p} has two tasks at program order {order}"));
        }
        Ok(())
    }
}

/// A [`TaskProgram`] that [`TaskProgram::validate`] accepts: what the
/// engines run. Only the lowerings ([`crate::lower_mpmd`],
/// [`crate::lower_spmd`]), which build a valid program from a valid
/// schedule, and [`ValidProgram::new`], which validates, make one, so a
/// program is checked once however often it runs. It reads as the
/// program it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidProgram(TaskProgram);

impl ValidProgram {
    /// `prog`, once [`TaskProgram::validate`] accepts it; its message
    /// otherwise.
    pub fn new(prog: TaskProgram) -> Result<ValidProgram, String> {
        prog.validate()?;
        Ok(ValidProgram(prog))
    }

    /// A program its builder made valid: a lowering's. Debug builds
    /// check it.
    pub(crate) fn lowered(prog: TaskProgram) -> ValidProgram {
        debug_assert_eq!(prog.validate(), Ok(()), "a lowering built an invalid program");
        ValidProgram(prog)
    }
}

impl std::ops::Deref for ValidProgram {
    type Target = TaskProgram;

    fn deref(&self) -> &TaskProgram {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_task_program() -> TaskProgram {
        TaskProgram {
            procs: 4,
            tasks: vec![
                SimTask {
                    node: NodeId(1),
                    name: "a".into(),
                    procs: vec![0, 1],
                    compute: ComputeSpec::Explicit { params: AmdahlParams::new(0.1, 1.0) },
                    program_order: 0,
                },
                SimTask {
                    node: NodeId(2),
                    name: "b".into(),
                    procs: vec![2, 3],
                    compute: ComputeSpec::Explicit { params: AmdahlParams::new(0.1, 1.0) },
                    program_order: 1,
                },
            ],
            transfers: vec![SimTransfer {
                from_task: 0,
                to_task: 1,
                kind: TransferKind::OneD,
                bytes: 1024,
            }],
        }
    }

    #[test]
    fn valid_program_passes() {
        two_task_program().validate().unwrap();
    }

    #[test]
    fn order_violation_rejected() {
        let mut p = two_task_program();
        p.tasks[1].program_order = 0;
        let err = p.validate().unwrap_err();
        assert!(err.contains("order"), "{err}");
    }

    #[test]
    fn duplicate_processor_rejected() {
        let mut p = two_task_program();
        p.tasks[0].procs = vec![0, 0];
        assert!(p.validate().unwrap_err().contains("twice"));
    }

    /// Every rejection, with the words it uses; and where a program has
    /// two faults, the one that is reported (tasks before transfers before
    /// program positions, each in index order). A message's endpoints are
    /// its tasks' processors by construction, so no rejection names one.
    #[test]
    fn every_rejection_has_its_message_and_its_place_in_the_order() {
        type Fault = fn(&mut TaskProgram);
        fn spare(procs: &[u32], program_order: usize) -> SimTask {
            SimTask {
                node: NodeId(3),
                name: "c".into(),
                procs: procs.to_vec(),
                compute: ComputeSpec::None,
                program_order,
            }
        }
        let invalid_proc: Fault = |p| p.tasks[1].procs = vec![2, 9];
        let listed_twice: Fault = |p| p.tasks[0].procs = vec![1, 0, 1];
        let bad_from: Fault = |p| p.transfers[0].from_task = 7;
        let bad_to: Fault = |p| p.transfers[0].to_task = 2;
        let no_procs: Fault = |p| p.tasks[1].procs.clear();
        let order: Fault = |p| p.tasks[1].program_order = 0;
        let zero_bytes: Fault = |p| p.transfers[0].bytes = 0;
        let second_transfer_bad: Fault = |p| {
            let t = SimTransfer { from_task: 9, ..p.transfers[0] };
            p.transfers.push(t);
        };
        let clash_on_3: Fault = |p| p.tasks.push(spare(&[3], 1));
        let clash_on_0: Fault = |p| p.tasks.push(spare(&[0], 0));
        let table: [(&[Fault], &str); 14] = [
            (&[invalid_proc], "task 1 uses invalid processor 9"),
            (&[listed_twice], "task 0 lists a processor twice"),
            (&[bad_from], "transfer 0: bad from_task"),
            (&[bad_to], "transfer 0: bad to_task"),
            (&[no_procs], "transfer 0: task 1 has no processors"),
            (&[order], "transfer 0: producer order 0 >= consumer order 0"),
            (&[zero_bytes], "transfer 0: zero bytes"),
            (&[clash_on_3], "processor 3 has two tasks at program order 1"),
            // Two faults: the earlier check, then the earlier index, wins.
            (&[invalid_proc, listed_twice], "task 0 lists a processor twice"),
            (&[zero_bytes, bad_to], "transfer 0: bad to_task"),
            (&[order, no_procs], "transfer 0: task 1 has no processors"),
            (&[second_transfer_bad, zero_bytes], "transfer 0: zero bytes"),
            (&[clash_on_3, order], "transfer 0: producer order 0 >= consumer order 0"),
            // The clash a walk over tasks and processors meets first, not
            // the one with the smallest key.
            (&[clash_on_3, clash_on_0], "processor 3 has two tasks at program order 1"),
        ];
        for (faults, message) in table {
            let mut p = two_task_program();
            for fault in faults {
                fault(&mut p);
            }
            assert_eq!(p.validate().unwrap_err(), message);
        }
    }

    #[test]
    fn local_message_detection() {
        let m = SimMessage { from_task: 0, to_task: 1, src_proc: 3, dst_proc: 3, bytes: 8 };
        assert!(m.is_local());
    }

    fn synthesize(bytes: u64, kind: TransferKind, qs: usize, qd: usize) -> Vec<(u32, u32, u64)> {
        let mut messages = Vec::new();
        for_each_transfer_message(bytes, kind, qs, qd, |i, j, b| messages.push((i, j, b)));
        messages
    }

    #[test]
    fn one_d_message_synthesis_matches_model_counts() {
        // p_i = 2 -> p_j = 8: 8 messages, each src proc sends 4.
        let msgs = synthesize(32768, TransferKind::OneD, 2, 8);
        assert_eq!(msgs.len(), 8);
        let from0 = msgs.iter().filter(|m| m.0 == 0).count();
        assert_eq!(from0, 4);
        let total: u64 = msgs.iter().map(|m| m.2).sum();
        assert_eq!(total, 32768);
    }

    #[test]
    fn one_d_equal_groups_is_rank_to_rank() {
        let msgs = synthesize(32768, TransferKind::OneD, 4, 4);
        assert_eq!(msgs.len(), 4);
        assert!(msgs.iter().all(|m| m.0 == m.1));
    }

    #[test]
    fn two_d_all_pairs() {
        let msgs = synthesize(32768, TransferKind::TwoD, 3, 5);
        assert_eq!(msgs.len(), 15);
        let total: u64 = msgs.iter().map(|m| m.2).sum();
        assert_eq!(total, 32768);
    }

    /// The stepped blocks are `block_range`'s: every message of both kinds
    /// is an overlap (1D) or a piece of a source block (2D) computed
    /// directly, in the same order.
    #[test]
    fn transfer_messages_are_the_block_range_overlaps() {
        use paradigm_kernels::block_range;
        for bytes in [1u64, 2, 7, 64, 1000, 32768] {
            for qs in 1..=9 {
                for qd in 1..=9 {
                    let total = bytes as usize;
                    let mut one_d = Vec::new();
                    let mut two_d = Vec::new();
                    for i in 0..qs {
                        let (s0, sl) = block_range(total, qs, i);
                        for j in 0..qd {
                            let (d0, dl) = block_range(total, qd, j);
                            let (lo, hi) = (s0.max(d0), (s0 + sl).min(d0 + dl));
                            if hi > lo {
                                one_d.push((i as u32, j as u32, (hi - lo) as u64));
                            }
                            let (_, piece) = block_range(sl, qd, j);
                            if piece > 0 {
                                two_d.push((i as u32, j as u32, piece as u64));
                            }
                        }
                    }
                    let got = |kind| synthesize(bytes, kind, qs, qd);
                    assert_eq!(got(TransferKind::OneD), one_d, "1D {bytes} B {qs} -> {qd}");
                    assert_eq!(got(TransferKind::TwoD), two_d, "2D {bytes} B {qs} -> {qd}");
                    let count = |kind| message_count(bytes, kind, qs, qd);
                    assert_eq!(count(TransferKind::OneD), one_d.len(), "1D {bytes} B {qs} -> {qd}");
                    assert_eq!(count(TransferKind::TwoD), two_d.len(), "2D {bytes} B {qs} -> {qd}");
                }
            }
        }
    }

    #[test]
    fn messages_map_ranks_to_their_tasks_processors() {
        let mut p = two_task_program();
        p.tasks[1].procs = vec![3, 2];
        p.transfers.push(SimTransfer { kind: TransferKind::TwoD, bytes: 3, ..p.transfers[0] });
        let msgs: Vec<_> = p.messages().map(|m| (m.src_proc, m.dst_proc, m.bytes)).collect();
        assert_eq!(msgs, [(0, 3, 512), (1, 2, 512), (0, 3, 1), (0, 2, 1), (1, 3, 1)]);
        assert_eq!(p.message_count(), 5);
    }
}
