//! Task-program representation — the simulator's executable format.
//!
//! A [`TaskProgram`] is what the paper's Step 5 ("create an executable
//! program for each processor") produces: every task knows its processor
//! set, its compute kernel, and the exact point-to-point messages it
//! receives. Per-processor program order is fixed at codegen time (field
//! [`SimTask::program_order`]), exactly like a compiled MPMD binary —
//! runtime timing variations can stretch the execution but never reorder
//! it.
//!
//! [`TaskProgram::validate`] is the gate every engine runs first; on a
//! valid program it is O(M log q) in the messages and three allocations.

use paradigm_mdg::{AmdahlParams, LoopClass, NodeId};

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

/// One task of the program.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTask {
    /// MDG node this task realizes.
    pub node: NodeId,
    /// Display name.
    pub name: String,
    /// Global processor ids this task occupies (empty for structural).
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
    /// message dataflow (producers before consumers).
    pub tasks: Vec<SimTask>,
    /// All messages.
    pub messages: Vec<SimMessage>,
}

impl TaskProgram {
    /// Messages consumed by task `t`.
    pub fn inbound(&self, t: usize) -> impl Iterator<Item = &SimMessage> {
        self.messages.iter().filter(move |m| m.to_task == t)
    }

    /// Messages produced by task `t`.
    pub fn outbound(&self, t: usize) -> impl Iterator<Item = &SimMessage> {
        self.messages.iter().filter(move |m| m.from_task == t)
    }

    /// Validate internal consistency: endpoint processors belong to the
    /// right tasks, program order respects dataflow, processor ids are in
    /// range. O(M log q) in the messages; a valid program costs three
    /// allocations whatever its size — an error string is built only when
    /// there is an error to report.
    pub fn validate(&self) -> Result<(), String> {
        // Every task's processors, sorted, in one flat list: a processor
        // listed twice is its own neighbour, and whether a message endpoint
        // belongs to its task is a binary search.
        let mut sorted: Vec<u32> =
            Vec::with_capacity(self.tasks.iter().map(|t| t.procs.len()).sum());
        let mut offsets = Vec::with_capacity(self.tasks.len() + 1);
        offsets.push(0);
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(p) = t.procs.iter().find(|&&p| p >= self.procs) {
                return Err(format!("task {i} uses invalid processor {p}"));
            }
            let at = sorted.len();
            sorted.extend_from_slice(&t.procs);
            sorted[at..].sort_unstable();
            if sorted[at..].windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("task {i} lists a processor twice"));
            }
            offsets.push(sorted.len());
        }
        let runs_on = |task: usize, p: u32| {
            sorted[offsets[task]..offsets[task + 1]].binary_search(&p).is_ok()
        };
        for (k, m) in self.messages.iter().enumerate() {
            let from =
                self.tasks.get(m.from_task).ok_or_else(|| format!("msg {k}: bad from_task"))?;
            let to = self.tasks.get(m.to_task).ok_or_else(|| format!("msg {k}: bad to_task"))?;
            if !runs_on(m.from_task, m.src_proc) {
                return Err(format!("msg {k}: src proc {} not in sender", m.src_proc));
            }
            if !runs_on(m.to_task, m.dst_proc) {
                return Err(format!("msg {k}: dst proc {} not in receiver", m.dst_proc));
            }
            if from.program_order >= to.program_order {
                return Err(format!(
                    "msg {k}: producer order {} >= consumer order {}",
                    from.program_order, to.program_order
                ));
            }
            if m.bytes == 0 {
                return Err(format!("msg {k}: zero bytes"));
            }
        }
        // Per-processor order keys must be unique (a processor cannot run
        // two tasks at the same program position). Sorted, a clash is a
        // pair of neighbours; the one reported is the one a walk over the
        // tasks and their processors would meet first.
        let mut slots: Vec<(usize, u32, usize)> = Vec::with_capacity(sorted.len());
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
            messages: vec![SimMessage {
                from_task: 0,
                to_task: 1,
                src_proc: 0,
                dst_proc: 2,
                bytes: 1024,
            }],
        }
    }

    #[test]
    fn valid_program_passes() {
        two_task_program().validate().unwrap();
    }

    #[test]
    fn message_from_foreign_processor_rejected() {
        let mut p = two_task_program();
        p.messages[0].src_proc = 3; // belongs to task 1, not task 0
        assert!(p.validate().unwrap_err().contains("src proc"));
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
    /// two faults, the one that is reported (tasks before messages before
    /// program positions, each in index order).
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
        let bad_from: Fault = |p| p.messages[0].from_task = 7;
        let bad_to: Fault = |p| p.messages[0].to_task = 2;
        let foreign_src: Fault = |p| p.messages[0].src_proc = 3;
        let foreign_dst: Fault = |p| p.messages[0].dst_proc = 1;
        let order: Fault = |p| p.tasks[1].program_order = 0;
        let zero_bytes: Fault = |p| p.messages[0].bytes = 0;
        let second_message_bad: Fault = |p| {
            let m = SimMessage { from_task: 9, ..p.messages[0] };
            p.messages.push(m);
        };
        let clash_on_3: Fault = |p| p.tasks.push(spare(&[3], 1));
        let clash_on_0: Fault = |p| p.tasks.push(spare(&[0], 0));
        let table: [(&[Fault], &str); 14] = [
            (&[invalid_proc], "task 1 uses invalid processor 9"),
            (&[listed_twice], "task 0 lists a processor twice"),
            (&[bad_from], "msg 0: bad from_task"),
            (&[bad_to], "msg 0: bad to_task"),
            (&[foreign_src], "msg 0: src proc 3 not in sender"),
            (&[foreign_dst], "msg 0: dst proc 1 not in receiver"),
            (&[order], "msg 0: producer order 0 >= consumer order 0"),
            (&[zero_bytes], "msg 0: zero bytes"),
            (&[clash_on_3], "processor 3 has two tasks at program order 1"),
            // Two faults: the earlier check, then the earlier index, wins.
            (&[invalid_proc, listed_twice], "task 0 lists a processor twice"),
            (&[zero_bytes, bad_to, foreign_src], "msg 0: bad to_task"),
            (&[second_message_bad, zero_bytes], "msg 0: zero bytes"),
            (&[clash_on_3, foreign_dst], "msg 0: dst proc 1 not in receiver"),
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

    #[test]
    fn inbound_outbound_iterators() {
        let p = two_task_program();
        assert_eq!(p.inbound(1).count(), 1);
        assert_eq!(p.outbound(0).count(), 1);
        assert_eq!(p.inbound(0).count(), 0);
    }
}
