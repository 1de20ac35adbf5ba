//! The execution engine: a deterministic per-processor program-order
//! sweep.
//!
//! Because an MPMD program's per-processor instruction order is fixed at
//! compile time, execution can be simulated by visiting tasks in program
//! order and advancing per-processor clocks — no speculative event queue
//! is needed, yet the result is exactly what an event-driven simulation
//! of the same static program would produce. Each task executes in three
//! phases:
//!
//! 1. **receive** — every processor of the task processes the messages
//!    addressed to it (startup + per-byte each, in availability order;
//!    local copies pay the reduced memory-copy cost); the CM-5-style
//!    receive-side network transfer means a message only becomes
//!    available after its *send* completed, plus `t_n` network delay
//!    (zero on the CM-5);
//! 2. **compute** — a barrier across the task's processors, then the
//!    ground-truth kernel time;
//! 3. **send** — every processor injects its outgoing messages
//!    (startup + per-byte each) and records their completion times.
//!
//! The sweep walks two flat message indices built by stable counting
//! passes, so a run costs O(M log q) in the M messages (the log is the
//! availability sort within one processor's receives) and allocates a
//! fixed number of buffers plus one window list a task.
//!
//! [`SimResult`] holds the times an engine observed and nothing derived
//! from them. What is *resident* between those times — the per-processor
//! memory peaks the static analyzer's bound must dominate — is defined
//! once, in [`SimResult::proc_peak_bytes`], for this engine and for
//! [`crate::engine_event`] alike, and computed only for a caller that
//! asks.

use crate::program::{ComputeSpec, TaskProgram};
use crate::truth::TrueMachine;
use std::ops::Range;

/// Result of simulating a task program.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Time at which the last processor went idle — the measured
    /// execution time of the program.
    pub makespan: f64,
    /// Per-task compute-phase start (0 for structural tasks).
    pub task_start: Vec<f64>,
    /// Per-task finish (end of send phase, max over the task's procs).
    pub task_finish: Vec<f64>,
    /// Busy seconds per processor (receive + compute + send, no waits).
    pub proc_busy: Vec<f64>,
    /// Number of real (cross-processor) messages executed.
    pub messages_sent: usize,
    /// Number of local copies executed.
    pub local_copies: usize,
    /// Per-task processor-time spent in the three phases
    /// `(receive, compute, send)`, summed over the task's processors.
    pub task_phase_times: Vec<(f64, f64, f64)>,
    /// Per task, per rank (position in [`crate::SimTask::procs`]): the
    /// processor's involvement window, from the start of its receives to
    /// the end of its own sends.
    pub involvement: Vec<Vec<(f64, f64)>>,
    /// Per message: the instant it became available to its receiver (the
    /// end of its send plus the network delay; the end of the producer's
    /// compute phase for a local copy).
    pub msg_avail: Vec<f64>,
}

impl SimResult {
    /// Average processor utilization: busy time over `p * makespan`.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.proc_busy.iter().sum();
        busy / (self.proc_busy.len() as f64 * self.makespan)
    }

    /// Peak resident bytes of each processor over the run of `prog` this
    /// result came from: the even share of the active task's kernel array
    /// over the rank's involvement window, plus every message payload held
    /// — on its source from the producer's compute start until the message
    /// has left, on its destination from arrival until the consuming task
    /// finishes. This is the concrete measurement the static analyzer's
    /// per-processor upper bound must dominate, and the one definition of
    /// residency for both engines: they record the times, this function
    /// owns what is resident between them. Computed on request (it sorts
    /// four events a message), so a caller after the makespan pays nothing.
    ///
    /// # Panics
    /// Panics if `prog` is not the program that was simulated.
    pub fn proc_peak_bytes(&self, prog: &TaskProgram) -> Vec<f64> {
        assert!(
            self.involvement.len() == prog.tasks.len()
                && self.msg_avail.len() == prog.messages.len()
                && self.proc_busy.len() == prog.procs as usize,
            "result and program differ in shape"
        );
        let mut residency = Vec::with_capacity(4 * prog.messages.len());
        for (task, windows) in prog.tasks.iter().zip(&self.involvement) {
            let ComputeSpec::Kernel { rows, cols, .. } = &task.compute else { continue };
            let local_share = (*rows as f64) * (*cols as f64) * 8.0 / task.procs.len() as f64;
            for (&pid, &(from, to)) in task.procs.iter().zip(windows) {
                if local_share > 0.0 && to > from {
                    residency.push((pid as usize, from, local_share));
                    residency.push((pid as usize, to, -local_share));
                }
            }
        }
        for (m, &avail) in prog.messages.iter().zip(&self.msg_avail) {
            let bytes = m.bytes as f64;
            let start = self.task_start[m.from_task];
            if avail > start {
                residency.push((m.src_proc as usize, start, bytes));
                residency.push((m.src_proc as usize, avail, -bytes));
            }
            let finish = self.task_finish[m.to_task];
            if finish > avail {
                residency.push((m.dst_proc as usize, avail, bytes));
                residency.push((m.dst_proc as usize, finish, -bytes));
            }
        }
        sweep_residency(prog.procs as usize, residency)
    }

    /// Largest resident set any processor held at any instant of the run
    /// of `prog`: the maximum of [`SimResult::proc_peak_bytes`].
    pub fn peak_resident_bytes(&self, prog: &TaskProgram) -> f64 {
        self.proc_peak_bytes(prog).into_iter().fold(0.0, f64::max)
    }
}

/// Per-processor resident-set sweep over `(proc, time, ±bytes)` events;
/// releases sort before acquisitions at equal times so back-to-back
/// intervals do not double-count.
fn sweep_residency(np: usize, mut events: Vec<(usize, f64, f64)>) -> Vec<f64> {
    events
        .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.total_cmp(&b.2)));
    let mut peaks = vec![0.0_f64; np];
    let (mut on, mut resident) = (usize::MAX, 0.0_f64);
    for (p, _, d) in events {
        if p != on {
            (on, resident) = (p, 0.0);
        }
        resident += d;
        peaks[p] = peaks[p].max(resident);
    }
    peaks
}

/// One stable counting pass: writes the items of `src` to `dst` ordered
/// by `key` (each below `buckets`), equal keys in `src` order. Returns the
/// bucket offsets: bucket `b` is `dst[off[b]..off[b + 1]]`.
fn counting_pass(
    src: impl Iterator<Item = usize> + Clone,
    dst: &mut [usize],
    buckets: usize,
    key: impl Fn(usize) -> usize,
) -> Vec<usize> {
    // Counted two slots up and scattered through the slot in between, so
    // the cursors end as the offsets.
    let mut off = vec![0usize; buckets + 2];
    for k in src.clone() {
        off[key(k) + 2] += 1;
    }
    for b in 2..buckets + 2 {
        off[b] += off[b - 1];
    }
    for k in src {
        let slot = &mut off[key(k) + 1];
        dst[*slot] = k;
        *slot += 1;
    }
    off.truncate(buckets + 1);
    off
}

/// The run of `proc`'s messages in a slice ordered by `proc_of`.
fn run_of(ordered: &[usize], proc: u32, proc_of: impl Fn(usize) -> u32) -> Range<usize> {
    let lo = ordered.partition_point(|&k| proc_of(k) < proc);
    lo..lo + ordered[lo..].partition_point(|&k| proc_of(k) == proc)
}

/// Execute `prog` on the ground-truth machine: O(M log q) in the
/// messages, and a fixed number of allocations plus one window list a
/// task.
///
/// ```
/// use paradigm_mdg::{complex_matmul_mdg, KernelCostTable};
/// use paradigm_sim::{lower_spmd, simulate, TrueMachine};
///
/// let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
/// let prog = lower_spmd(&g, 16);
/// let result = simulate(&prog, &TrueMachine::cm5(16));
/// assert!(result.makespan > 0.0);
/// assert!(result.utilization() <= 1.0);
/// ```
///
/// # Panics
/// Panics if the program fails validation.
pub fn simulate(prog: &TaskProgram, truth: &TrueMachine) -> SimResult {
    prog.validate().unwrap_or_else(|e| panic!("invalid task program: {e}"));
    let nt = prog.tasks.len();
    let np = prog.procs as usize;
    let msgs = &prog.messages;

    // Visit order: program order (producers always precede consumers).
    let mut order: Vec<usize> = (0..nt).collect();
    order.sort_by_key(|&t| prog.tasks[t].program_order);
    // Dense ranks of the program order: tasks that tie share one.
    let mut order_rank = vec![0usize; nt];
    let mut ranks = 0;
    for (i, &t) in order.iter().enumerate() {
        if i > 0 && prog.tasks[t].program_order != prog.tasks[order[i - 1]].program_order {
            ranks += 1;
        }
        order_rank[t] = ranks;
    }

    // Two flat message indices with per-task offsets, each built by
    // stable counting passes from the least significant key up. Inbound:
    // by (consumer, destination processor, message). Outbound: by
    // (producer, source processor, consumer's program order, message) —
    // senders emit in consumer program order, the order codegen laid the
    // sends out in the per-processor program.
    let mut inbound = vec![0usize; msgs.len()];
    let mut outbound = vec![0usize; msgs.len()];
    let mut pass = vec![0usize; msgs.len()];
    counting_pass(0..msgs.len(), &mut pass, np, |k| msgs[k].dst_proc as usize);
    let in_off = counting_pass(pass.iter().copied(), &mut inbound, nt, |k| msgs[k].to_task);
    counting_pass(0..msgs.len(), &mut outbound, ranks + 1, |k| order_rank[msgs[k].to_task]);
    counting_pass(outbound.iter().copied(), &mut pass, np, |k| msgs[k].src_proc as usize);
    let out_off = counting_pass(pass.iter().copied(), &mut outbound, nt, |k| msgs[k].from_task);

    let mut clock = vec![0.0_f64; np];
    let mut busy = vec![0.0_f64; np];
    let mut avail = vec![f64::NAN; msgs.len()];
    let mut task_start = vec![0.0_f64; nt];
    let mut task_finish = vec![0.0_f64; nt];
    let mut messages_sent = 0usize;
    let mut local_copies = 0usize;
    let mut task_phase_times = vec![(0.0_f64, 0.0_f64, 0.0_f64); nt];
    let mut involvement: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nt];

    for &t in &order {
        let task = &prog.tasks[t];
        if task.procs.is_empty() {
            // Structural: nothing to execute.
            continue;
        }
        let received = &mut inbound[in_off[t]..in_off[t + 1]];
        let sent = &outbound[out_off[t]..out_off[t + 1]];
        let mut windows = Vec::with_capacity(task.procs.len());
        // Phase 1: receive, per processor, in availability order; the
        // barrier opens when the last processor is done.
        let mut start = 0.0_f64;
        for &pid in &task.procs {
            let run = run_of(received, pid, |k| msgs[k].dst_proc);
            let mine = &mut received[run];
            mine.sort_unstable_by(|&a, &b| {
                avail[a].partial_cmp(&avail[b]).expect("finite availability").then(a.cmp(&b))
            });
            let mut now = clock[pid as usize];
            windows.push((now, now));
            for &k in mine.iter() {
                let m = &msgs[k];
                debug_assert!(avail[k].is_finite(), "message consumed before production");
                let cost = if m.is_local() {
                    local_copies += 1;
                    truth.local_copy_time(m.bytes, k as u64)
                } else {
                    messages_sent += 1;
                    truth.recv_time(m.bytes, k as u64)
                };
                now = now.max(avail[k]) + cost;
                busy[pid as usize] += cost;
                task_phase_times[t].0 += cost;
            }
            start = start.max(now);
        }
        // Phase 2: barrier + compute.
        let q = task.procs.len() as u32;
        let comp = match &task.compute {
            ComputeSpec::Kernel { class, rows, cols } => {
                truth.kernel_time(class, *rows, *cols, q, t as u64)
            }
            ComputeSpec::Explicit { params } => truth.explicit_time(*params, q, 0.0, t as u64),
            ComputeSpec::None => 0.0,
        };
        let end_compute = start + comp;
        task_start[t] = start;
        for &pid in &task.procs {
            busy[pid as usize] += comp;
            task_phase_times[t].1 += comp;
        }
        // Phase 3: send, per processor, in program order of consumers.
        let mut finish = end_compute;
        for (&pid, window) in task.procs.iter().zip(&mut windows) {
            let mut now = end_compute;
            for &k in &sent[run_of(sent, pid, |k| msgs[k].src_proc)] {
                let m = &msgs[k];
                if m.is_local() {
                    // Local copy: paid on the receive side; available as
                    // soon as the data exists.
                    avail[k] = end_compute;
                } else {
                    let cost = truth.send_time(m.bytes, k as u64);
                    now += cost;
                    busy[pid as usize] += cost;
                    task_phase_times[t].2 += cost;
                    avail[k] = now + truth.net_delay(m.bytes);
                }
            }
            clock[pid as usize] = now;
            finish = finish.max(now);
            window.1 = now;
        }
        task_finish[t] = finish;
        involvement[t] = windows;
    }

    SimResult {
        makespan: clock.iter().copied().fold(0.0_f64, f64::max),
        task_start,
        task_finish,
        proc_busy: busy,
        messages_sent,
        local_copies,
        task_phase_times,
        involvement,
        msg_avail: avail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{lower_mpmd, lower_spmd};
    use crate::program::{SimMessage, SimTask};
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, AmdahlParams, KernelCostTable, NodeId,
    };
    use paradigm_sched::{psa_schedule, spmd_schedule, PsaConfig};

    #[test]
    fn empty_program_has_zero_makespan() {
        let prog = TaskProgram { procs: 4, tasks: vec![], messages: vec![] };
        let r = simulate(&prog, &TrueMachine::ideal(4));
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn single_task_time_matches_truth() {
        let params = AmdahlParams::new(0.1, 2.0);
        let prog = TaskProgram {
            procs: 4,
            tasks: vec![SimTask {
                node: NodeId(1),
                name: "solo".into(),
                procs: vec![0, 1, 2, 3],
                compute: ComputeSpec::Explicit { params },
                program_order: 0,
            }],
            messages: vec![],
        };
        let truth = TrueMachine::ideal(4);
        let r = simulate(&prog, &truth);
        assert!((r.makespan - params.cost(4.0)).abs() < 1e-12);
        assert!((r.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn message_costs_appear_on_both_sides() {
        let params = AmdahlParams::new(0.0, 1.0);
        let task = |node: usize, procs: Vec<u32>, ord: usize| SimTask {
            node: NodeId(node),
            name: format!("t{node}"),
            procs,
            compute: ComputeSpec::Explicit { params },
            program_order: ord,
        };
        let prog = TaskProgram {
            procs: 2,
            tasks: vec![task(1, vec![0], 0), task(2, vec![1], 1)],
            messages: vec![SimMessage {
                from_task: 0,
                to_task: 1,
                src_proc: 0,
                dst_proc: 1,
                bytes: 32768,
            }],
        };
        let truth = TrueMachine::ideal(2);
        let r = simulate(&prog, &truth);
        // t1 computes 1s, sends (t_ss + L t_ps); t2 receives then computes.
        let expect = 1.0 + truth.send_time(32768, 0) + truth.recv_time(32768, 0) + 1.0;
        assert!((r.makespan - expect).abs() < 1e-12, "{} vs {expect}", r.makespan);
        assert_eq!(r.messages_sent, 1);
        assert_eq!(r.local_copies, 0);
    }

    #[test]
    fn local_copy_is_cheap_and_ordering_preserving() {
        let params = AmdahlParams::new(0.0, 1.0);
        let task = |node: usize, ord: usize| SimTask {
            node: NodeId(node),
            name: format!("t{node}"),
            procs: vec![0],
            compute: ComputeSpec::Explicit { params },
            program_order: ord,
        };
        let prog = TaskProgram {
            procs: 1,
            tasks: vec![task(1, 0), task(2, 1)],
            messages: vec![SimMessage {
                from_task: 0,
                to_task: 1,
                src_proc: 0,
                dst_proc: 0,
                bytes: 32768,
            }],
        };
        let truth = TrueMachine::ideal(1);
        let r = simulate(&prog, &truth);
        let copy = truth.local_copy_time(32768, 0);
        assert!((r.makespan - (2.0 + copy)).abs() < 1e-12);
        assert_eq!(r.local_copies, 1);
    }

    #[test]
    fn parallel_tasks_overlap_in_time() {
        let params = AmdahlParams::new(0.0, 1.0);
        let task = |node: usize, procs: Vec<u32>, ord: usize| SimTask {
            node: NodeId(node),
            name: format!("t{node}"),
            procs,
            compute: ComputeSpec::Explicit { params },
            program_order: ord,
        };
        let prog = TaskProgram {
            procs: 2,
            tasks: vec![task(1, vec![0], 0), task(2, vec![1], 1)],
            messages: vec![],
        };
        let r = simulate(&prog, &TrueMachine::ideal(2));
        // Independent tasks on different processors: both finish at 1s.
        assert!((r.makespan - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig1_mpmd_simulation_close_to_schedule_prediction() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let mut alloc = Allocation::uniform(&g, 1.0);
        alloc.set(NodeId(1), 4.0);
        alloc.set(NodeId(2), 2.0);
        alloc.set(NodeId(3), 2.0);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let r = simulate(&prog, &TrueMachine::cm5(4));
        // Truth wobble/noise is a few percent; the token messages are
        // negligible. Predicted 14.3 s.
        let rel = (r.makespan - res.t_psa).abs() / res.t_psa;
        assert!(rel < 0.05, "simulated {} vs predicted {}", r.makespan, res.t_psa);
    }

    #[test]
    fn cmm_spmd_simulation_close_to_spmd_prediction() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let (sched, _w) = spmd_schedule(&g, m);
        let prog = lower_spmd(&g, 16);
        let r = simulate(&prog, &TrueMachine::cm5(16));
        // SPMD's 1D transfers all become local copies, which the model
        // charges as full messages — the simulation should come in at or
        // below the prediction, within a modest band.
        assert!(r.makespan <= sched.makespan * 1.05, "{} vs {}", r.makespan, sched.makespan);
        assert!(r.makespan >= sched.makespan * 0.5, "{} vs {}", r.makespan, sched.makespan);
    }

    #[test]
    fn mpmd_beats_spmd_in_simulation_cmm64() {
        // The headline claim (Figure 8), at the simulator level.
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let p = 64u32;
        let m = Machine::cm5(p);
        let sol = paradigm_solver::allocate(&g, m, &paradigm_solver::SolverConfig::fast());
        let res = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
        let truth = TrueMachine::cm5(p);
        let mpmd = simulate(&lower_mpmd(&g, &res.schedule), &truth);
        let spmd = simulate(&lower_spmd(&g, p), &truth);
        assert!(
            mpmd.makespan < spmd.makespan,
            "MPMD {} should beat SPMD {}",
            mpmd.makespan,
            spmd.makespan
        );
    }

    #[test]
    fn resident_set_accounting_tracks_kernel_arrays_and_messages() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let r = simulate(&prog, &TrueMachine::cm5(16));
        assert_eq!(r.proc_peak_bytes(&prog).len(), 16);
        let peak = r.peak_resident_bytes(&prog);
        // Every 64x64 kernel task holds at least its share of one 32 KiB
        // array on each of its 4 processors.
        assert!(peak >= 32768.0 / 4.0, "{peak}");
        // And nothing can exceed all arrays + all payloads at once.
        let all_bytes: u64 = paradigm_mdg::total_comm_bytes(&g)
            + g.nodes().map(|(_, n)| n.meta.rows as u64 * n.meta.cols as u64 * 8).sum::<u64>();
        assert!(peak <= all_bytes as f64);
    }

    #[test]
    fn empty_program_has_zero_resident_peak() {
        let prog = TaskProgram { procs: 2, tasks: vec![], messages: vec![] };
        let r = simulate(&prog, &TrueMachine::ideal(2));
        assert_eq!(r.peak_resident_bytes(&prog), 0.0);
    }

    #[test]
    fn busy_time_never_exceeds_makespan_per_proc() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let prog = lower_spmd(&g, 8);
        let r = simulate(&prog, &TrueMachine::cm5(8));
        for (pid, &b) in r.proc_busy.iter().enumerate() {
            assert!(b <= r.makespan + 1e-9, "proc {pid} busy {b} > makespan {}", r.makespan);
        }
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }
}
