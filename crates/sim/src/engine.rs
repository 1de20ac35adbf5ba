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
//! The sweep never holds a message list. Each task expands its
//! in-transfers into one flat buffer of receipts (message index, bytes,
//! receiving rank, local or not), prices each one — a receive's cost is a
//! function of the message alone — and packs it into a `u64` sort key
//! placed run by run per receiving rank: the availability's bits, then
//! the receipt's position, which within a rank is message-index order
//! (`KeyLayout`). Each run is put in key order by `sort_unstable` and
//! charged in that order. Its sends walk its out-transfers in (consumer
//! program order, transfer index) order, which is each processor's
//! (consumer program order, message index) order. A run costs
//! O(T log T + M log q) in the T transfers and M messages (the log q is
//! the sort within one processor's receives) and allocates a fixed number
//! of buffers plus one window list a task; the only per-message storage
//! is [`SimResult::msg_avail`]. On the pipeline's 40 069-message program
//! (random-layered at p = 64, a 2.1 GHz Xeon VM) a run takes about 28 ns
//! a message, 1.3–1.4× faster than the `partial_cmp` sort of whole
//! receipts it replaced: the receive phase is three quarters of a run and
//! the sort a third of that.
//!
//! [`SimResult`] holds the times an engine observed and nothing derived
//! from them. What is *resident* between those times — the per-processor
//! memory peaks the static analyzer's bound must dominate — is defined
//! once, in [`SimResult::proc_peak_bytes`], for this engine and for
//! [`crate::engine_event`] alike, and computed only for a caller that
//! asks.

use crate::program::{ComputeSpec, SimTransfer, TaskProgram, ValidProgram};
use crate::truth::TrueMachine;

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
                && self.msg_avail.len() == prog.message_count()
                && self.proc_busy.len() == prog.procs as usize,
            "result and program differ in shape"
        );
        let mut residency = Vec::with_capacity(4 * self.msg_avail.len());
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
        for (m, &avail) in prog.messages().zip(&self.msg_avail) {
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

/// One message a task receives, as its transfer yields it: the message
/// index, its payload, the receiving rank and whether it is a local copy.
#[derive(Debug, Clone, Copy)]
struct Receipt {
    k: usize,
    bytes: u64,
    rank: u32,
    local: bool,
}

/// A receipt once priced: when the message became available and what
/// receiving it costs (a function of the message alone, so it is paid for
/// before the order is known).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    avail: f64,
    cost: f64,
}

/// How one task's receipts pack into `u64` sort keys: the availability's
/// bits above the task's least, shifted right by `shift`, over `slot_bits`
/// of the receipt's position in expansion order. A non-negative finite
/// `f64` orders as its bits, and within one rank expansion order is
/// message-index order, so a key orders by (availability, message index)
/// as long as `shift` is 0: the span of a task's availabilities and its
/// positions fit in 64 bits (on the pipeline's random-layered program at
/// p = 64, the widest measured, they take exactly 64). A wider span drops
/// low bits, and [`KeyLayout::sort`] then restores the exact order among
/// the keys that tie. Packing pays: on that program an exact `u128` key
/// (all the bits, then the position) simulated about 11 % slower, and the
/// repair pass forced onto every run about 8 % slower.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    lo: u64,
    shift: u32,
    slot_bits: u32,
}

impl KeyLayout {
    /// The layout of `n` receipts whose availabilities' bits lie in
    /// `lo..=hi`.
    ///
    /// # Panics
    /// Panics if `hi` is not the bits of a finite non-negative `f64`: an
    /// availability that is NaN (a message consumed before it was sent),
    /// infinite or negative.
    fn new(lo: u64, hi: u64, n: usize) -> Self {
        assert!(hi < f64::INFINITY.to_bits(), "finite availability");
        let slot_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        let span_bits = u64::BITS - hi.saturating_sub(lo).leading_zeros();
        KeyLayout { lo, shift: (span_bits + slot_bits).saturating_sub(u64::BITS), slot_bits }
    }

    #[inline]
    fn key(&self, avail: f64, slot: usize) -> u64 {
        ((avail.to_bits() - self.lo) >> self.shift << self.slot_bits) | slot as u64
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key & ((1u64 << self.slot_bits) - 1)) as usize
    }

    /// Sort one rank's keys into (availability, message index) order.
    fn sort(&self, keys: &mut [u64], arrivals: &[Arrival]) {
        keys.sort_unstable();
        if self.shift > 0 {
            // Keys whose availabilities differ only in the dropped bits
            // sit in position order: insertion on the exact pair fixes
            // them, in one pass where nothing tied.
            let exact = |key: u64| (arrivals[self.slot(key)].avail.to_bits(), key);
            for i in 1..keys.len() {
                let mut j = i;
                while j > 0 && exact(keys[j - 1]) > exact(keys[j]) {
                    keys.swap(j - 1, j);
                    j -= 1;
                }
            }
        }
    }
}

/// Transfer indices bucketed by the task `of` names, in index order
/// within a task, and the bucket offsets: task `t`'s are
/// `idx[off[t]..off[t + 1]]`. Counted two slots up and scattered through
/// the slot in between, so the cursors end as the offsets.
fn by_task(
    transfers: &[SimTransfer],
    tasks: usize,
    of: impl Fn(&SimTransfer) -> usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut off = vec![0usize; tasks + 2];
    for tr in transfers {
        off[of(tr) + 2] += 1;
    }
    for t in 2..tasks + 2 {
        off[t] += off[t - 1];
    }
    let mut idx = vec![0usize; transfers.len()];
    for (i, tr) in transfers.iter().enumerate() {
        let slot = &mut off[of(tr) + 1];
        idx[*slot] = i;
        *slot += 1;
    }
    off.truncate(tasks + 1);
    (idx, off)
}

/// Execute `prog` on the ground-truth machine: O(T log T + M log q) in
/// the transfers and messages, and a fixed number of allocations plus one
/// window list a task.
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
/// The program was validated when it was made ([`ValidProgram`]), so
/// nothing is checked here.
pub fn simulate(prog: &ValidProgram, truth: &TrueMachine) -> SimResult {
    let nt = prog.tasks.len();
    let np = prog.procs as usize;
    let tasks = &prog.tasks;
    let transfers = &prog.transfers;

    // Visit order: program order (producers always precede consumers).
    let mut order: Vec<usize> = (0..nt).collect();
    order.sort_by_key(|&t| tasks[t].program_order);

    // Each transfer's first message index, and the most messages one task
    // receives (the receive buffers' size).
    let mut first = Vec::with_capacity(transfers.len() + 1);
    first.push(0usize);
    let mut received = vec![0usize; nt];
    for tr in transfers {
        let n = prog.transfer_message_count(tr);
        first.push(first[first.len() - 1] + n);
        received[tr.to_task] += n;
    }
    let most_received = received.into_iter().max().unwrap_or(0);
    let most_procs = tasks.iter().map(|t| t.procs.len()).max().unwrap_or(0);
    // In-transfers per consumer; out-transfers per producer in consumer
    // program order, the order codegen laid the sends out in the
    // per-processor program.
    let (inbound, in_off) = by_task(transfers, nt, |tr| tr.to_task);
    let (mut outbound, out_off) = by_task(transfers, nt, |tr| tr.from_task);
    for t in 0..nt {
        let outs = &mut outbound[out_off[t]..out_off[t + 1]];
        if outs.len() > 1 {
            outs.sort_unstable_by_key(|&i| (tasks[transfers[i].to_task].program_order, i));
        }
    }

    let mut clock = vec![0.0_f64; np];
    let mut busy = vec![0.0_f64; np];
    let mut avail = vec![f64::NAN; first[transfers.len()]];
    let mut task_start = vec![0.0_f64; nt];
    let mut task_finish = vec![0.0_f64; nt];
    let mut received = 0usize;
    let mut local_copies = 0usize;
    let mut involvement: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nt];
    // Per task: its receipts and their prices in expansion order, the sort
    // keys grouped run by run per rank, and the rank offsets; then each
    // rank's send clock.
    let mut arrivals = vec![Arrival { avail: 0.0, cost: 0.0 }; most_received];
    let mut receipts = vec![Receipt { k: 0, bytes: 0, rank: 0, local: false }; most_received];
    let mut keys: Vec<u64> = vec![0; most_received];
    let mut runs = vec![0usize; most_procs + 2];
    let mut send_clocks = vec![0.0_f64; most_procs];

    for &t in &order {
        let task = &tasks[t];
        let procs = &task.procs[..];
        if procs.is_empty() {
            // Structural: nothing to execute.
            continue;
        }
        let q = procs.len();
        let ins = &inbound[in_off[t]..in_off[t + 1]];
        // Phase 1: receive, per processor, in availability order; the
        // barrier opens when the last processor is done. The receipts are
        // counted per rank two slots up and their keys placed through the
        // slot in between, so the cursors end as the run offsets. Both
        // closures below are inlined into the transfer walk: called once a
        // message, they kept every captured buffer in memory and measured
        // slower.
        let run = &mut runs[..q + 2];
        run.fill(0);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        let mut n = 0;
        for &tr in ins {
            for a in &avail[first[tr]..first[tr + 1]] {
                (lo, hi) = (lo.min(a.to_bits()), hi.max(a.to_bits()));
            }
            let from = &tasks[transfers[tr].from_task].procs[..];
            let mut k = first[tr];
            prog.for_each_message(
                &transfers[tr],
                #[inline(always)]
                |sr, rank, bytes| {
                    let local = from[sr as usize] == procs[rank as usize];
                    receipts[n] = Receipt { k, bytes, rank, local };
                    run[rank as usize + 2] += 1;
                    n += 1;
                    k += 1;
                },
            );
        }
        for r in 2..q + 2 {
            run[r] += run[r - 1];
        }
        let arrivals = &mut arrivals[..n];
        let layout = KeyLayout::new(lo, hi, n);
        for (j, (m, arrival)) in receipts[..n].iter().zip(arrivals.iter_mut()).enumerate() {
            let cost = if m.local {
                local_copies += 1;
                truth.local_copy_time(m.bytes, m.k as u64)
            } else {
                truth.recv_time(m.bytes, m.k as u64)
            };
            *arrival = Arrival { avail: avail[m.k], cost };
            let slot = &mut run[m.rank as usize + 1];
            keys[*slot] = layout.key(arrival.avail, j);
            *slot += 1;
        }
        let arrivals = &*arrivals;
        for r in 0..q {
            layout.sort(&mut keys[run[r]..run[r + 1]], arrivals);
        }
        let mut windows = Vec::with_capacity(q);
        let mut start = 0.0_f64;
        for (r, &pid) in procs.iter().enumerate() {
            let mut now = clock[pid as usize];
            windows.push((now, now));
            let mut spent = busy[pid as usize];
            for &key in &keys[run[r]..run[r + 1]] {
                let m = arrivals[layout.slot(key)];
                now = now.max(m.avail) + m.cost;
                spent += m.cost;
            }
            busy[pid as usize] = spent;
            start = start.max(now);
        }
        received += n;
        // Phase 2: barrier + compute.
        let comp = match &task.compute {
            ComputeSpec::Kernel { class, rows, cols } => {
                truth.kernel_time(class, *rows, *cols, q as u32, t as u64)
            }
            ComputeSpec::Explicit { params } => {
                truth.explicit_time(*params, q as u32, 0.0, t as u64)
            }
            ComputeSpec::None => 0.0,
        };
        let end_compute = start + comp;
        task_start[t] = start;
        for &pid in procs {
            busy[pid as usize] += comp;
        }
        // Phase 3: send. Each processor's clock runs through its messages
        // in consumer program order; processors do not interact here, so
        // the transfers are walked once for all of them.
        let rank_clock = &mut send_clocks[..q];
        rank_clock.fill(end_compute);
        for &tr in &outbound[out_off[t]..out_off[t + 1]] {
            let to = &tasks[transfers[tr].to_task].procs[..];
            let mut k = first[tr];
            prog.for_each_message(
                &transfers[tr],
                #[inline(always)]
                |sr, dr, bytes| {
                    let pid = procs[sr as usize];
                    if pid == to[dr as usize] {
                        // Local copy: paid on the receive side; available as
                        // soon as the data exists.
                        avail[k] = end_compute;
                    } else {
                        let cost = truth.send_time(bytes, k as u64);
                        let now = &mut rank_clock[sr as usize];
                        *now += cost;
                        busy[pid as usize] += cost;
                        avail[k] = *now + truth.net_delay(bytes);
                    }
                    k += 1;
                },
            );
        }
        let mut finish = end_compute;
        for ((&pid, window), &now) in procs.iter().zip(&mut windows).zip(rank_clock.iter()) {
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
        messages_sent: received - local_copies,
        local_copies,
        involvement,
        msg_avail: avail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{lower_mpmd, lower_spmd};
    use crate::program::SimTask;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, AmdahlParams, KernelCostTable, NodeId, TransferKind,
    };
    use paradigm_sched::{psa_schedule, spmd_schedule, PsaConfig};

    #[test]
    fn empty_program_has_zero_makespan() {
        let prog =
            ValidProgram::new(TaskProgram { procs: 4, tasks: vec![], transfers: vec![] }).unwrap();
        let r = simulate(&prog, &TrueMachine::ideal(4));
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn single_task_time_matches_truth() {
        let params = AmdahlParams::new(0.1, 2.0);
        let prog = ValidProgram::new(TaskProgram {
            procs: 4,
            tasks: vec![SimTask {
                node: NodeId(1),
                name: "solo".into(),
                procs: vec![0, 1, 2, 3],
                compute: ComputeSpec::Explicit { params },
                program_order: 0,
            }],
            transfers: vec![],
        })
        .unwrap();
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
        let prog = ValidProgram::new(TaskProgram {
            procs: 2,
            tasks: vec![task(1, vec![0], 0), task(2, vec![1], 1)],
            transfers: vec![SimTransfer {
                from_task: 0,
                to_task: 1,
                kind: TransferKind::OneD,
                bytes: 32768,
            }],
        })
        .unwrap();
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
        let prog = ValidProgram::new(TaskProgram {
            procs: 1,
            tasks: vec![task(1, 0), task(2, 1)],
            transfers: vec![SimTransfer {
                from_task: 0,
                to_task: 1,
                kind: TransferKind::OneD,
                bytes: 32768,
            }],
        })
        .unwrap();
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
        let prog = ValidProgram::new(TaskProgram {
            procs: 2,
            tasks: vec![task(1, vec![0], 0), task(2, vec![1], 1)],
            transfers: vec![],
        })
        .unwrap();
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
        let prog =
            ValidProgram::new(TaskProgram { procs: 2, tasks: vec![], transfers: vec![] }).unwrap();
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

    /// Availabilities spanning more bits than a key holds beside the
    /// positions: the low bits drop, 1.0 and the next double tie in the
    /// truncated keys in the wrong position order, and the sort still
    /// comes out in (availability, position) order.
    #[test]
    fn a_span_too_wide_for_the_key_still_sorts_exactly() {
        let avails = [f64::from_bits(1.0f64.to_bits() + 1), 0.0, 1.0, 1e300, 1.0, 0.5];
        let bits = avails.map(f64::to_bits);
        let arrivals = avails.map(|avail| Arrival { avail, cost: 0.0 });
        let layout = KeyLayout::new(0, bits[3], avails.len());
        assert_eq!((layout.shift, layout.slot_bits), (2, 3));
        let mut keys: Vec<u64> =
            avails.iter().enumerate().map(|(j, &a)| layout.key(a, j)).collect();
        let mut truncated = keys.clone();
        truncated.sort_unstable();
        layout.sort(&mut keys, &arrivals);
        let mut exact: Vec<usize> = (0..avails.len()).collect();
        exact.sort_by_key(|&j| (bits[j], j));
        let slots = |keys: &[u64]| keys.iter().map(|&k| layout.slot(k)).collect::<Vec<_>>();
        assert_eq!(slots(&keys), exact);
        assert_ne!(slots(&truncated), exact, "the truncated keys alone must be out of order");
    }

    #[test]
    #[should_panic(expected = "finite availability")]
    fn a_non_finite_availability_panics() {
        KeyLayout::new(0, f64::NAN.to_bits(), 2);
    }
}
