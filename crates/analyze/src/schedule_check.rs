//! Whole-schedule static analysis: race detection, precedence checking,
//! and a `Phi` cross-check against the paper's completion recurrence.
//!
//! [`paradigm_sched::Schedule::validate`] stops at the first problem and
//! returns a bare string — good enough for asserting correctness, useless
//! for diagnosing a broken scheduler. [`analyze_schedule`] instead checks
//! *everything* and returns all violations as structured values:
//!
//! * **shape** — every node scheduled exactly once, finite times,
//!   non-negative durations;
//! * **weights** — task durations equal the node weights `T_i`, compute
//!   tasks occupy exactly their allocated processor count, processor ids
//!   are distinct and within the machine;
//! * **precedence** — `start_j ≥ finish_m + t^D_mj` along every edge;
//! * **races** — a per-processor sweep line finds every pair of tasks
//!   overlapping on the same processor (not just the first);
//! * **recurrence** — re-derives the earliest finish times
//!   `y_i = max_m(y_m + t^D_mi) + T_i`; no valid schedule can finish a
//!   node before its `y_i`, and the makespan can never beat
//!   `C_p = y_STOP`, so either event indicates the reported times are
//!   inconsistent with the weights the schedule claims to realize.

use paradigm_cost::{Allocation, Machine, MdgWeights};
use paradigm_mdg::{Mdg, NodeId, NodeKind};
use paradigm_sched::Schedule;
use paradigm_solver::FallbackTier;
use std::fmt;

/// Relative tolerance for all time comparisons (matches
/// `Schedule::validate`).
const TOL: f64 = 1e-9;

/// One problem found in a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleViolation {
    /// Task list length differs from the node count.
    TaskCountMismatch {
        /// Number of tasks in the schedule.
        tasks: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A node appears in more than one task.
    DuplicateNode {
        /// The node scheduled twice.
        node: NodeId,
    },
    /// A node has no task at all.
    MissingNode {
        /// The unscheduled node.
        node: NodeId,
    },
    /// A task's start or finish is NaN/infinite, or it finishes before
    /// it starts.
    MalformedInterval {
        /// The offending node.
        node: NodeId,
        /// Its reported start.
        start: f64,
        /// Its reported finish.
        finish: f64,
    },
    /// Task duration does not equal the node weight `T_i`.
    DurationMismatch {
        /// The offending node.
        node: NodeId,
        /// `finish - start` as scheduled.
        actual: f64,
        /// The weight `T_i` it should equal.
        expected: f64,
    },
    /// A compute task's processor count differs from its allocation.
    AllocationMismatch {
        /// The offending node.
        node: NodeId,
        /// Processors the task occupies.
        used: usize,
        /// Processors the allocation grants.
        allocated: usize,
    },
    /// A processor id is outside the machine, or repeated within a task.
    BadProcessorId {
        /// The offending node.
        node: NodeId,
        /// The bad processor id.
        proc: u32,
        /// True when the id is a duplicate within the same task.
        duplicate: bool,
    },
    /// An edge's destination starts before its source's finish plus the
    /// network delay.
    PrecedenceViolation {
        /// Source node of the edge.
        src: NodeId,
        /// Destination node of the edge.
        dst: NodeId,
        /// The destination's scheduled start.
        start: f64,
        /// `finish_src + t^D` — the earliest legal start.
        required: f64,
    },
    /// Two tasks occupy the same processor at the same time.
    ProcessorOverlap {
        /// The shared processor.
        proc: u32,
        /// The earlier-starting task's node.
        first: NodeId,
        /// The later-starting task's node.
        second: NodeId,
        /// Start of the overlapping span.
        from: f64,
        /// End of the overlapping span.
        until: f64,
    },
    /// A node finishes before its recurrence lower bound `y_i`.
    FinishBeforeEarliest {
        /// The offending node.
        node: NodeId,
        /// Its scheduled finish.
        finish: f64,
        /// Its `y_i` from the recurrence.
        earliest: f64,
    },
    /// The reported makespan differs from the STOP task's finish.
    MakespanMismatch {
        /// The schedule's reported makespan.
        reported: f64,
        /// The STOP task's finish time.
        stop_finish: f64,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ScheduleViolation::*;
        match self {
            TaskCountMismatch { tasks, nodes } => {
                write!(f, "{tasks} tasks scheduled for {nodes} nodes")
            }
            DuplicateNode { node } => write!(f, "node {node} scheduled more than once"),
            MissingNode { node } => write!(f, "node {node} never scheduled"),
            MalformedInterval { node, start, finish } => {
                write!(f, "node {node} has malformed interval [{start}, {finish})")
            }
            DurationMismatch { node, actual, expected } => {
                write!(f, "node {node} runs for {actual}, weight says {expected}")
            }
            AllocationMismatch { node, used, allocated } => {
                write!(f, "node {node} occupies {used} processors, allocation grants {allocated}")
            }
            BadProcessorId { node, proc, duplicate: true } => {
                write!(f, "node {node} lists processor {proc} twice")
            }
            BadProcessorId { node, proc, duplicate: false } => {
                write!(f, "node {node} uses processor {proc} outside the machine")
            }
            PrecedenceViolation { src, dst, start, required } => {
                write!(f, "edge {src} -> {dst}: start {start} precedes earliest legal {required}")
            }
            ProcessorOverlap { proc, first, second, from, until } => {
                write!(f, "processor {proc}: {first} and {second} overlap on [{from}, {until})")
            }
            FinishBeforeEarliest { node, finish, earliest } => {
                write!(f, "node {node} finishes at {finish}, recurrence lower bound is {earliest}")
            }
            MakespanMismatch { reported, stop_finish } => {
                write!(f, "reported makespan {reported} != STOP finish {stop_finish}")
            }
        }
    }
}

/// Everything [`analyze_schedule`] found.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// All violations, in check order.
    pub violations: Vec<ScheduleViolation>,
    /// `C_p = y_STOP` re-derived from the weights.
    pub recomputed_cp: f64,
    /// The schedule's reported makespan.
    pub reported_makespan: f64,
}

impl ScheduleReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "schedule clean: makespan {} >= recomputed C_p {}\n",
                self.reported_makespan, self.recomputed_cp
            ));
        } else {
            out.push_str(&format!("{} schedule violation(s):\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  - {v}\n"));
            }
        }
        out
    }
}

/// Run every check against `s`, which claims to schedule `g` under the
/// weights `w`. Returns all violations (an empty list means the schedule
/// is consistent).
pub fn analyze_schedule(g: &Mdg, w: &MdgWeights, s: &Schedule) -> ScheduleReport {
    let mut violations = Vec::new();
    let n = g.node_count();

    if s.tasks.len() != n {
        violations.push(ScheduleViolation::TaskCountMismatch { tasks: s.tasks.len(), nodes: n });
    }

    // Shape and weight checks; remember each node's task index.
    let mut task_of: Vec<Option<usize>> = vec![None; n];
    for (k, t) in s.tasks.iter().enumerate() {
        if t.node.0 >= n {
            // An out-of-graph node id: report as malformed and skip.
            violations.push(ScheduleViolation::MalformedInterval {
                node: t.node,
                start: t.start,
                finish: t.finish,
            });
            continue;
        }
        if task_of[t.node.0].is_some() {
            violations.push(ScheduleViolation::DuplicateNode { node: t.node });
            continue;
        }
        task_of[t.node.0] = Some(k);

        if !t.start.is_finite() || !t.finish.is_finite() || t.finish < t.start {
            violations.push(ScheduleViolation::MalformedInterval {
                node: t.node,
                start: t.start,
                finish: t.finish,
            });
            continue;
        }
        let expected = w.node_weight(t.node);
        if (t.duration() - expected).abs() > TOL * expected.max(1.0) {
            violations.push(ScheduleViolation::DurationMismatch {
                node: t.node,
                actual: t.duration(),
                expected,
            });
        }
        if g.node(t.node).kind == NodeKind::Compute {
            let allocated = w.alloc.as_u32(t.node) as usize;
            if t.procs.len() != allocated {
                violations.push(ScheduleViolation::AllocationMismatch {
                    node: t.node,
                    used: t.procs.len(),
                    allocated,
                });
            }
        }
        for (i, &pid) in t.procs.iter().enumerate() {
            if pid >= s.machine_procs {
                violations.push(ScheduleViolation::BadProcessorId {
                    node: t.node,
                    proc: pid,
                    duplicate: false,
                });
            }
            if t.procs[..i].contains(&pid) {
                violations.push(ScheduleViolation::BadProcessorId {
                    node: t.node,
                    proc: pid,
                    duplicate: true,
                });
            }
        }
    }
    for (v, slot) in task_of.iter().enumerate() {
        if slot.is_none() {
            violations.push(ScheduleViolation::MissingNode { node: NodeId(v) });
        }
    }

    // Precedence along every edge.
    for (eid, e) in g.edges() {
        let (Some(&Some(km)), Some(&Some(kj))) = (task_of.get(e.src), task_of.get(e.dst)) else {
            continue; // missing tasks already reported
        };
        let tm = &s.tasks[km];
        let tj = &s.tasks[kj];
        let required = tm.finish + w.edge_weight(eid);
        if tj.start + TOL * required.abs().max(1.0) < required {
            violations.push(ScheduleViolation::PrecedenceViolation {
                src: NodeId(e.src),
                dst: NodeId(e.dst),
                start: tj.start,
                required,
            });
        }
    }

    // Race detection: sweep each processor's intervals in start order and
    // report every overlapping pair with an open interval.
    let mut by_proc: Vec<Vec<(f64, f64, NodeId)>> = vec![Vec::new(); s.machine_procs as usize];
    for t in &s.tasks {
        for &pid in &t.procs {
            if pid < s.machine_procs && t.start.is_finite() && t.finish.is_finite() {
                by_proc[pid as usize].push((t.start, t.finish, t.node));
            }
        }
    }
    for (pid, ivals) in by_proc.iter_mut().enumerate() {
        ivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        // Active set: intervals whose finish is still ahead of the sweep.
        let mut active: Vec<(f64, f64, NodeId)> = Vec::new();
        for &(start, finish, node) in ivals.iter() {
            active.retain(|&(_, f0, _)| f0 > start + TOL * f0.abs().max(1.0));
            for &(_, f0, n0) in &active {
                violations.push(ScheduleViolation::ProcessorOverlap {
                    proc: pid as u32,
                    first: n0,
                    second: node,
                    from: start,
                    until: f0.min(finish),
                });
            }
            active.push((start, finish, node));
        }
    }

    // Recurrence cross-check: y_i from the paper's completion recurrence
    // is a lower bound on any schedule of these weights.
    let y = g.finish_times_with(|v| w.node_weight(v), |e| w.edge_weight(e));
    for (v, slot) in task_of.iter().enumerate() {
        let Some(&k) = slot.as_ref() else { continue };
        let t = &s.tasks[k];
        if t.finish.is_finite() && t.finish + TOL * y[v].max(1.0) < y[v] {
            violations.push(ScheduleViolation::FinishBeforeEarliest {
                node: NodeId(v),
                finish: t.finish,
                earliest: y[v],
            });
        }
    }
    let recomputed_cp = y[g.stop().0];

    // Makespan consistency.
    if let Some(&Some(k)) = task_of.get(g.stop().0) {
        let stop_finish = s.tasks[k].finish;
        if (s.makespan - stop_finish).abs() > TOL * s.makespan.abs().max(1.0) {
            violations
                .push(ScheduleViolation::MakespanMismatch { reported: s.makespan, stop_finish });
        }
    }

    ScheduleReport { violations, recomputed_cp, reported_makespan: s.makespan }
}

/// What a solve result claims about its schedule, for [`ScheduleAuditor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditClaims {
    /// The continuous optimum `Phi` the solver reported.
    pub phi: f64,
    /// The reported PSA makespan `T_psa`.
    pub t_psa: f64,
    /// Which fallback tier produced the result. Degraded tiers keep
    /// their precedence/capacity obligations but are exempt from the
    /// `Phi <= T_psa` lower-bound check: the rounded allocation they
    /// schedule can legitimately undercut their continuous `Phi`.
    pub tier: FallbackTier,
}

/// One problem found by the audit on top of [`analyze_schedule`]'s checks.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// More processors busy at one instant than the machine has
    /// (`Σ p_i <= p` violated), independent of processor ids.
    Oversubscribed {
        /// The instant of peak over-use.
        at: f64,
        /// Processors busy at that instant.
        used: usize,
        /// Processors the machine has.
        available: u32,
    },
    /// The schedule was built for a different machine size than audited.
    MachineSizeMismatch {
        /// `machine_procs` recorded in the schedule.
        schedule: u32,
        /// Processors of the machine under audit.
        machine: u32,
    },
    /// The allocation has a different node count than the graph, so
    /// weights cannot even be re-derived.
    AllocationShapeMismatch {
        /// Entries in the allocation.
        alloc: usize,
        /// Nodes in the graph.
        graph: usize,
    },
    /// A processor's resident set exceeds its memory capacity under the
    /// even block-distribution model ([`crate::resources`]).
    MemoryOverCapacity {
        /// The offending processor.
        proc: u32,
        /// The instant the resident set first exceeded capacity.
        at: f64,
        /// Model resident bytes at that instant.
        resident_bytes: f64,
        /// The per-processor capacity.
        capacity_bytes: u64,
    },
    /// The reported `T_psa` differs from the schedule's makespan.
    MakespanClaimMismatch {
        /// The claimed `T_psa`.
        claimed: f64,
        /// The schedule's actual makespan.
        actual: f64,
    },
    /// The reported `Phi` is NaN, infinite, or non-positive.
    PhiClaimNotFinite {
        /// The claimed value.
        phi: f64,
    },
    /// A primary-tier `Phi` exceeds the realized makespan: `Phi` is a
    /// lower bound on every schedule of the optimal allocation, so the
    /// claim and the schedule cannot both be right.
    PhiExceedsMakespan {
        /// The claimed `Phi`.
        phi: f64,
        /// The schedule's makespan.
        makespan: f64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AuditViolation::*;
        match self {
            Oversubscribed { at, used, available } => {
                write!(f, "{used} processors busy at t = {at}, machine has {available}")
            }
            MachineSizeMismatch { schedule, machine } => {
                write!(f, "schedule built for {schedule} processors, audited against {machine}")
            }
            AllocationShapeMismatch { alloc, graph } => {
                write!(f, "allocation covers {alloc} nodes, graph has {graph}")
            }
            MemoryOverCapacity { proc, at, resident_bytes, capacity_bytes } => write!(
                f,
                "processor {proc} holds {resident_bytes:.0} resident bytes at t = {at}, \
                 capacity is {capacity_bytes}"
            ),
            MakespanClaimMismatch { claimed, actual } => {
                write!(f, "claimed T_psa {claimed} != schedule makespan {actual}")
            }
            PhiClaimNotFinite { phi } => write!(f, "claimed Phi {phi} is not a positive number"),
            PhiExceedsMakespan { phi, makespan } => {
                write!(f, "claimed Phi {phi} exceeds the realized makespan {makespan}")
            }
        }
    }
}

/// Everything one [`ScheduleAuditor::audit`] run found.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The full sweep-line/precedence/recurrence report.
    pub schedule: ScheduleReport,
    /// Capacity and claim checks on top of it.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when neither layer found a problem.
    pub fn is_clean(&self) -> bool {
        self.schedule.is_clean() && self.violations.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = self.schedule.render();
        if self.violations.is_empty() {
            out.push_str("audit: capacity and Phi claims consistent\n");
        } else {
            out.push_str(&format!("{} audit violation(s):\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  - {v}\n"));
            }
        }
        out
    }
}

/// Independent re-verification of a solve result's schedule.
///
/// The auditor trusts *nothing* the solver computed: node and edge
/// weights are re-derived from the graph, machine, and rounded
/// allocation via [`MdgWeights::compute`], the completion recurrence is
/// re-run, precedence and per-processor races re-checked
/// ([`analyze_schedule`]), and two properties [`analyze_schedule`]
/// cannot see are added — machine-wide capacity (`Σ p_i <= p` at every
/// instant, immune to forged processor ids) and consistency of the
/// reported `Phi`/`T_psa` claims with the schedule itself.
#[derive(Debug, Clone)]
pub struct ScheduleAuditor {
    /// Headroom allowed on the primary-tier `Phi <= T_psa` bound, as a
    /// fraction of the makespan. Covers the fast solver's documented
    /// convergence slack (about 1%); the default is 5%.
    pub phi_slack: f64,
    /// *Additional* headroom on the same bound for results produced by
    /// the consensus-ADMM tier ([`FallbackTier::Admm`]). ADMM stops on
    /// residuals rather than at a proven optimum, so its `Phi` sits
    /// within the consensus tolerance of the dense optimum (the
    /// convergence tests pin this at 1%); the default adds another 5%.
    pub admm_phi_slack: f64,
}

impl Default for ScheduleAuditor {
    fn default() -> Self {
        ScheduleAuditor { phi_slack: 0.05, admm_phi_slack: 0.05 }
    }
}

impl ScheduleAuditor {
    /// An auditor with the default slack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Audit `s` as a schedule of `g` on `machine` under the rounded
    /// allocation `alloc`, against the solver's `claims`.
    pub fn audit(
        &self,
        g: &Mdg,
        machine: &Machine,
        alloc: &Allocation,
        s: &Schedule,
        claims: &AuditClaims,
    ) -> AuditReport {
        let mut violations = Vec::new();

        // An allocation for the wrong graph makes weight re-derivation
        // meaningless; report that one fact instead of panicking.
        if alloc.len() != g.node_count() {
            violations.push(AuditViolation::AllocationShapeMismatch {
                alloc: alloc.len(),
                graph: g.node_count(),
            });
            return AuditReport {
                schedule: ScheduleReport {
                    violations: Vec::new(),
                    recomputed_cp: f64::NAN,
                    reported_makespan: s.makespan,
                },
                violations,
            };
        }
        // Widening the machine for weight purposes is sound: node and
        // edge weights depend on the allocation and transfer constants,
        // not on `p` — only the capacity check below uses `p`, and that
        // still audits against the real machine.
        let eff_machine = if alloc.max() > f64::from(machine.procs) {
            Machine {
                procs: alloc.max().ceil() as u32,
                xfer: machine.xfer,
                mem_bytes: machine.mem_bytes,
            }
        } else {
            *machine
        };
        let w = MdgWeights::compute(g, &eff_machine, alloc);
        let schedule = analyze_schedule(g, &w, s);

        if s.machine_procs != machine.procs {
            violations.push(AuditViolation::MachineSizeMismatch {
                schedule: s.machine_procs,
                machine: machine.procs,
            });
        }

        // Machine-wide capacity sweep: +p_i at each start, -p_i at each
        // finish, releases applied before acquisitions at equal times.
        let mut events: Vec<(f64, i64)> = Vec::new();
        for t in &s.tasks {
            if t.start.is_finite() && t.finish.is_finite() && t.finish > t.start {
                let p = t.procs.len() as i64;
                if p > 0 {
                    events.push((t.start, p));
                    events.push((t.finish, -p));
                }
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut busy, mut peak, mut peak_at) = (0i64, 0i64, 0.0f64);
        for (at, delta) in events {
            busy += delta;
            if busy > peak {
                peak = busy;
                peak_at = at;
            }
        }
        if peak > i64::from(machine.procs) {
            violations.push(AuditViolation::Oversubscribed {
                at: peak_at,
                used: peak as usize,
                available: machine.procs,
            });
        }

        // Memory sweep: per-processor resident sets under the even
        // block-distribution model must fit `machine.mem_bytes`.
        for v in crate::resources::check_schedule_memory(g, machine, s).violations {
            violations.push(AuditViolation::MemoryOverCapacity {
                proc: v.proc,
                at: v.at,
                resident_bytes: v.resident_bytes,
                capacity_bytes: v.capacity_bytes,
            });
        }

        // Claim checks.
        if (claims.t_psa - s.makespan).abs() > TOL * s.makespan.abs().max(1.0) {
            violations.push(AuditViolation::MakespanClaimMismatch {
                claimed: claims.t_psa,
                actual: s.makespan,
            });
        }
        if !claims.phi.is_finite() || claims.phi <= 0.0 {
            violations.push(AuditViolation::PhiClaimNotFinite { phi: claims.phi });
        } else if !claims.tier.is_degraded() {
            // Primary and ADMM results both claim a (near-)optimal Phi,
            // so `Phi <= T_psa` must hold up to convergence slack; ADMM
            // gets extra headroom for its residual-based stopping rule.
            // The degraded tier (equal-split) makes no
            // optimality claim, so the bound does not apply to them.
            let slack = match claims.tier {
                FallbackTier::Admm => self.phi_slack + self.admm_phi_slack,
                _ => self.phi_slack,
            };
            if claims.phi > s.makespan * (1.0 + slack) {
                violations.push(AuditViolation::PhiExceedsMakespan {
                    phi: claims.phi,
                    makespan: s.makespan,
                });
            }
        }

        AuditReport { schedule, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{example_fig1_mdg, AmdahlParams, ArrayTransfer, MdgBuilder, TransferKind};
    use paradigm_sched::{psa_schedule, spmd_schedule, PsaConfig};

    fn fig1_psa() -> (Mdg, MdgWeights, Schedule) {
        let g = example_fig1_mdg();
        let mut alloc = Allocation::uniform(&g, 1.0);
        alloc.set(NodeId(1), 4.0);
        alloc.set(NodeId(2), 2.0);
        alloc.set(NodeId(3), 2.0);
        let res = psa_schedule(&g, Machine::cm5(4), &alloc, &PsaConfig::default());
        (g, res.weights, res.schedule)
    }

    #[test]
    fn psa_schedule_is_clean() {
        let (g, w, s) = fig1_psa();
        let rep = analyze_schedule(&g, &w, &s);
        assert!(rep.is_clean(), "{}", rep.render());
        assert!(rep.reported_makespan >= rep.recomputed_cp - 1e-9);
        assert!(rep.render().contains("schedule clean"));
    }

    #[test]
    fn spmd_schedule_is_clean() {
        let g = example_fig1_mdg();
        let (s, w) = spmd_schedule(&g, Machine::cm5(4));
        assert!(analyze_schedule(&g, &w, &s).is_clean());
    }

    /// The acceptance scenario: corrupt a valid PSA schedule with both an
    /// injected processor overlap and a precedence violation, and demand
    /// the analyzer reports *both* (first-error validation cannot).
    #[test]
    fn corrupted_schedule_flags_overlap_and_precedence() {
        let (g, w, s) = fig1_psa();
        let mut bad = s.clone();
        // N2 and N3 run in parallel on disjoint halves; remap N3 onto
        // N2's processors to create a race without touching times...
        let n2_procs = bad.tasks.iter().find(|t| t.node == NodeId(2)).unwrap().procs.clone();
        let t3 = bad.tasks.iter_mut().find(|t| t.node == NodeId(3)).unwrap();
        t3.procs = n2_procs;
        // ...and pull N2's start before N1's finish for the precedence
        // break (keeping its duration so only precedence trips).
        let d2 = w.node_weight(NodeId(2));
        let t2 = bad.tasks.iter_mut().find(|t| t.node == NodeId(2)).unwrap();
        t2.start = 0.0;
        t2.finish = d2;
        let rep = analyze_schedule(&g, &w, &bad);
        assert!(!rep.is_clean());
        assert!(
            rep.violations.iter().any(|v| matches!(v, ScheduleViolation::ProcessorOverlap { .. })),
            "{}",
            rep.render()
        );
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, ScheduleViolation::PrecedenceViolation { .. })),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn all_violation_kinds_are_reported_together() {
        let (g, w, s) = fig1_psa();
        let mut bad = s.clone();
        // Drop STOP's task, corrupt N1's duration, and give N2 a bogus
        // processor id: three independent problems, one report.
        let stop = g.stop();
        bad.tasks.retain(|t| t.node != stop);
        let t1 = bad.tasks.iter_mut().find(|t| t.node == NodeId(1)).unwrap();
        t1.finish = t1.start + 999.0;
        let t2 = bad.tasks.iter_mut().find(|t| t.node == NodeId(2)).unwrap();
        t2.procs = vec![77];
        let rep = analyze_schedule(&g, &w, &bad);
        let kinds: Vec<&str> = rep
            .violations
            .iter()
            .map(|v| match v {
                ScheduleViolation::TaskCountMismatch { .. } => "count",
                ScheduleViolation::MissingNode { .. } => "missing",
                ScheduleViolation::DurationMismatch { .. } => "duration",
                ScheduleViolation::BadProcessorId { .. } => "proc",
                ScheduleViolation::AllocationMismatch { .. } => "alloc",
                _ => "other",
            })
            .collect();
        for expected in ["count", "missing", "duration", "proc", "alloc"] {
            assert!(kinds.contains(&expected), "missing {expected}: {}", rep.render());
        }
    }

    #[test]
    fn makespan_lie_is_caught() {
        let (g, w, s) = fig1_psa();
        let mut bad = s.clone();
        bad.makespan *= 0.5;
        let rep = analyze_schedule(&g, &w, &bad);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::MakespanMismatch { .. })));
    }

    #[test]
    fn finish_before_recurrence_bound_is_caught() {
        // Compress a two-node chain so the second task finishes before
        // its y_i (both duration and precedence also trip; the point is
        // the recurrence check fires too).
        let mut b = MdgBuilder::new("chain");
        let a = b.compute("a", AmdahlParams::new(0.0, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.0, 2.0));
        b.edge(a, c, vec![ArrayTransfer::new(1024, TransferKind::OneD)]);
        let g = b.finish().unwrap();
        let m = Machine::cm5(2);
        let alloc = Allocation::uniform(&g, 1.0);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        let mut bad = res.schedule.clone();
        for t in &mut bad.tasks {
            t.start *= 0.25;
            t.finish *= 0.25;
        }
        bad.makespan *= 0.25;
        let rep = analyze_schedule(&g, &res.weights, &bad);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::FinishBeforeEarliest { .. })));
    }

    fn fig1_claims(s: &Schedule, tier: FallbackTier) -> AuditClaims {
        AuditClaims { phi: s.makespan * 0.95, t_psa: s.makespan, tier }
    }

    fn fig1_alloc(g: &Mdg) -> Allocation {
        let mut alloc = Allocation::uniform(g, 1.0);
        alloc.set(NodeId(1), 4.0);
        alloc.set(NodeId(2), 2.0);
        alloc.set(NodeId(3), 2.0);
        alloc
    }

    #[test]
    fn auditor_passes_a_clean_psa_schedule() {
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(4);
        for tier in [FallbackTier::Primary, FallbackTier::EqualSplit] {
            let rep = ScheduleAuditor::new().audit(&g, &m, &alloc, &s, &fig1_claims(&s, tier));
            assert!(rep.is_clean(), "{}", rep.render());
            assert!(rep.render().contains("audit: capacity and Phi claims consistent"));
        }
    }

    #[test]
    fn auditor_flags_memory_over_capacity() {
        // A 256x256 producer/consumer pair moves 512 KiB arrays; a
        // machine with 64 KiB nodes cannot hold them however the tasks
        // are spread over its 4 processors.
        let mut b = MdgBuilder::new("mem-audit");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.05, 1.0),
            paradigm_mdg::LoopMeta::square(paradigm_mdg::LoopClass::MatrixInit, 256),
        );
        let c = b.compute_with_meta(
            "c",
            AmdahlParams::new(0.05, 1.0),
            paradigm_mdg::LoopMeta::square(paradigm_mdg::LoopClass::MatrixAdd, 256),
        );
        b.edge(a, c, vec![ArrayTransfer::matrix_1d(256, 256)]);
        let g = b.finish().unwrap();
        let alloc = Allocation::uniform(&g, 2.0);
        let big = Machine::cm5(4);
        let res = psa_schedule(&g, big, &alloc, &PsaConfig::default());
        let claims = fig1_claims(&res.schedule, FallbackTier::Primary);
        let auditor = ScheduleAuditor::new();

        // Plenty of memory: clean.
        let rep = auditor.audit(&g, &big, &alloc, &res.schedule, &claims);
        assert!(rep.is_clean(), "{}", rep.render());

        // Starved machine: the same schedule is rejected for memory.
        let tiny = Machine::cm5(4).with_mem_bytes(64 * 1024);
        let rep = auditor.audit(&g, &tiny, &alloc, &res.schedule, &claims);
        assert!(!rep.is_clean());
        assert!(
            rep.violations.iter().any(|v| matches!(v, AuditViolation::MemoryOverCapacity { .. })),
            "{}",
            rep.render()
        );
        assert!(rep.render().contains("resident bytes"), "{}", rep.render());
    }

    #[test]
    fn swapped_start_times_are_caught_under_every_tier() {
        // The corruption from the acceptance criteria: swap two tasks'
        // start times so exactly one precedence edge is violated.
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(4);
        let mut bad = s.clone();
        let i1 = bad.tasks.iter().position(|t| t.node == NodeId(1)).unwrap();
        let i2 = bad.tasks.iter().position(|t| t.node == NodeId(2)).unwrap();
        let (s1, s2) = (bad.tasks[i1].start, bad.tasks[i2].start);
        let (d1, d2) = (bad.tasks[i1].duration(), bad.tasks[i2].duration());
        bad.tasks[i1].start = s2;
        bad.tasks[i1].finish = s2 + d1;
        bad.tasks[i2].start = s1;
        bad.tasks[i2].finish = s1 + d2;
        for tier in [FallbackTier::Primary, FallbackTier::EqualSplit] {
            let rep = ScheduleAuditor::new().audit(&g, &m, &alloc, &bad, &fig1_claims(&s, tier));
            assert!(!rep.is_clean(), "corruption must be caught under {tier:?}");
            assert!(
                rep.schedule
                    .violations
                    .iter()
                    .any(|v| matches!(v, ScheduleViolation::PrecedenceViolation { .. })),
                "{}",
                rep.render()
            );
        }
    }

    #[test]
    fn oversubscription_is_caught_against_a_smaller_machine() {
        // fig1's PSA on cm5(4) runs 4 processors concurrently; audited
        // against a 2-processor machine the capacity sweep must fire
        // even though per-processor interval checks see no overlap.
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(2);
        let rep = ScheduleAuditor::new().audit(
            &g,
            &m,
            &alloc,
            &s,
            &fig1_claims(&s, FallbackTier::Primary),
        );
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, AuditViolation::Oversubscribed { used: 4, available: 2, .. })),
            "{}",
            rep.render()
        );
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::MachineSizeMismatch { .. })));
    }

    #[test]
    fn makespan_and_phi_claim_lies_are_caught() {
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(4);
        let auditor = ScheduleAuditor::new();

        let lie =
            AuditClaims { phi: s.makespan, t_psa: s.makespan * 2.0, tier: FallbackTier::Primary };
        let rep = auditor.audit(&g, &m, &alloc, &s, &lie);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::MakespanClaimMismatch { .. })));

        let phi_lie =
            AuditClaims { phi: s.makespan * 2.0, t_psa: s.makespan, tier: FallbackTier::Primary };
        let rep = auditor.audit(&g, &m, &alloc, &s, &phi_lie);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::PhiExceedsMakespan { .. })));

        // The ADMM tier claims near-optimality, so a wildly inflated
        // Phi is still caught there...
        let admm_lie =
            AuditClaims { phi: s.makespan * 2.0, t_psa: s.makespan, tier: FallbackTier::Admm };
        let rep = auditor.audit(&g, &m, &alloc, &s, &admm_lie);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::PhiExceedsMakespan { .. })));

        // ...while a Phi inside the combined primary + consensus slack
        // passes under ADMM but would fail under the primary tier.
        let admm_slack = AuditClaims {
            phi: s.makespan * (1.0 + auditor.phi_slack + auditor.admm_phi_slack * 0.5),
            t_psa: s.makespan,
            tier: FallbackTier::Admm,
        };
        assert!(auditor.audit(&g, &m, &alloc, &s, &admm_slack).is_clean());
        let primary_same = AuditClaims { tier: FallbackTier::Primary, ..admm_slack };
        assert!(!auditor.audit(&g, &m, &alloc, &s, &primary_same).is_clean());

        // Degraded tiers are exempt from the lower-bound check...
        let degraded = AuditClaims {
            phi: s.makespan * 2.0,
            t_psa: s.makespan,
            tier: FallbackTier::EqualSplit,
        };
        assert!(auditor.audit(&g, &m, &alloc, &s, &degraded).is_clean());

        // ...but never from basic sanity.
        let nan = AuditClaims { phi: f64::NAN, t_psa: s.makespan, tier: FallbackTier::EqualSplit };
        let rep = auditor.audit(&g, &m, &alloc, &s, &nan);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::PhiClaimNotFinite { .. })));
    }

    #[test]
    fn mismatched_allocation_is_reported_not_a_panic() {
        let (g, _, s) = fig1_psa();
        // An allocation sized for a different graph.
        let alloc = Allocation::new(vec![1.0; g.node_count() + 3]);
        let m = Machine::cm5(4);
        let rep = ScheduleAuditor::new().audit(
            &g,
            &m,
            &alloc,
            &s,
            &fig1_claims(&s, FallbackTier::Primary),
        );
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, AuditViolation::AllocationShapeMismatch { .. })),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn violations_render_distinctly() {
        let samples = [
            ScheduleViolation::TaskCountMismatch { tasks: 3, nodes: 5 },
            ScheduleViolation::DuplicateNode { node: NodeId(1) },
            ScheduleViolation::ProcessorOverlap {
                proc: 2,
                first: NodeId(1),
                second: NodeId(3),
                from: 0.5,
                until: 1.5,
            },
            ScheduleViolation::FinishBeforeEarliest { node: NodeId(4), finish: 1.0, earliest: 2.0 },
        ];
        let texts: Vec<String> = samples.iter().map(|v| v.to_string()).collect();
        let distinct: std::collections::HashSet<&String> = texts.iter().collect();
        assert_eq!(distinct.len(), samples.len());
        assert!(texts[2].contains("processor 2"));
    }
}
