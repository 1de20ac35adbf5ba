//! The schedule checker: every way a schedule can be inconsistent with
//! the graph and weights it claims to realize, reported all at once.
//!
//! [`analyze_schedule`] checks *everything* and returns every violation
//! as a structured value; [`Schedule::validate`] is its `Result` view.
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

use crate::schedule::Schedule;
use paradigm_cost::MdgWeights;
use paradigm_mdg::{Mdg, NodeId, NodeKind};
use std::fmt;

/// Relative tolerance for all time comparisons.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::spmd_schedule;
    use crate::psa::{psa_schedule, PsaConfig};
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{example_fig1_mdg, AmdahlParams, ArrayTransfer, MdgBuilder, TransferKind};

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

    /// One corruption at a time of a valid two-task schedule: the report
    /// names every violation the corruption causes, and
    /// `Schedule::validate` returns it rendered.
    #[test]
    fn each_corruption_of_a_tiny_schedule_is_reported_in_full() {
        use crate::schedule::tests::tiny;
        use ScheduleViolation::*;
        let (g, w, valid) = tiny();
        assert!(analyze_schedule(&g, &w, &valid).is_clean());
        assert_eq!(valid.validate(&g, &w), Ok(()));
        let report = |corrupt: &dyn Fn(&mut Schedule)| {
            let mut s = valid.clone();
            corrupt(&mut s);
            let rep = analyze_schedule(&g, &w, &s);
            assert_eq!(s.validate(&g, &w), Err(rep.render()));
            rep.violations
        };

        // `c` starts before `a` finishes, on the other processor.
        let v = report(&|s| {
            s.tasks[2].start = 0.5;
            s.tasks[2].finish = 2.5;
            s.tasks[2].procs = vec![1];
        });
        assert!(
            matches!(v.as_slice(), [PrecedenceViolation { .. }, FinishBeforeEarliest { .. }]),
            "{v:?}"
        );

        // `c` starts before `a` finishes, on `a`'s processor.
        let v = report(&|s| {
            s.tasks[2].start = 0.2;
            s.tasks[2].finish = 2.2;
        });
        assert!(
            matches!(
                v.as_slice(),
                [
                    PrecedenceViolation { .. },
                    ProcessorOverlap { proc: 0, .. },
                    FinishBeforeEarliest { .. }
                ]
            ),
            "{v:?}"
        );

        // `a` runs for 99 s instead of 1 s.
        let v = report(&|s| s.tasks[1].finish = s.tasks[1].start + 99.0);
        assert!(
            matches!(
                v.as_slice(),
                [DurationMismatch { .. }, PrecedenceViolation { .. }, ProcessorOverlap { .. }]
            ),
            "{v:?}"
        );

        // `a` on a processor the machine does not have.
        let v = report(&|s| s.tasks[1].procs = vec![7]);
        assert!(
            matches!(v.as_slice(), [BadProcessorId { proc: 7, duplicate: false, .. }]),
            "{v:?}"
        );

        // A task naming a node outside the graph, so `a` goes missing.
        let outside = NodeId(g.node_count());
        let v = report(&|s| s.tasks[1].node = outside);
        assert!(
            matches!(
                v.as_slice(),
                [MalformedInterval { node, .. }, MissingNode { node: NodeId(1) }]
                    if *node == outside
            ),
            "{v:?}"
        );

        // A NaN start.
        let v = report(&|s| s.tasks[2].start = f64::NAN);
        assert!(matches!(v.as_slice(), [MalformedInterval { node: NodeId(2), .. }]), "{v:?}");
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
