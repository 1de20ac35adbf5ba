//! Schedule representation, validation, statistics, and Gantt rendering.
//!
//! A [`Schedule`] is a list of [`Task`]s: each MDG node placed on a
//! concrete set of processors for a time interval. Validation re-checks
//! the two properties every correct schedule must have — precedence
//! constraints (including edge network delays) and exclusive processor
//! occupation — so downstream code can trust any schedule that passes.

use paradigm_cost::MdgWeights;
use paradigm_mdg::{Mdg, NodeId, NodeKind};
use std::fmt::Write as _;

/// One scheduled node.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The MDG node.
    pub node: NodeId,
    /// Processor ids occupied (empty for structural nodes).
    pub procs: Vec<u32>,
    /// Start time, seconds.
    pub start: f64,
    /// Finish time (`start + T_i`), seconds.
    pub finish: f64,
}

impl Task {
    /// Task duration.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// A complete schedule of an MDG on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Scheduled tasks, in the order the scheduler placed them.
    pub tasks: Vec<Task>,
    /// Machine size the schedule targets.
    pub machine_procs: u32,
    /// Finish time of the STOP node.
    pub makespan: f64,
}

/// Node → task table of one [`Schedule`], built by
/// [`Schedule::by_node`] for callers that resolve many nodes.
#[derive(Debug, Clone)]
pub struct TasksByNode<'a> {
    tasks: &'a [Task],
    /// Position in `tasks` per node id; `usize::MAX` where unscheduled.
    pos: Vec<usize>,
}

impl<'a> TasksByNode<'a> {
    /// The task for a node — what [`Schedule::task_for`] returns.
    pub fn get(&self, node: NodeId) -> Option<&'a Task> {
        self.tasks.get(*self.pos.get(node.0)?)
    }
}

impl Schedule {
    /// Find the task for a node: a scan, for one-off lookups (a loop over
    /// nodes or edges takes [`Schedule::by_node`]).
    pub fn task_for(&self, node: NodeId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.node == node)
    }

    /// Index the tasks by node in one pass. Built on request rather than
    /// kept: the fields are public and schedules are edited in place.
    pub fn by_node(&self) -> TasksByNode<'_> {
        let nodes = self.tasks.iter().map(|t| t.node.0 + 1).max().unwrap_or(0);
        let mut pos = vec![usize::MAX; nodes];
        // In reverse, so a node scheduled twice resolves to its first task.
        for (i, t) in self.tasks.iter().enumerate().rev() {
            pos[t.node.0] = i;
        }
        TasksByNode { tasks: &self.tasks, pos }
    }

    /// Fraction of the `p * makespan` processor-time rectangle that is
    /// busy executing tasks.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.tasks.iter().map(|t| t.duration() * t.procs.len() as f64).sum();
        busy / (self.machine_procs as f64 * self.makespan)
    }

    /// Validate the schedule against the graph and the node/edge weights
    /// it was built from. Checks:
    ///
    /// * every task names a node of the graph, at finite times;
    /// * every node scheduled exactly once;
    /// * task durations match the node weights `T_i`;
    /// * precedence: `start_j >= finish_m + t^D_mj` for every edge;
    /// * no processor is occupied by two tasks at once;
    /// * processor ids are within the machine;
    /// * the makespan equals the STOP finish time.
    pub fn validate(&self, g: &Mdg, w: &MdgWeights) -> Result<(), String> {
        if self.tasks.len() != g.node_count() {
            return Err(format!(
                "schedule has {} tasks for {} nodes",
                self.tasks.len(),
                g.node_count()
            ));
        }
        let mut seen = vec![false; g.node_count()];
        for t in &self.tasks {
            if t.node.0 >= seen.len() {
                return Err(format!("task names node {} outside the graph", t.node));
            }
            if !(t.start.is_finite() && t.finish.is_finite()) {
                return Err(format!(
                    "node {} at non-finite times [{}, {})",
                    t.node, t.start, t.finish
                ));
            }
            if seen[t.node.0] {
                return Err(format!("node {} scheduled twice", t.node));
            }
            seen[t.node.0] = true;
            let expected = w.node_weight(t.node);
            if (t.duration() - expected).abs() > 1e-9 * expected.max(1.0) {
                return Err(format!(
                    "node {} duration {} != weight {}",
                    t.node,
                    t.duration(),
                    expected
                ));
            }
            if g.node(t.node).kind == NodeKind::Compute {
                let q = w.alloc.as_u32(t.node) as usize;
                if t.procs.len() != q {
                    return Err(format!(
                        "node {} uses {} processors, allocation says {}",
                        t.node,
                        t.procs.len(),
                        q
                    ));
                }
            }
            for &pid in &t.procs {
                if pid >= self.machine_procs {
                    return Err(format!("node {} uses invalid processor {pid}", t.node));
                }
            }
        }
        // Precedence with network delays.
        let by_node = self.by_node();
        for (eid, e) in g.edges() {
            let tm = by_node.get(NodeId(e.src)).ok_or("missing src task")?;
            let tj = by_node.get(NodeId(e.dst)).ok_or("missing dst task")?;
            let delay = w.edge_weight(eid);
            if tj.start + 1e-9 < tm.finish + delay {
                return Err(format!(
                    "edge {} -> {}: start {} < finish {} + delay {}",
                    e.src, e.dst, tj.start, tm.finish, delay
                ));
            }
        }
        // Processor exclusivity: sweep per processor.
        let mut by_proc: Vec<Vec<(f64, f64, NodeId)>> =
            vec![Vec::new(); self.machine_procs as usize];
        for t in &self.tasks {
            for &pid in &t.procs {
                by_proc[pid as usize].push((t.start, t.finish, t.node));
            }
        }
        for (pid, ivals) in by_proc.iter_mut().enumerate() {
            ivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            for pair in ivals.windows(2) {
                let (s0, f0, n0) = pair[0];
                let (s1, _, n1) = pair[1];
                let _ = s0;
                if s1 + 1e-9 < f0 {
                    return Err(format!(
                        "processor {pid}: {n0} [{s0}, {f0}) overlaps {n1} starting {s1}"
                    ));
                }
            }
        }
        // Makespan.
        let stop = by_node.get(g.stop()).ok_or("missing STOP task")?;
        if (stop.finish - self.makespan).abs() > 1e-9 * self.makespan.max(1.0) {
            return Err(format!("makespan {} != STOP finish {}", self.makespan, stop.finish));
        }
        Ok(())
    }

    /// ASCII Gantt chart: one row per processor, time binned into
    /// `width` columns, each task drawn with a letter key; a legend maps
    /// letters to node names (reproduces the paper's Figure 7 view).
    pub fn gantt(&self, g: &Mdg, width: usize) -> String {
        let mut out = String::new();
        let span = self.makespan.max(1e-12);
        let letters: Vec<char> = ('A'..='Z').chain('a'..='z').chain('0'..='9').collect();
        let mut legend: Vec<(char, String)> = Vec::new();
        let mut key_of = vec![' '; g.node_count()];
        let mut next = 0usize;
        for t in &self.tasks {
            if g.node(t.node).kind == NodeKind::Compute {
                let c = letters[next % letters.len()];
                next += 1;
                key_of[t.node.0] = c;
                legend.push((c, g.node(t.node).name.clone()));
            }
        }
        let _ = writeln!(
            out,
            "Gantt `{}` on {} procs, makespan {:.4} s (1 col = {:.4} s)",
            g.name(),
            self.machine_procs,
            self.makespan,
            span / width as f64
        );
        for pid in 0..self.machine_procs {
            let mut row = vec!['.'; width];
            for t in &self.tasks {
                if t.procs.contains(&pid) {
                    let c0 = ((t.start / span) * width as f64).floor() as usize;
                    let c1 = ((t.finish / span) * width as f64).ceil() as usize;
                    for cell in row.iter_mut().take(c1.min(width)).skip(c0.min(width)) {
                        *cell = key_of[t.node.0];
                    }
                }
            }
            let _ = writeln!(out, "  P{:<3} |{}|", pid, row.iter().collect::<String>());
        }
        let _ = writeln!(out, "  legend:");
        for (c, name) in legend {
            let _ = writeln!(out, "    {c} = {name}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{AmdahlParams, MdgBuilder};

    fn tiny() -> (Mdg, MdgWeights) {
        let mut b = MdgBuilder::new("tiny");
        let a = b.compute("a", AmdahlParams::new(0.0, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.0, 2.0));
        b.edge(a, c, vec![]);
        let g = b.finish().unwrap();
        let w = MdgWeights::compute(&g, &Machine::cm5(2), &Allocation::uniform(&g, 1.0));
        (g, w)
    }

    fn valid_schedule(g: &Mdg, w: &MdgWeights) -> Schedule {
        // START, a on proc 0 [0,1), c on proc 0 [1,3), STOP.
        Schedule {
            tasks: vec![
                Task { node: g.start(), procs: vec![], start: 0.0, finish: 0.0 },
                Task { node: NodeId(1), procs: vec![0], start: 0.0, finish: 1.0 },
                Task { node: NodeId(2), procs: vec![0], start: 1.0, finish: 3.0 },
                Task { node: g.stop(), procs: vec![], start: 3.0, finish: 3.0 },
            ],
            machine_procs: 2,
            makespan: 3.0,
        }
        .clone_with(w)
    }

    impl Schedule {
        /// Test helper: keep durations consistent with weights.
        fn clone_with(mut self, w: &MdgWeights) -> Schedule {
            for t in &mut self.tasks {
                let d = w.node_weight(t.node);
                t.finish = t.start + d;
            }
            self
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let (g, w) = tiny();
        let s = valid_schedule(&g, &w);
        s.validate(&g, &w).unwrap();
    }

    #[test]
    fn precedence_violation_detected() {
        let (g, w) = tiny();
        let mut s = valid_schedule(&g, &w);
        // Start c before a finishes.
        s.tasks[2].start = 0.5;
        s.tasks[2].finish = 2.5;
        // Also move it to the other processor so only precedence fails.
        s.tasks[2].procs = vec![1];
        let err = s.validate(&g, &w).unwrap_err();
        assert!(err.contains("edge"), "{err}");
    }

    #[test]
    fn overlap_violation_detected() {
        let (g, w) = tiny();
        let mut s = valid_schedule(&g, &w);
        // Two tasks on proc 0 at the same time (also violates precedence,
        // so drop the edge effect by checking message text contains either).
        s.tasks[2].start = 0.2;
        s.tasks[2].finish = 2.2;
        let err = s.validate(&g, &w).unwrap_err();
        assert!(err.contains("overlap") || err.contains("edge"), "{err}");
    }

    #[test]
    fn duration_mismatch_detected() {
        let (g, w) = tiny();
        let mut s = valid_schedule(&g, &w);
        s.tasks[1].finish = s.tasks[1].start + 99.0;
        // Fix downstream times to isolate the duration check.
        let err = s.validate(&g, &w).unwrap_err();
        assert!(err.contains("duration"), "{err}");
    }

    #[test]
    fn bad_processor_id_detected() {
        let (g, w) = tiny();
        let mut s = valid_schedule(&g, &w);
        s.tasks[1].procs = vec![7];
        let err = s.validate(&g, &w).unwrap_err();
        assert!(err.contains("invalid processor"), "{err}");
    }

    #[test]
    fn a_node_outside_the_graph_is_an_error() {
        let (g, w) = tiny();
        let mut s = valid_schedule(&g, &w);
        s.tasks[1].node = NodeId(g.node_count());
        let err = s.validate(&g, &w).unwrap_err();
        assert!(err.contains("outside the graph"), "{err}");
    }

    #[test]
    fn a_nan_start_is_an_error() {
        let (g, w) = tiny();
        let mut s = valid_schedule(&g, &w);
        s.tasks[2].start = f64::NAN;
        let err = s.validate(&g, &w).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn utilization_of_serial_schedule() {
        let (g, w) = tiny();
        let s = valid_schedule(&g, &w);
        // Busy area = 1*1 + 2*1 = 3 over p * makespan = 2 * 3 = 6.
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gantt_renders_all_processors_and_legend() {
        let (g, w) = tiny();
        let s = valid_schedule(&g, &w);
        let txt = s.gantt(&g, 30);
        assert!(txt.contains("P0"));
        assert!(txt.contains("P1"));
        assert!(txt.contains("A = a"));
        assert!(txt.contains("B = c"));
        assert!(txt.contains("makespan 3.0000"));
    }
}
