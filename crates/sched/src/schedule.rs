//! Schedule representation, validation, and Gantt rendering.
//!
//! A [`Schedule`] is a list of [`Task`]s: each MDG node placed on a
//! concrete set of processors for a time interval.
//! [`Schedule::validate`] is the `Result` view of the schedule checker
//! ([`crate::schedule_check`]), so downstream code can trust any schedule
//! that passes.

use crate::schedule_check::analyze_schedule;
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

    /// Check the schedule against the graph and the node/edge weights it
    /// was built from: `Ok` when [`analyze_schedule`] finds nothing, else
    /// its rendered report, which names every violation.
    pub fn validate(&self, g: &Mdg, w: &MdgWeights) -> Result<(), String> {
        let report = analyze_schedule(g, w, self);
        if report.is_clean() {
            Ok(())
        } else {
            Err(report.render())
        }
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
pub(crate) mod tests {
    use super::*;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{AmdahlParams, MdgBuilder};

    /// The chain `a -> c` on two processors and its serial schedule:
    /// START, `a` on processor 0 over `[0, 1)`, `c` on processor 0 over
    /// `[1, 3)`, STOP.
    pub(crate) fn tiny() -> (Mdg, MdgWeights, Schedule) {
        let mut b = MdgBuilder::new("tiny");
        let a = b.compute("a", AmdahlParams::new(0.0, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.0, 2.0));
        b.edge(a, c, vec![]);
        let g = b.finish().unwrap();
        let w = MdgWeights::compute(&g, &Machine::cm5(2), &Allocation::uniform(&g, 1.0));
        let task = |node: NodeId, procs: Vec<u32>, start: f64| Task {
            node,
            procs,
            start,
            finish: start + w.node_weight(node),
        };
        let tasks = vec![
            task(g.start(), vec![], 0.0),
            task(NodeId(1), vec![0], 0.0),
            task(NodeId(2), vec![0], 1.0),
            task(g.stop(), vec![], 3.0),
        ];
        (g, w, Schedule { tasks, machine_procs: 2, makespan: 3.0 })
    }

    #[test]
    fn gantt_renders_all_processors_and_legend() {
        let (g, _, s) = tiny();
        let txt = s.gantt(&g, 30);
        assert!(txt.contains("P0"));
        assert!(txt.contains("P1"));
        assert!(txt.contains("A = a"));
        assert!(txt.contains("B = c"));
        assert!(txt.contains("makespan 3.0000"));
    }
}
