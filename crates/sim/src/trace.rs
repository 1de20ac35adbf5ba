//! Per-task prediction diagnostics: align a schedule's predicted task
//! times with the simulator's measured ones, node by node. This is the
//! drill-down behind Figure 9 — when the aggregate prediction drifts,
//! the trace shows *which* loops the cost model mispredicted.

use crate::engine::SimResult;
use crate::program::TaskProgram;
use paradigm_mdg::{Mdg, NodeId, NodeKind};
use paradigm_sched::Schedule;
use std::fmt::Write as _;

/// One node's predicted vs measured execution window.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDiff {
    /// The MDG node.
    pub node: NodeId,
    /// Node name.
    pub name: String,
    /// Processors used.
    pub procs: usize,
    /// Schedule-predicted start.
    pub predicted_start: f64,
    /// Schedule-predicted finish.
    pub predicted_finish: f64,
    /// Simulated compute-phase start.
    pub actual_start: f64,
    /// Simulated finish (end of send phase).
    pub actual_finish: f64,
}

impl TaskDiff {
    /// Relative finish-time error `(predicted - actual) / actual`.
    fn finish_error(&self) -> f64 {
        if self.actual_finish == 0.0 {
            0.0
        } else {
            (self.predicted_finish - self.actual_finish) / self.actual_finish
        }
    }
}

/// Align predictions with measurements for every compute node.
///
/// # Panics
/// Panics if the program does not cover every compute node of `g`.
pub fn compare_schedule_vs_sim(
    g: &Mdg,
    schedule: &Schedule,
    prog: &TaskProgram,
    sim: &SimResult,
) -> Vec<TaskDiff> {
    let mut out = Vec::new();
    let by_node = schedule.by_node();
    for (ti, task) in prog.tasks.iter().enumerate() {
        if g.node(task.node).kind != NodeKind::Compute {
            continue;
        }
        let pred = by_node
            .get(task.node)
            .unwrap_or_else(|| panic!("node {} missing from schedule", task.node));
        out.push(TaskDiff {
            node: task.node,
            name: task.name.clone(),
            procs: task.procs.len(),
            predicted_start: pred.start,
            predicted_finish: pred.finish,
            actual_start: sim.task_start[ti],
            actual_finish: sim.task_finish[ti],
        });
    }
    out.sort_by(|a, b| {
        a.actual_start.partial_cmp(&b.actual_start).expect("finite times").then(a.node.cmp(&b.node))
    });
    out
}

/// Render the per-task comparison as a table, worst finish error last.
pub fn render_trace(diffs: &[TaskDiff]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<18} | procs | predicted [s, f)    | actual [s, f)       | finish err",
        "node"
    );
    let _ = writeln!(s, "  {}", "-".repeat(86));
    for d in diffs {
        let _ = writeln!(
            s,
            "  {:<18} | {:>5} | [{:>7.4}, {:>7.4}) | [{:>7.4}, {:>7.4}) | {:>+8.2}%",
            truncate(&d.name, 18),
            d.procs,
            d.predicted_start,
            d.predicted_finish,
            d.actual_start,
            d.actual_finish,
            100.0 * d.finish_error()
        );
    }
    if let Some(worst) = diffs
        .iter()
        .max_by(|a, b| a.finish_error().abs().partial_cmp(&b.finish_error().abs()).expect("finite"))
    {
        let _ = writeln!(
            s,
            "  worst finish-time error: {} ({:+.2}%)",
            worst.name,
            100.0 * worst.finish_error()
        );
    }
    s
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::lower_mpmd;
    use crate::engine::simulate;
    use crate::program::ValidProgram;
    use crate::truth::TrueMachine;
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{complex_matmul_mdg, KernelCostTable};
    use paradigm_sched::{psa_schedule, PsaConfig};

    fn setup() -> (Mdg, Schedule, ValidProgram, SimResult) {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let sim = simulate(&prog, &TrueMachine::cm5(16));
        (g, res.schedule, prog, sim)
    }

    #[test]
    fn diff_covers_every_compute_node() {
        let (g, sched, prog, sim) = setup();
        let diffs = compare_schedule_vs_sim(&g, &sched, &prog, &sim);
        assert_eq!(diffs.len(), g.compute_node_count());
    }

    #[test]
    fn errors_are_small_on_calibrated_machine() {
        let (g, sched, prog, sim) = setup();
        let diffs = compare_schedule_vs_sim(&g, &sched, &prog, &sim);
        for d in &diffs {
            assert!(d.finish_error().abs() < 0.30, "{}: finish error {}", d.name, d.finish_error());
        }
    }

    #[test]
    fn diffs_sorted_by_actual_start() {
        let (g, sched, prog, sim) = setup();
        let diffs = compare_schedule_vs_sim(&g, &sched, &prog, &sim);
        for w in diffs.windows(2) {
            assert!(w[0].actual_start <= w[1].actual_start);
        }
    }

    #[test]
    fn render_contains_every_node_and_worst_line() {
        let (g, sched, prog, sim) = setup();
        let diffs = compare_schedule_vs_sim(&g, &sched, &prog, &sim);
        let txt = render_trace(&diffs);
        assert!(txt.contains("worst finish-time error"));
        assert!(txt.lines().count() >= diffs.len() + 2);
    }

    #[test]
    fn truncate_helper() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("a very long node name", 8);
        assert!(t.chars().count() <= 8);
        assert!(t.ends_with('…'));
    }
}
