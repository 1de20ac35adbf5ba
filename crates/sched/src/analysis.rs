//! Schedule analysis: idle-time accounting and machine-readable export.
//!
//! Theorem 1's proof hinges on *Idling Situations* — periods where more
//! than `PB` processors sit idle because every unscheduled node waits on
//! ongoing events. [`idle_profile`] measures exactly that structure in a
//! produced schedule: how much processor-time is idle, and how long the
//! periods with fewer than `p - PB + 1` busy processors last (the `Δ` of
//! the proof, which Theorem 1 bounds by the critical path).

use crate::schedule::Schedule;
use paradigm_mdg::Mdg;
use std::fmt::Write as _;

/// Idle-time breakdown of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleProfile {
    /// Total processor-seconds in the `p x makespan` rectangle.
    pub total_area: f64,
    /// Processor-seconds spent executing tasks.
    pub busy_area: f64,
    /// Processor-seconds idle.
    pub idle_area: f64,
    /// Wall-clock duration during which **fewer than** `p - PB + 1`
    /// processors were busy — the Idling-Situation duration `Δ` from the
    /// Theorem-1 proof.
    pub idling_situation_time: f64,
    /// Maximum number of simultaneously busy processors.
    pub peak_busy: usize,
    /// The first instant at which `peak_busy` processors are busy (0 when
    /// no task occupies a processor).
    pub peak_at: f64,
}

impl IdleProfile {
    /// Fraction of the machine rectangle that is busy.
    pub fn utilization(&self) -> f64 {
        if self.total_area > 0.0 {
            self.busy_area / self.total_area
        } else {
            0.0
        }
    }
}

/// Compute the idle profile of a schedule under bound `pb`.
pub fn idle_profile(schedule: &Schedule, pb: u32) -> IdleProfile {
    let p = schedule.machine_procs as usize;
    let total_area = schedule.makespan * p as f64;
    let busy_area: f64 = schedule.tasks.iter().map(|t| t.duration() * t.procs.len() as f64).sum();

    // Sweep: busy-processor count over time via start/finish events. A
    // task with a non-finite start or finish occupies no interval.
    let mut events: Vec<(f64, i64)> = Vec::new();
    for t in &schedule.tasks {
        let finite = t.start.is_finite() && t.finish.is_finite();
        if finite && !t.procs.is_empty() && t.duration() > 0.0 {
            events.push((t.start, t.procs.len() as i64));
            events.push((t.finish, -(t.procs.len() as i64)));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let threshold = (schedule.machine_procs.saturating_sub(pb) + 1) as i64;
    let mut busy = 0i64;
    let mut prev_t = 0.0_f64;
    let mut idling_situation_time = 0.0;
    let (mut peak_busy, mut peak_at) = (0i64, 0.0_f64);
    let mut i = 0usize;
    while i < events.len() {
        let t = events[i].0;
        if busy < threshold && t > prev_t {
            idling_situation_time += t - prev_t;
        }
        // Apply all events at this timestamp.
        while i < events.len() && events[i].0 == t {
            busy += events[i].1;
            i += 1;
        }
        if busy > peak_busy {
            peak_busy = busy;
            peak_at = t;
        }
        prev_t = t;
    }
    if schedule.makespan > prev_t && busy < threshold {
        idling_situation_time += schedule.makespan - prev_t;
    }
    IdleProfile {
        total_area,
        busy_area,
        idle_area: total_area - busy_area,
        idling_situation_time,
        peak_busy: peak_busy.max(0) as usize,
        peak_at,
    }
}

/// Render the schedule as a self-contained SVG Gantt chart (one lane per
/// processor, one rectangle per task-processor occupation, task colors
/// derived deterministically from node ids, time axis in seconds).
pub fn gantt_svg(schedule: &Schedule, g: &Mdg) -> String {
    const WIDTH: f64 = 960.0;
    const LANE: f64 = 22.0;
    const LEFT: f64 = 52.0;
    const TOP: f64 = 30.0;
    let p = schedule.machine_procs as usize;
    let span = schedule.makespan.max(1e-12);
    let height = TOP + LANE * p as f64 + 40.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" font-family="monospace" font-size="11">"#,
        WIDTH + LEFT + 20.0,
        height
    );
    let _ = writeln!(
        s,
        r#"<text x="{LEFT}" y="16">{} — {} procs, makespan {:.4} s</text>"#,
        xml_escape(g.name()),
        p,
        schedule.makespan
    );
    for pid in 0..p {
        let y = TOP + LANE * pid as f64;
        let _ = writeln!(
            s,
            r##"<text x="4" y="{:.1}">P{pid}</text><line x1="{LEFT}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#ccc"/>"##,
            y + LANE * 0.7,
            y + LANE,
            LEFT + WIDTH,
            y + LANE
        );
    }
    for t in &schedule.tasks {
        if t.procs.is_empty() || t.duration() <= 0.0 {
            continue;
        }
        let x = LEFT + WIDTH * t.start / span;
        let w = (WIDTH * t.duration() / span).max(1.0);
        let hue = (t.node.0 as u64).wrapping_mul(47) % 360;
        for &pid in &t.procs {
            let y = TOP + LANE * pid as f64 + 1.0;
            let _ = writeln!(
                s,
                r##"<rect x="{x:.2}" y="{y:.1}" width="{w:.2}" height="{:.1}" fill="hsl({hue},65%,62%)" stroke="#444" stroke-width="0.4"><title>{}: [{:.4}, {:.4}) on {} procs</title></rect>"##,
                LANE - 2.0,
                xml_escape(&g.node(t.node).name),
                t.start,
                t.finish,
                t.procs.len()
            );
        }
    }
    // Time axis ticks.
    for k in 0..=8 {
        let frac = k as f64 / 8.0;
        let x = LEFT + WIDTH * frac;
        let y = TOP + LANE * p as f64;
        let _ = writeln!(
            s,
            r##"<line x1="{x:.1}" y1="{y:.1}" x2="{x:.1}" y2="{:.1}" stroke="#444"/><text x="{:.1}" y="{:.1}">{:.3}</text>"##,
            y + 5.0,
            x - 14.0,
            y + 18.0,
            span * frac
        );
    }
    s.push_str("</svg>\n");
    s
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Export the schedule as CSV: `node,name,procs,start,finish`.
pub fn to_csv(schedule: &Schedule, g: &Mdg) -> String {
    let mut out = String::from("node,name,procs,start,finish\n");
    for t in &schedule.tasks {
        let name = g.node(t.node).name.replace(',', ";");
        let procs = t.procs.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(" ");
        let _ = writeln!(out, "{},{name},{procs},{},{}", t.node.0, t.start, t.finish);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psa::{psa_schedule, PsaConfig};
    use paradigm_cost::{Allocation, Machine};
    use paradigm_mdg::{complex_matmul_mdg, example_fig1_mdg, KernelCostTable};

    #[test]
    fn fig1_mixed_schedule_has_zero_idle() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let mut alloc = Allocation::uniform(&g, 1.0);
        alloc.set(paradigm_mdg::NodeId(1), 4.0);
        alloc.set(paradigm_mdg::NodeId(2), 2.0);
        alloc.set(paradigm_mdg::NodeId(3), 2.0);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        let prof = idle_profile(&res.schedule, res.pb);
        // N1 on all 4, then N2||N3 on 2+2: the machine is never idle.
        assert!(prof.idle_area < 1e-9, "idle {}", prof.idle_area);
        assert!((prof.utilization() - 1.0).abs() < 1e-9);
        assert_eq!((prof.peak_busy, prof.peak_at), (4, 0.0));
        assert!(prof.idling_situation_time < 1e-9);
    }

    #[test]
    fn naive_schedule_has_full_utilization_but_more_area() {
        let g = example_fig1_mdg();
        let m = Machine::cm5(4);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prof = idle_profile(&res.schedule, res.pb);
        // Serial all-4 execution also keeps processors "busy" (on
        // inefficient work): total area is larger though.
        assert!((prof.utilization() - 1.0).abs() < 1e-9);
        assert!(prof.total_area > 4.0 * 14.3);
    }

    #[test]
    fn idle_appears_when_allocation_underuses_machine() {
        // One node on 2 procs of an 8-proc machine: 6 procs idle.
        let g = example_fig1_mdg();
        let m = Machine::cm5(8);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 2.0), &PsaConfig::default());
        let prof = idle_profile(&res.schedule, res.pb);
        assert!(prof.idle_area > 0.0);
        assert!(prof.utilization() < 0.8);
        // With the Corollary-1 PB (= 8 at p = 8) the Idling-Situation
        // threshold is 1 busy processor, which this schedule never drops
        // below...
        assert!(prof.idling_situation_time < 1e-9);
        // ...but against a tight bound PB = 2 (threshold 7 busy), the
        // whole schedule is an idling situation: at most 4 run at once.
        let tight = idle_profile(&res.schedule, 2);
        assert!((tight.idling_situation_time - res.schedule.makespan).abs() < 1e-9);
    }

    #[test]
    fn areas_are_consistent() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prof = idle_profile(&res.schedule, res.pb);
        assert!((prof.total_area - prof.busy_area - prof.idle_area).abs() < 1e-9);
        assert!(prof.busy_area <= prof.total_area + 1e-9);
        assert!(prof.peak_busy <= 16);
    }

    #[test]
    fn svg_contains_rect_per_task_processor_occupation() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(8);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let svg = gantt_svg(&res.schedule, &g);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        let expected_rects: usize = res.schedule.tasks.iter().map(|t| t.procs.len()).sum();
        assert_eq!(svg.matches("<rect ").count(), expected_rects);
        // Every processor lane is labeled.
        for pid in 0..8 {
            assert!(svg.contains(&format!(">P{pid}<")), "missing lane P{pid}");
        }
        // Node names appear as tooltips (XML-escaped).
        assert!(svg.contains("M1 = Ar*Br"));
    }

    #[test]
    fn svg_escapes_xml_metacharacters() {
        let mut b = paradigm_mdg::MdgBuilder::new("x<&>y");
        b.compute("a < b & c", paradigm_mdg::AmdahlParams::new(0.0, 1.0));
        let g = b.finish().unwrap();
        let m = Machine::cm5(2);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 1.0), &PsaConfig::default());
        let svg = gantt_svg(&res.schedule, &g);
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b & c"));
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let csv = to_csv(&res.schedule, &g);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "node,name,procs,start,finish");
        assert_eq!(lines.len(), 1 + g.node_count());
        // Node names containing commas must not break the column count.
        for row in &lines[1..] {
            assert_eq!(row.matches(',').count(), 4, "bad row: {row}");
        }
    }
}
