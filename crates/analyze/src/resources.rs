//! Static resource analysis: sound per-processor memory and
//! communication bounds — `paradigm-analyze`'s third major pass.
//!
//! Given an MDG and a machine (and optionally a schedule), this module
//! computes **guaranteed interval bounds** on per-processor peak resident
//! memory and on total communication volume, with no simulation and no
//! solver. The abstract domain is the interval domain over bytes:
//!
//! * every compute node `i` gets a footprint `fp_i` (local array +
//!   inbound operands + outbound results, from
//!   [`paradigm_mdg::footprint`]) and a per-processor **residency
//!   interval** `[fp_i / P, fp_i]` — at best the working set spreads
//!   evenly over all `P` processors; at worst it concentrates on one;
//! * edge data stays **live** from its producer's finish to its
//!   consumer's finish, so while `i` executes, every edge `(a, b)` with
//!   `a ≺ i ≺ b` (a precedence path crossing `i`) also occupies machine
//!   memory. The **live-range union** over such crossing paths yields
//!   `demand_i`: a lower bound on the machine-wide resident bytes at the
//!   instant `i` runs, valid for *every* allocation and *every* schedule.
//!
//! `demand_i > P * mem` therefore proves "no allocation of this MDG on
//! this machine can fit" — statically.
//!
//! The **post-schedule** pass ([`check_schedule_memory`]) replaces the
//! allocation box with the schedule's concrete groups and runs a
//! sweep-line per processor (releases before acquisitions at equal
//! times): node `i` charges
//! `(local_i + out_i) / q_i` on each of its processors over
//! `[start_i, finish_i)`, and each data edge `(m, j)` charges
//! `payload / q_j` on `j`'s processors over `[finish_m, finish_j)` —
//! the even block-distribution model. Schedule validity is thereby
//! precedence + capacity + **memory**.
//!
//! Soundness versus the simulator (pinned by a property test at the
//! workspace root): the simulator's concrete accounting charges a
//! processor at most the *actual* message bytes it receives plus
//! `local/q` plus its outbound bytes; all of these are dominated by the
//! pre-schedule upper bound [`ResourceAnalysis::peak_interval`]`.1 =
//! max_i self_i + total_comm`, since one processor can never hold more
//! than every payload plus the largest single working set.

use crate::lint::{Diagnostic, Fix, Lint, LintLocation, LintSet, Severity};
use paradigm_cost::Machine;
use paradigm_mdg::footprint::{edge_payload_bytes, node_footprint, NodeFootprint};
use paradigm_mdg::{total_comm_bytes, Mdg, NodeId};
use paradigm_sched::Schedule;
use std::cmp::Ordering;

/// Relative tolerance for capacity comparisons (float noise only; all
/// byte counts are exact integers promoted to `f64`).
pub const MEM_RTOL: f64 = 1e-9;

/// Per-node result of the pre-schedule pass.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResidency {
    /// The compute node.
    pub node: NodeId,
    /// Its footprint decomposition.
    pub footprint: NodeFootprint,
    /// Guaranteed per-processor resident-byte interval `[lo, hi]` over
    /// every allocation in `[1, P]` and every valid schedule.
    pub interval: (f64, f64),
    /// Smallest group size whose per-processor share of the footprint
    /// fits in memory; `None` when even all `P` processors cannot hold it.
    pub min_group: Option<u32>,
    /// Machine-wide live bytes while this node executes: its own
    /// footprint plus every edge whose producer precedes and whose
    /// consumer succeeds this node (live-range union over precedence
    /// paths).
    pub demand_bytes: u64,
}

/// Result of the pre-schedule resource analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceAnalysis {
    /// Graph name.
    pub graph: String,
    /// Machine size the intervals are taken over.
    pub procs: u32,
    /// Per-processor memory capacity analyzed against.
    pub mem_bytes: u64,
    /// Compute nodes in node-index order.
    pub nodes: Vec<NodeResidency>,
    /// Guaranteed interval containing the per-processor peak resident
    /// bytes of **any** allocation + schedule of this graph:
    /// `lo = max_i demand_i / P`, `hi = max_i self_i + total_comm`.
    pub peak_interval: (f64, f64),
    /// Total communication volume (sum of all edge payloads).
    pub total_comm_bytes: u64,
    /// False when some node proves no allocation can fit
    /// (`demand_i > P * mem`).
    pub feasible: bool,
}

impl ResourceAnalysis {
    /// Nodes that prove infeasibility (machine-wide demand exceeds the
    /// whole machine's memory).
    fn infeasible_nodes(&self) -> impl Iterator<Item = &NodeResidency> {
        let cap = total_capacity(self.procs, self.mem_bytes);
        self.nodes.iter().filter(move |n| n.demand_bytes > cap)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "resource analysis: `{}` on {} procs x {} per-processor memory",
            self.graph,
            self.procs,
            fmt_bytes(self.mem_bytes)
        );
        let _ = writeln!(out, "  total communication volume: {}", fmt_bytes(self.total_comm_bytes));
        let _ = writeln!(
            out,
            "  per-processor peak resident set in [{}, {}]",
            fmt_bytes_f(self.peak_interval.0),
            fmt_bytes_f(self.peak_interval.1)
        );
        for n in &self.nodes {
            let group = match n.min_group {
                Some(1) => "fits on 1 proc".to_string(),
                Some(k) => format!("needs a group of >= {k}"),
                None => "DOES NOT FIT at any group size".to_string(),
            };
            let _ = writeln!(
                out,
                "  {}: footprint {} (local {} + in {} + out {}), residency [{}, {}], {}",
                n.node,
                fmt_bytes(n.footprint.total_bytes()),
                fmt_bytes(n.footprint.local_bytes),
                fmt_bytes(n.footprint.in_bytes),
                fmt_bytes(n.footprint.out_bytes),
                fmt_bytes_f(n.interval.0),
                fmt_bytes_f(n.interval.1),
                group
            );
        }
        let verdict = if self.feasible {
            "feasible: every node's live set fits the machine".to_string()
        } else {
            let worst = self
                .infeasible_nodes()
                .max_by_key(|n| n.demand_bytes)
                .expect("infeasible analysis names a witness");
            format!(
                "INFEASIBLE: node {} needs {} live bytes but the machine holds {}",
                worst.node,
                fmt_bytes(worst.demand_bytes),
                fmt_bytes(total_capacity(self.procs, self.mem_bytes))
            )
        };
        let _ = writeln!(out, "  verdict: {verdict}");
        out
    }
}

/// Whole-machine capacity in bytes. All byte counts are exact `u64`, so
/// feasibility comparisons are integer-exact — no float tolerance.
fn total_capacity(procs: u32, mem_bytes: u64) -> u64 {
    (procs as u64).saturating_mul(mem_bytes)
}

fn fmt_bytes(b: u64) -> String {
    fmt_bytes_f(b as f64)
}

fn fmt_bytes_f(b: f64) -> String {
    if !b.is_finite() {
        return "+inf".to_string();
    }
    const KIB: f64 = 1024.0;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.2} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

/// Run the pre-schedule pass: footprint intervals, live-range demand,
/// and the machine-level feasibility verdict.
pub fn analyze_resources(g: &Mdg, machine: &Machine) -> ResourceAnalysis {
    let procs = machine.procs;
    let p = procs as f64;
    // Precompute reachability once: reach[a][b] = path a -> b. Graphs
    // are small (tens of nodes); dense Vec<bool> rows are fine.
    let reach = reachability(g);

    let mut nodes = Vec::new();
    let mut peak_lo = 0.0_f64;
    let mut max_self = 0u64;
    let mut feasible = true;
    let cap = total_capacity(procs, machine.mem_bytes);

    for (id, node) in g.nodes() {
        if node.is_structural() {
            continue;
        }
        let fp = node_footprint(g, id);
        let total = fp.total_bytes();
        max_self = max_self.max(fp.self_bytes());

        // Live-range union: edges (a, b) with a -> ... -> i -> ... -> b
        // strictly crossing i are live while i executes; i's own
        // footprint already counts its in/out edges.
        let mut demand = total;
        for (eid, e) in g.edges() {
            if e.src == id.0 || e.dst == id.0 {
                continue;
            }
            let crosses = reach[e.src][id.0] && reach[id.0][e.dst];
            if crosses {
                demand += edge_payload_bytes(g, eid);
            }
        }

        let lo = total as f64 / p;
        let hi = total as f64;
        // Smallest q in 1..=P with ceil-division fp/q <= mem; exact.
        let min_group = {
            let k = total.div_ceil(machine.mem_bytes).max(1);
            if k <= procs as u64 {
                Some(k as u32)
            } else {
                None
            }
        };
        if demand > cap {
            feasible = false;
        }
        peak_lo = peak_lo.max(demand as f64 / p);
        nodes.push(NodeResidency {
            node: id,
            footprint: fp,
            interval: (lo, hi),
            min_group,
            demand_bytes: demand,
        });
    }

    let comm = total_comm_bytes(g);
    let peak_hi = max_self as f64 + comm as f64;
    debug_assert_eq!(nodes.len(), g.compute_node_count());
    ResourceAnalysis {
        graph: g.name().to_string(),
        procs,
        mem_bytes: machine.mem_bytes,
        nodes,
        peak_interval: (peak_lo, peak_hi),
        total_comm_bytes: comm,
        feasible,
    }
}

/// Dense all-pairs reachability over node indices (`reach[a][b]` = path
/// from a to b, reflexive).
fn reachability(g: &Mdg) -> Vec<Vec<bool>> {
    let n = g.node_count();
    let mut reach = vec![vec![false; n]; n];
    // Process in reverse topological order: reach[v] = {v} U succ sets.
    for &v in g.topo_order().iter().rev() {
        reach[v.0][v.0] = true;
        let succs: Vec<usize> = g.succs(v).map(|s| s.0).collect();
        for s in succs {
            // reach[v] |= reach[s]
            let (head, tail) = if v.0 < s {
                let (a, b) = reach.split_at_mut(s);
                (&mut a[v.0], &b[0])
            } else {
                let (a, b) = reach.split_at_mut(v.0);
                (&mut b[0], &a[s])
            };
            for (dst, &src) in head.iter_mut().zip(tail.iter()) {
                *dst = *dst || src;
            }
        }
    }
    reach
}

// ---------------------------------------------------------------------
// Post-schedule pass: per-processor resident-set sweep-line.
// ---------------------------------------------------------------------

/// One processor exceeding its memory capacity at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryViolation {
    /// Global processor id.
    pub proc: u32,
    /// Time at which the resident set first exceeded capacity.
    pub at: f64,
    /// Model resident bytes at that instant.
    pub resident_bytes: f64,
    /// The capacity that was exceeded.
    pub capacity_bytes: u64,
}

impl std::fmt::Display for MemoryViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "processor {} holds {} resident bytes at t={:.6}, capacity {}",
            self.proc,
            fmt_bytes_f(self.resident_bytes),
            self.at,
            fmt_bytes(self.capacity_bytes)
        )
    }
}

/// Result of the post-schedule memory sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySweep {
    /// Peak model resident bytes per processor (indexed by global id).
    pub proc_peaks: Vec<f64>,
    /// Max over processors.
    pub peak_bytes: f64,
    /// Capacity violations, one per offending processor (first instant).
    pub violations: Vec<MemoryViolation>,
}

impl MemorySweep {
    /// True when every processor stays within capacity.
    pub fn fits(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sweep the schedule's per-processor resident sets under the even
/// block-distribution model and check them against
/// [`Machine::mem_bytes`]. Tasks missing from the schedule are skipped —
/// the precedence checker reports those separately.
pub fn check_schedule_memory(g: &Mdg, machine: &Machine, s: &Schedule) -> MemorySweep {
    let np = s.machine_procs.max(machine.procs) as usize;
    // (proc, time, +/- bytes) events.
    let mut events: Vec<(usize, f64, f64)> = Vec::new();
    let mut charge = |procs: &[u32], t0: f64, t1: f64, bytes: f64| {
        // `partial_cmp` rather than `!(t0 < t1)`: NaN endpoints must
        // also skip the charge, and clippy wants that spelled out.
        if procs.is_empty() || bytes <= 0.0 || t0.partial_cmp(&t1) != Some(Ordering::Less) {
            return;
        }
        let share = bytes / procs.len() as f64;
        for &p in procs {
            events.push((p as usize, t0, share));
            events.push((p as usize, t1, -share));
        }
    };

    let by_node = s.by_node();
    for (id, node) in g.nodes() {
        if node.is_structural() {
            continue;
        }
        let Some(task) = by_node.get(id) else { continue };
        let fp = node_footprint(g, id);
        charge(&task.procs, task.start, task.finish, fp.self_bytes() as f64);
    }
    for (eid, e) in g.edges() {
        let bytes = edge_payload_bytes(g, eid);
        if bytes == 0 {
            continue;
        }
        let (Some(prod), Some(cons)) = (by_node.get(NodeId(e.src)), by_node.get(NodeId(e.dst)))
        else {
            continue;
        };
        charge(&cons.procs, prod.finish, cons.finish, bytes as f64);
    }

    // Sweep each processor: releases before acquisitions at equal times.
    let mut per_proc: Vec<Vec<(f64, f64)>> = vec![Vec::new(); np];
    for (p, t, d) in events {
        if p < np {
            per_proc[p].push((t, d));
        }
    }
    let cap = machine.mem_bytes as f64 * (1.0 + MEM_RTOL) + 0.5;
    let mut proc_peaks = vec![0.0_f64; np];
    let mut violations = Vec::new();
    for (p, evs) in per_proc.iter_mut().enumerate() {
        evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut resident = 0.0_f64;
        let mut reported = false;
        for &(t, d) in evs.iter() {
            resident += d;
            if resident > proc_peaks[p] {
                proc_peaks[p] = resident;
            }
            if !reported && resident > cap {
                reported = true;
                violations.push(MemoryViolation {
                    proc: p as u32,
                    at: t,
                    resident_bytes: resident,
                    capacity_bytes: machine.mem_bytes,
                });
            }
        }
    }
    let peak_bytes = proc_peaks.iter().copied().fold(0.0, f64::max);
    MemorySweep { proc_peaks, peak_bytes, violations }
}

// ---------------------------------------------------------------------
// Memory lints.
// ---------------------------------------------------------------------

/// Error: some node's live-range demand exceeds the whole machine's
/// memory — no allocation of this MDG on this machine can fit.
struct MemoryInfeasible {
    /// Machine analyzed against.
    machine: Machine,
}

impl Lint for MemoryInfeasible {
    fn name(&self) -> &'static str {
        "memory-infeasible"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        let ra = analyze_resources(g, &self.machine);
        if ra.feasible {
            return;
        }
        let cap = self.machine.procs as u64 * self.machine.mem_bytes;
        for n in ra.infeasible_nodes() {
            out.push(Diagnostic {
                lint: self.name(),
                severity: Severity::Error,
                location: LintLocation::Node(n.node),
                message: format!(
                    "live set while this node executes is {} but the whole machine \
                     ({} procs x {}) holds only {}",
                    fmt_bytes(n.demand_bytes),
                    self.machine.procs,
                    fmt_bytes(self.machine.mem_bytes),
                    fmt_bytes(cap)
                ),
                hint: Some(
                    "no allocation can fit; raise --mem-mb, use more processors, or shrink \
                     the arrays"
                        .to_string(),
                ),
                fix: None,
            });
        }
    }
}

/// Warning: a node does not fit on a single processor — only group
/// sizes at or above a floor are feasible for it.
struct OversubscribedFootprint {
    /// Machine analyzed against.
    machine: Machine,
}

impl Lint for OversubscribedFootprint {
    fn name(&self) -> &'static str {
        "oversubscribed-footprint"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        let ra = analyze_resources(g, &self.machine);
        let cap = total_capacity(self.machine.procs, self.machine.mem_bytes);
        for n in &ra.nodes {
            // Infeasible nodes are memory-infeasible's business.
            if n.demand_bytes > cap {
                continue;
            }
            match n.min_group {
                Some(k) if k > 1 => out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Warning,
                    location: LintLocation::Node(n.node),
                    message: format!(
                        "footprint {} oversubscribes one processor's {}; only groups of \
                         >= {k} processors can hold it",
                        fmt_bytes(n.footprint.total_bytes()),
                        fmt_bytes(self.machine.mem_bytes)
                    ),
                    hint: Some(format!(
                        "the allocator must give this node at least {k} processors; pin the \
                         allocation or raise --mem-mb"
                    )),
                    fix: None,
                }),
                _ => {}
            }
        }
    }
}

/// Warning: a node's local footprint is underivable (placeholder 0x0
/// dims while carrying data transfers in a graph with real dimensions),
/// so the memory analysis under-counts it. Mirrors `loop-metadata`'s
/// exemption for fully synthetic graphs and carries the same
/// [`Fix::DeriveLoopDims`] when the dims are mechanically derivable.
struct MissingFootprint;

impl Lint for MissingFootprint {
    fn name(&self) -> &'static str {
        "missing-footprint"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        let any_real =
            g.nodes().any(|(_, n)| !n.is_structural() && n.meta.rows > 0 && n.meta.cols > 0);
        if !any_real {
            return; // fully synthetic: placeholders are the convention
        }
        for (id, node) in g.nodes() {
            if node.is_structural() || (node.meta.rows > 0 && node.meta.cols > 0) {
                continue;
            }
            let fp = node_footprint(g, id);
            if fp.in_bytes + fp.out_bytes <= 1 {
                continue; // moves no real data: nothing to under-count
            }
            let fix = crate::lint::derive_square_dims(g, id).map(|n| Fix::DeriveLoopDims {
                node: id,
                rows: n,
                cols: n,
            });
            out.push(Diagnostic {
                lint: self.name(),
                severity: Severity::Warning,
                location: LintLocation::Node(id),
                message: format!(
                    "local footprint unknown (placeholder 0x0 dims) while the node moves {} \
                     — the memory analysis under-counts its resident set",
                    fmt_bytes(fp.in_bytes + fp.out_bytes)
                ),
                hint: Some(
                    "declare the loop dimensions; --fix derives them from the transfers when \
                     the largest one is a square f64 matrix"
                        .to_string(),
                ),
                fix,
            });
        }
    }
}

/// The three memory lints, parameterized by the machine under analysis.
pub fn memory_lint_set(machine: &Machine) -> LintSet {
    LintSet::default()
        .with(Box::new(MemoryInfeasible { machine: *machine }))
        .with(Box::new(OversubscribedFootprint { machine: *machine }))
        .with(Box::new(MissingFootprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{
        complex_matmul_mdg, AmdahlParams, ArrayTransfer, KernelCostTable, LoopClass, LoopMeta,
        MdgBuilder, TransferKind,
    };
    use paradigm_sched::{psa_schedule, PsaConfig};

    fn big_node_graph(n: usize) -> Mdg {
        // One n x n producer feeding one n x n consumer.
        let mut b = MdgBuilder::new("big");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.05, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, n),
        );
        let c = b.compute_with_meta(
            "c",
            AmdahlParams::new(0.05, 1.0),
            LoopMeta::square(LoopClass::MatrixAdd, n),
        );
        b.edge(a, c, vec![ArrayTransfer::matrix_1d(n, n)]);
        b.finish().unwrap()
    }

    #[test]
    fn gallery_graph_is_feasible_on_cm5() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let ra = analyze_resources(&g, &m);
        assert!(ra.feasible, "{}", ra.render());
        assert!(ra.peak_interval.0 <= ra.peak_interval.1);
        assert!(ra.total_comm_bytes > 0);
        for n in &ra.nodes {
            assert_eq!(n.min_group, Some(1), "64x64 working sets fit one 32 MiB node");
            assert!(n.interval.0 <= n.interval.1);
            assert!(n.demand_bytes >= n.footprint.total_bytes());
        }
    }

    #[test]
    fn interval_endpoints_scale_with_machine_size() {
        let g = big_node_graph(64);
        let ra4 = analyze_resources(&g, &Machine::cm5(4));
        let ra16 = analyze_resources(&g, &Machine::cm5(16));
        for (a, b) in ra4.nodes.iter().zip(&ra16.nodes) {
            assert!(a.interval.0 > b.interval.0, "lo shrinks as P grows");
            assert_eq!(a.interval.1, b.interval.1, "hi is the q=1 concentration");
        }
    }

    #[test]
    fn oversized_graph_is_proved_infeasible() {
        // 8192 x 8192 f64 = 512 MiB per array; machine holds 4 x 1 MiB.
        let g = big_node_graph(8192);
        let m = Machine::cm5(4).with_mem_bytes(1024 * 1024);
        let ra = analyze_resources(&g, &m);
        assert!(!ra.feasible);
        assert!(ra.infeasible_nodes().next().is_some());
        assert!(ra.render().contains("INFEASIBLE"));
    }

    #[test]
    fn crossing_edges_raise_demand() {
        // a -> b -> c plus a long-lived edge a -> c crossing b.
        let mut b = MdgBuilder::new("crossing");
        let na = b.compute("a", AmdahlParams::new(0.1, 1.0));
        let nb = b.compute("b", AmdahlParams::new(0.1, 1.0));
        let nc = b.compute("c", AmdahlParams::new(0.1, 1.0));
        b.edge(na, nb, vec![ArrayTransfer::new(1000, TransferKind::OneD)]);
        b.edge(nb, nc, vec![ArrayTransfer::new(2000, TransferKind::OneD)]);
        b.edge(na, nc, vec![ArrayTransfer::new(5000, TransferKind::OneD)]);
        let g = b.finish().unwrap();
        let ra = analyze_resources(&g, &Machine::cm5(4));
        // b (node id 2) holds its own 1000-in + 2000-out plus the 5000
        // bytes of a->c which are live across its execution.
        let rb = ra.nodes.iter().find(|n| n.node == NodeId(2)).unwrap();
        assert_eq!(rb.footprint.total_bytes(), 3000);
        assert_eq!(rb.demand_bytes, 8000);
        // a and c do not see a crossing edge (they are endpoints of it).
        let raa = ra.nodes.iter().find(|n| n.node == NodeId(1)).unwrap();
        assert_eq!(raa.demand_bytes, raa.footprint.total_bytes());
    }

    #[test]
    fn schedule_sweep_fits_small_graphs_and_flags_tiny_machines() {
        let g = big_node_graph(64);
        let m = Machine::cm5(4);
        let alloc = paradigm_cost::Allocation::uniform(&g, 2.0);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        let sweep = check_schedule_memory(&g, &m, &res.schedule);
        assert!(sweep.fits(), "{:?}", sweep.violations);
        assert!(sweep.peak_bytes > 0.0);

        // Same schedule on 4 KiB nodes cannot hold the 32 KiB arrays.
        let tiny = Machine::cm5(4).with_mem_bytes(4 * 1024);
        let sweep2 = check_schedule_memory(&g, &tiny, &res.schedule);
        assert!(!sweep2.fits());
        assert!(sweep2.violations[0].resident_bytes > 4.0 * 1024.0);
    }

    #[test]
    fn sweep_peak_is_within_static_interval() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let m = Machine::cm5(16);
        let alloc = paradigm_cost::Allocation::uniform(&g, 4.0);
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        let sweep = check_schedule_memory(&g, &m, &res.schedule);
        let ra = analyze_resources(&g, &m);
        assert!(
            sweep.peak_bytes <= ra.peak_interval.1 + 0.5,
            "sweep {} vs static hi {}",
            sweep.peak_bytes,
            ra.peak_interval.1
        );
    }

    #[test]
    fn memory_lints_fire_in_order() {
        let m = Machine::cm5(4).with_mem_bytes(1024 * 1024);
        // Feasible when spread, oversubscribed at q=1: 512x512 = 2 MiB.
        let over = big_node_graph(512);
        let diags = memory_lint_set(&m).run(&over);
        assert!(diags.iter().any(|d| d.lint == "oversubscribed-footprint"));
        assert!(!diags.iter().any(|d| d.lint == "memory-infeasible"));

        let infeasible = big_node_graph(8192);
        let diags = memory_lint_set(&m).run(&infeasible);
        assert!(diags.iter().any(|d| d.lint == "memory-infeasible"));
        assert!(crate::lint::has_errors(&diags));
    }

    #[test]
    fn missing_footprint_fires_on_mixed_graphs_with_fix() {
        let mut b = MdgBuilder::new("mixed");
        let a = b.compute_with_meta(
            "real",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 8),
        );
        let c = b.compute("ghost", AmdahlParams::new(0.1, 1.0));
        b.edge(a, c, vec![ArrayTransfer::matrix_1d(8, 8)]);
        let g = b.finish().unwrap();
        let diags = memory_lint_set(&Machine::cm5(4)).run(&g);
        let d = diags.iter().find(|d| d.lint == "missing-footprint").unwrap();
        assert!(matches!(d.fix, Some(Fix::DeriveLoopDims { rows: 8, cols: 8, .. })));

        // Applying the fix silences the lint.
        let (fixed, _) = crate::lint::apply_fixes(&g, &diags);
        let diags2 = memory_lint_set(&Machine::cm5(4)).run(&fixed);
        assert!(!diags2.iter().any(|d| d.lint == "missing-footprint"));
    }

    #[test]
    fn fully_synthetic_graphs_are_exempt_from_missing_footprint() {
        let g = paradigm_mdg::example_fig1_mdg();
        let diags = memory_lint_set(&Machine::cm5(4)).run(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
