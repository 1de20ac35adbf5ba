//! Summary statistics over an MDG — used by reports, the Figure-6
//! reproduction, and the random-workload ablations.

use crate::graph::Mdg;
use crate::node::NodeKind;
use std::collections::BTreeMap;

/// Aggregate statistics describing an MDG's shape and weight.
#[derive(Debug, Clone, PartialEq)]
pub struct MdgStats {
    /// Total nodes including START/STOP.
    pub nodes: usize,
    /// Compute nodes only.
    pub compute_nodes: usize,
    /// Total edges.
    pub edges: usize,
    /// Edges carrying at least one array transfer.
    pub data_edges: usize,
    /// Total bytes moved across all edges.
    pub total_transfer_bytes: u64,
    /// Longest START→STOP path in hops (compute nodes on it).
    pub depth: usize,
    /// Maximum number of nodes at any depth level (graph width).
    pub max_width: usize,
    /// Sum of single-processor times `tau` over compute nodes (the serial
    /// execution time of the whole program).
    pub serial_time: f64,
    /// Critical-path time at one processor per node, zero transfer cost —
    /// an upper bound on attainable functional parallelism.
    pub single_proc_critical_path: f64,
    /// Compute node count per loop class tag.
    pub class_histogram: BTreeMap<String, usize>,
}

impl MdgStats {
    /// Compute all statistics for `g`.
    pub fn of(g: &Mdg) -> MdgStats {
        let mut class_histogram: BTreeMap<String, usize> = BTreeMap::new();
        let mut serial_time = 0.0;
        for (_, n) in g.nodes() {
            if n.kind == NodeKind::Compute {
                serial_time += n.cost.tau;
                *class_histogram.entry(n.meta.class.tag().to_string()).or_insert(0) += 1;
            }
        }
        let data_edges = g.edges().filter(|(_, e)| !e.transfers.is_empty()).count();
        let total_transfer_bytes = g.edges().map(|(_, e)| e.total_bytes()).sum();
        let depths = g.depths();
        let depth_hops = depths.iter().copied().max().unwrap_or(0);
        // Subtract the two structural hops (START and STOP levels).
        let depth = depth_hops.saturating_sub(1);
        let max_width = g.level_widths().into_iter().max().unwrap_or(0);
        let single_proc_critical_path = g.critical_path_with(|v| g.node(v).cost.tau, |_| 0.0);
        MdgStats {
            nodes: g.node_count(),
            compute_nodes: g.compute_node_count(),
            edges: g.edge_count(),
            data_edges,
            total_transfer_bytes,
            depth,
            max_width,
            serial_time,
            single_proc_critical_path,
            class_histogram,
        }
    }

    /// The graph's inherent functional parallelism: serial time divided by
    /// the single-processor critical path. 1.0 for a pure chain.
    pub fn inherent_parallelism(&self) -> f64 {
        if self.single_proc_critical_path > 0.0 {
            self.serial_time / self.single_proc_critical_path
        } else {
            1.0
        }
    }

    /// Render a compact multi-line summary for reports.
    pub fn render(&self, name: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("MDG `{name}`\n"));
        s.push_str(&format!(
            "  nodes: {} ({} compute), edges: {} ({} with data)\n",
            self.nodes, self.compute_nodes, self.edges, self.data_edges
        ));
        s.push_str(&format!(
            "  depth: {}, max width: {}, transfer volume: {} bytes\n",
            self.depth, self.max_width, self.total_transfer_bytes
        ));
        s.push_str(&format!(
            "  serial time: {:.4} s, 1-proc critical path: {:.4} s, inherent parallelism: {:.2}x\n",
            self.serial_time,
            self.single_proc_critical_path,
            self.inherent_parallelism()
        ));
        let classes: Vec<String> =
            self.class_histogram.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        s.push_str(&format!("  loop classes: {{{}}}\n", classes.join(", ")));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MdgBuilder;
    use crate::node::{AmdahlParams, ArrayTransfer, LoopClass, LoopMeta, TransferKind};

    #[test]
    fn stats_of_fork_join() {
        let mut b = MdgBuilder::new("fj");
        let src = b.compute_with_meta(
            "src",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 64),
        );
        let l = b.compute_with_meta(
            "l",
            AmdahlParams::new(0.1, 2.0),
            LoopMeta::square(LoopClass::MatrixMultiply, 64),
        );
        let r = b.compute_with_meta(
            "r",
            AmdahlParams::new(0.1, 3.0),
            LoopMeta::square(LoopClass::MatrixMultiply, 64),
        );
        let sink = b.compute_with_meta(
            "sink",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixAdd, 64),
        );
        b.edge(src, l, vec![ArrayTransfer::new(100, TransferKind::OneD)]);
        b.edge(src, r, vec![ArrayTransfer::new(200, TransferKind::OneD)]);
        b.edge(l, sink, vec![]);
        b.edge(r, sink, vec![]);
        let g = b.finish().unwrap();
        let s = MdgStats::of(&g);
        assert_eq!(s.compute_nodes, 4);
        assert_eq!(s.data_edges, 2);
        assert_eq!(s.total_transfer_bytes, 300);
        assert_eq!(s.depth, 3); // src -> (l|r) -> sink
        assert_eq!(s.max_width, 2);
        assert!((s.serial_time - 7.0).abs() < 1e-12);
        // critical path: src(1) + r(3) + sink(1) = 5
        assert!((s.single_proc_critical_path - 5.0).abs() < 1e-12);
        assert!((s.inherent_parallelism() - 7.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.class_histogram.get("mul"), Some(&2));
        assert_eq!(s.class_histogram.get("add"), Some(&1));
        assert_eq!(s.class_histogram.get("init"), Some(&1));
    }

    #[test]
    fn render_contains_key_fields() {
        let mut b = MdgBuilder::new("one");
        b.compute("solo", AmdahlParams::new(0.0, 4.0));
        let g = b.finish().unwrap();
        let text = MdgStats::of(&g).render("one");
        assert!(text.contains("MDG `one`"));
        assert!(text.contains("1 compute"));
        assert!(text.contains("serial time: 4.0000"));
    }

    #[test]
    fn chain_has_unit_parallelism() {
        let mut b = MdgBuilder::new("chain");
        let mut prev = b.compute("n0", AmdahlParams::new(0.0, 1.0));
        for i in 1..5 {
            let next = b.compute(format!("n{i}"), AmdahlParams::new(0.0, 1.0));
            b.edge(prev, next, vec![]);
            prev = next;
        }
        let g = b.finish().unwrap();
        let s = MdgStats::of(&g);
        assert!((s.inherent_parallelism() - 1.0).abs() < 1e-12);
        assert_eq!(s.depth, 5);
        assert_eq!(s.max_width, 1);
    }
}
