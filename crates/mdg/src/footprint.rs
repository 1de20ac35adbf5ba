//! Symbolic memory footprints for MDG nodes and edges.
//!
//! Every downstream memory analysis — the static resource analyzer in
//! `paradigm-analyze`, the schedule auditor's capacity sweep, and the
//! simulator's concrete resident-set accounting — derives its byte counts
//! from the expressions defined here, so the layers agree on what "the
//! footprint of node i" means:
//!
//! * a compute node's **local** array is the `rows x cols` matrix of
//!   `f64` its loop nest touches (`node_local_bytes`); synthetic nodes
//!   (zero extent) own no modeled array;
//! * a data edge's **payload** is the total bytes of its array
//!   transfers, floored at one byte between compute endpoints because
//!   code generation lowers even a data-less precedence edge to a 1-byte
//!   token message ([`edge_payload_bytes`]); structural (START/STOP)
//!   wiring moves nothing;
//! * a node must hold, while resident, its local array, every inbound
//!   payload (operands), and every outbound payload (results being
//!   produced) — [`node_footprint`].
//!
//! All quantities are exact `u64` byte counts; how they divide over a
//! processor group (evenly, in the block-distribution model) is the
//! analyzer's concern, not the graph's.

use crate::graph::{EdgeId, Mdg, NodeId};
use crate::node::Node;

/// Byte footprint of one node, split into the three components the
/// resident-set model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFootprint {
    /// Bytes of the node's own `rows x cols` array (0 for synthetic).
    pub local_bytes: u64,
    /// Sum of inbound edge payloads (operands received).
    pub in_bytes: u64,
    /// Sum of outbound edge payloads (results produced).
    pub out_bytes: u64,
}

impl NodeFootprint {
    /// Bytes resident on the node's own processor group while it
    /// executes, excluding operands: local array plus outputs.
    pub fn self_bytes(&self) -> u64 {
        self.local_bytes + self.out_bytes
    }

    /// Total working set: local array + operands + results.
    pub fn total_bytes(&self) -> u64 {
        self.local_bytes + self.in_bytes + self.out_bytes
    }
}

/// Bytes of the node's own array: `rows * cols * size_of::<f64>()`.
/// Synthetic nodes (`rows == 0 || cols == 0`) own no modeled array.
fn node_local_bytes(node: &Node) -> u64 {
    (node.meta.rows as u64) * (node.meta.cols as u64) * (std::mem::size_of::<f64>() as u64)
}

/// Bytes moved along an edge in the resident-set model. Structural
/// (START/STOP) wiring is free; a data-less edge between compute nodes
/// costs the 1-byte synchronization token codegen will synthesize for it.
pub fn edge_payload_bytes(g: &Mdg, e: EdgeId) -> u64 {
    let edge = g.edge(e);
    if g.node(NodeId(edge.src)).is_structural() || g.node(NodeId(edge.dst)).is_structural() {
        return 0;
    }
    edge.total_bytes().max(1)
}

/// The full footprint of `id`: local array plus all inbound and outbound
/// edge payloads. Structural nodes have a zero footprint.
pub fn node_footprint(g: &Mdg, id: NodeId) -> NodeFootprint {
    let node = g.node(id);
    if node.is_structural() {
        return NodeFootprint { local_bytes: 0, in_bytes: 0, out_bytes: 0 };
    }
    let in_bytes = g.in_edges(id).iter().map(|&e| edge_payload_bytes(g, e)).sum();
    let out_bytes = g.out_edges(id).iter().map(|&e| edge_payload_bytes(g, e)).sum();
    NodeFootprint { local_bytes: node_local_bytes(node), in_bytes, out_bytes }
}

/// Total communication volume of the graph: the sum of every edge
/// payload. This is exactly the data the program moves between groups
/// (plus one token byte per data-less compute-compute edge).
pub fn total_comm_bytes(g: &Mdg) -> u64 {
    g.edges().map(|(e, _)| edge_payload_bytes(g, e)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{complex_matmul_mdg, KernelCostTable};
    use crate::graph::MdgBuilder;
    use crate::node::{AmdahlParams, ArrayTransfer, LoopClass, LoopMeta};

    fn chain() -> Mdg {
        let mut b = MdgBuilder::new("fp");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 64),
        );
        let c = b.compute("c", AmdahlParams::new(0.1, 1.0));
        let d = b.compute("d", AmdahlParams::new(0.1, 1.0));
        b.edge(a, c, vec![ArrayTransfer::matrix_1d(64, 64)]);
        b.edge(c, d, vec![]); // pure precedence between compute nodes
        b.finish().unwrap()
    }

    #[test]
    fn local_bytes_follow_dims() {
        let g = chain();
        let a = g.node(NodeId(1));
        assert_eq!(node_local_bytes(a), 64 * 64 * 8);
        assert_eq!(node_local_bytes(g.node(NodeId(2))), 0); // synthetic
        assert_eq!(node_local_bytes(g.node(g.start())), 0);
    }

    #[test]
    fn structural_edges_are_free_and_tokens_cost_one_byte() {
        let g = chain();
        let mut payloads: Vec<u64> = g.edges().map(|(e, _)| edge_payload_bytes(&g, e)).collect();
        payloads.sort_unstable();
        // START->a, d->STOP are free; c->d is a 1-byte token; a->c moves
        // the 32 KiB matrix.
        assert_eq!(payloads, vec![0, 0, 1, 64 * 64 * 8]);
        assert_eq!(total_comm_bytes(&g), 64 * 64 * 8 + 1);
    }

    #[test]
    fn node_footprint_sums_components() {
        let g = chain();
        let fa = node_footprint(&g, NodeId(1));
        assert_eq!(fa, NodeFootprint { local_bytes: 64 * 64 * 8, in_bytes: 0, out_bytes: 32768 });
        assert_eq!(fa.self_bytes(), 64 * 64 * 8 + 32768);
        assert_eq!(fa.total_bytes(), 64 * 64 * 8 + 32768);
        let fc = node_footprint(&g, NodeId(2));
        assert_eq!(fc, NodeFootprint { local_bytes: 0, in_bytes: 32768, out_bytes: 1 });
        let start = node_footprint(&g, g.start());
        assert_eq!(start.total_bytes(), 0);
    }

    #[test]
    fn gallery_graph_has_positive_footprints() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        for (id, n) in g.nodes() {
            if !n.is_structural() {
                assert!(node_footprint(&g, id).total_bytes() > 0, "node {id} has no footprint");
            }
        }
        assert!(total_comm_bytes(&g) > 0);
    }
}
