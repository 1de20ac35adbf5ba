//! Exact MDG weight evaluation for a concrete processor allocation.
//!
//! Given an MDG, a machine, and an allocation `p_i` per node, this module
//! computes the paper's Section 2 quantities:
//!
//! * node weight `T_i = Σ_pred t^R + t^C_i + Σ_succ t^S` — receive costs
//!   of all incoming transfers, the processing cost, and send costs of all
//!   outgoing transfers;
//! * edge weight `t^D_mi` — the network component;
//! * `A_p = (1/p) Σ T_i · p_i` — average finish time (processor-time
//!   area over machine size);
//! * `C_p = y_n` with `y_i = max_{m∈PRED}(y_m + t^D_mi) + T_i` — critical
//!   path time;
//! * `Φ = max(A_p, C_p)` — the allocation objective.
//!
//! This is the *exact* (non-smoothed) objective. The solver optimizes a
//! smoothed version and is validated against this one.

use crate::machine::Machine;
use crate::transfer::edge_components;
use paradigm_mdg::{EdgeId, Mdg, NodeId};

/// A processor allocation: one (possibly fractional) processor count per
/// MDG node, `1 <= p_i <= machine.procs`. START/STOP carry 1 by
/// convention (their costs are zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    procs: Vec<f64>,
}

impl Allocation {
    /// Build from a raw vector (one entry per node, including START/STOP).
    ///
    /// # Panics
    /// Panics if any entry is below 1 or non-finite.
    pub fn new(procs: Vec<f64>) -> Self {
        for (i, &q) in procs.iter().enumerate() {
            assert!(q.is_finite() && q >= 1.0, "allocation for node {i} is invalid: {q}");
        }
        Allocation { procs }
    }

    /// Every node on `q` processors.
    pub fn uniform(g: &Mdg, q: f64) -> Self {
        Allocation::new(vec![q; g.node_count()])
    }

    /// Number of entries (== node count of the graph it was built for).
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Allocation of one node.
    pub fn get(&self, id: NodeId) -> f64 {
        self.procs[id.0]
    }

    /// Mutate one node's allocation.
    ///
    /// # Panics
    /// Panics on invalid values (< 1 or non-finite).
    pub fn set(&mut self, id: NodeId, q: f64) {
        assert!(q.is_finite() && q >= 1.0, "allocation for {id} is invalid: {q}");
        self.procs[id.0] = q;
    }

    /// Raw slice access.
    pub fn as_slice(&self) -> &[f64] {
        &self.procs
    }

    /// True if every entry is a power of two (implies integral).
    pub fn is_power_of_two(&self) -> bool {
        self.procs.iter().all(|&q| q.fract() == 0.0 && (q as u64).is_power_of_two())
    }

    /// Integer view (rounds to nearest; intended for integral allocations).
    pub fn as_u32(&self, id: NodeId) -> u32 {
        self.get(id).round() as u32
    }

    /// Largest entry.
    pub fn max(&self) -> f64 {
        self.procs.iter().copied().fold(1.0, f64::max)
    }
}

/// All Section-2 weights of an MDG under a specific allocation.
#[derive(Debug, Clone)]
pub struct MdgWeights {
    /// `T_i` per node.
    pub node_total: Vec<f64>,
    /// Receive portion of `T_i` (`Σ_pred t^R`).
    pub node_recv: Vec<f64>,
    /// Processing portion of `T_i` (`t^C_i`).
    pub node_compute: Vec<f64>,
    /// Send portion of `T_i` (`Σ_succ t^S`).
    pub node_send: Vec<f64>,
    /// `t^D` per edge.
    pub edge_network: Vec<f64>,
    /// Copy of the allocation the weights were computed for.
    pub alloc: Allocation,
    /// Machine size `p`.
    pub machine_procs: u32,
}

impl MdgWeights {
    /// Evaluate all weights for `g` on `machine` under `alloc`.
    ///
    /// # Panics
    /// Panics if `alloc.len() != g.node_count()` or any `p_i` exceeds the
    /// machine size.
    pub fn compute(g: &Mdg, machine: &Machine, alloc: &Allocation) -> MdgWeights {
        assert_eq!(alloc.len(), g.node_count(), "allocation/graph size mismatch");
        let pmax = machine.procs as f64;
        for (id, _) in g.nodes() {
            let q = alloc.get(id);
            assert!(q <= pmax + 1e-9, "allocation for {id} ({q}) exceeds machine size {pmax}");
        }
        let n = g.node_count();
        let mut node_recv = vec![0.0; n];
        let mut node_send = vec![0.0; n];
        let mut node_compute = vec![0.0; n];
        let mut edge_network = vec![0.0; g.edge_count()];

        for (id, node) in g.nodes() {
            node_compute[id.0] = node.cost.cost(alloc.get(id));
        }
        for (eid, e) in g.edges() {
            if e.transfers.is_empty() {
                continue;
            }
            let pi = alloc.get(NodeId(e.src));
            let pj = alloc.get(NodeId(e.dst));
            let c = edge_components(&e.transfers, pi, pj, &machine.xfer);
            node_send[e.src] += c.send;
            node_recv[e.dst] += c.recv;
            edge_network[eid.0] = c.network;
        }
        let node_total: Vec<f64> =
            (0..n).map(|i| node_recv[i] + node_compute[i] + node_send[i]).collect();
        MdgWeights {
            node_total,
            node_recv,
            node_compute,
            node_send,
            edge_network,
            alloc: alloc.clone(),
            machine_procs: machine.procs,
        }
    }

    /// Node weight `T_i`.
    pub fn node_weight(&self, id: NodeId) -> f64 {
        self.node_total[id.0]
    }

    /// Edge weight `t^D`.
    pub fn edge_weight(&self, id: EdgeId) -> f64 {
        self.edge_network[id.0]
    }

    /// Average finish time `A_p = (1/p) Σ T_i p_i`.
    pub fn average_finish_time(&self) -> f64 {
        let sum: f64 =
            self.node_total.iter().zip(self.alloc.as_slice()).map(|(&t, &q)| t * q).sum();
        sum / self.machine_procs as f64
    }

    /// Critical path time `C_p = y_n` via the paper's recurrence, together
    /// with all per-node finish times `y_i`.
    pub fn critical_path_time(&self, g: &Mdg) -> (f64, Vec<f64>) {
        let finishes = g.finish_times_with(|v| self.node_total[v.0], |e| self.edge_network[e.0]);
        (finishes[g.stop().0], finishes)
    }

    /// Full objective breakdown `Φ = max(A_p, C_p)`.
    pub fn phi(&self, g: &Mdg) -> PhiBreakdown {
        let a_p = self.average_finish_time();
        let (c_p, finishes) = self.critical_path_time(g);
        PhiBreakdown { a_p, c_p, phi: a_p.max(c_p), finishes }
    }
}

/// The components of the allocation objective at one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiBreakdown {
    /// Average finish time `A_p`.
    pub a_p: f64,
    /// Critical path time `C_p`.
    pub c_p: f64,
    /// `Φ = max(A_p, C_p)`.
    pub phi: f64,
    /// Per-node finish times `y_i`.
    pub finishes: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{AmdahlParams, ArrayTransfer, MdgBuilder, TransferKind};

    fn two_node_graph() -> Mdg {
        let mut b = MdgBuilder::new("pair");
        let x = b.compute("x", AmdahlParams::new(0.1, 1.0));
        let y = b.compute("y", AmdahlParams::new(0.1, 2.0));
        b.edge(x, y, vec![ArrayTransfer::new(32 * 1024, TransferKind::OneD)]);
        b.finish().unwrap()
    }

    #[test]
    fn weights_decompose_correctly() {
        let g = two_node_graph();
        let m = Machine::cm5(16);
        let alloc = Allocation::uniform(&g, 4.0);
        let w = MdgWeights::compute(&g, &m, &alloc);
        // x = node 1, y = node 2.
        let x = NodeId(1);
        let y = NodeId(2);
        assert!(w.node_recv[x.0] == 0.0);
        assert!(w.node_send[x.0] > 0.0, "x pays the send cost");
        assert!(w.node_recv[y.0] > 0.0, "y pays the receive cost");
        assert!(w.node_send[y.0] == 0.0);
        assert!((w.node_weight(x) - (w.node_compute[x.0] + w.node_send[x.0])).abs() < 1e-15);
        assert!((w.node_weight(y) - (w.node_compute[y.0] + w.node_recv[y.0])).abs() < 1e-15);
        // CM-5: all edge weights zero.
        assert!(w.edge_network.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn structural_nodes_have_zero_weight() {
        let g = two_node_graph();
        let m = Machine::cm5(16);
        let w = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 2.0));
        assert_eq!(w.node_weight(g.start()), 0.0);
        assert_eq!(w.node_weight(g.stop()), 0.0);
    }

    #[test]
    fn phi_is_max_of_components() {
        let g = two_node_graph();
        let m = Machine::cm5(16);
        let w = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 8.0));
        let phi = w.phi(&g);
        assert!((phi.phi - phi.a_p.max(phi.c_p)).abs() < 1e-15);
        assert!(phi.finishes[g.stop().0] == phi.c_p);
    }

    #[test]
    fn chain_cp_dominates_ap() {
        // A chain on a big machine: C_p (serial) >> A_p (area / p).
        let g = two_node_graph();
        let m = Machine::cm5(64);
        let w = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 1.0));
        let phi = w.phi(&g);
        assert!(phi.c_p > phi.a_p);
    }

    #[test]
    fn wide_graph_ap_dominates_cp() {
        // Many independent nodes on a tiny machine: area dominates.
        let mut b = MdgBuilder::new("wide");
        for i in 0..16 {
            b.compute(format!("w{i}"), AmdahlParams::new(0.0, 1.0));
        }
        let g = b.finish().unwrap();
        let m = Machine::cm5(2);
        let w = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 1.0));
        let phi = w.phi(&g);
        // Area = 16 node-seconds over 2 procs = 8 s; CP = 1 s.
        assert!((phi.a_p - 8.0).abs() < 1e-12);
        assert!((phi.c_p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn network_weight_appears_on_mesh() {
        let g = two_node_graph();
        let m = Machine::synthetic_mesh(16);
        let w = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 4.0));
        let has_net = w.edge_network.iter().any(|&v| v > 0.0);
        assert!(has_net, "mesh machine must produce non-zero edge weights");
    }

    #[test]
    fn increasing_allocation_reduces_compute_weight() {
        let g = two_node_graph();
        let m = Machine::cm5(64);
        let w1 = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 1.0));
        let w2 = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 64.0));
        assert!(w2.node_compute[1] < w1.node_compute[1]);
    }

    #[test]
    #[should_panic(expected = "exceeds machine size")]
    fn allocation_above_machine_size_rejected() {
        let g = two_node_graph();
        let m = Machine::cm5(4);
        let _ = MdgWeights::compute(&g, &m, &Allocation::uniform(&g, 8.0));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn allocation_below_one_rejected() {
        let _ = Allocation::new(vec![0.5]);
    }

    #[test]
    fn allocation_predicates() {
        let a = Allocation::new(vec![1.0, 2.0, 4.0, 8.0]);
        assert!(a.is_power_of_two());
        assert_eq!(a.max(), 8.0);
        let b = Allocation::new(vec![1.0, 3.0]);
        assert!(!b.is_power_of_two());
        let c = Allocation::new(vec![1.5]);
        assert!(!c.is_power_of_two());
    }
}
