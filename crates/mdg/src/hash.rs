//! Canonical structural hashing of MDGs, for content-addressed caching.
//!
//! [`structural_hash`] produces a 128-bit digest of an [`Mdg`] that is
//! **invariant under node and edge insertion order**: two graphs built by
//! adding the same nodes and edges in different orders (and hence with
//! different internal indices) hash identically. The serving layer uses
//! this as the graph component of its cache key, so identical workloads
//! submitted by different clients — or parsed from differently-ordered
//! text files — deduplicate to one solve.
//!
//! The digest covers everything the pipeline consumes:
//!
//! * per-node payloads — kind, name, Amdahl `alpha`/`tau` (bit-exact),
//!   loop class tag, and rows/cols metadata. Node *names* are included
//!   because they appear verbatim in solved responses (the allocation
//!   table), so two graphs that differ only in names must not share a
//!   cache entry;
//! * per-edge payloads — the transfer list in its on-edge order (bytes
//!   and 1D/2D kind per transfer);
//! * the DAG shape, via a two-direction refinement (below).
//!
//! The graph's own *name* is deliberately excluded — it is presentation
//! metadata, and callers that care (the serve layer) report the
//! request's name rather than the cached one.
//!
//! ## How order-invariance is achieved
//!
//! Each node gets a *forward* signature computed in topological order
//! (a digest of its payload plus the **sorted** multiset of
//! `(forward(pred), edge payload)` contributions) and a *backward*
//! signature computed the same way over successors in reverse
//! topological order. A node's canonical signature combines both
//! directions, so nodes are discriminated by their full ancestry *and*
//! descendance. The graph digest is the digest of the sorted multiset
//! of node signatures plus the node/edge counts. Every multiset is
//! sorted before digesting, so neither adjacency order nor index
//! assignment can leak into the result.
//!
//! This is a hash, not an isomorphism certificate: distinct graphs can
//! collide (128-bit FNV-1a offers no adversarial resistance), but for
//! cache keying the failure odds are negligible and the cost is one
//! `O((V + E) log E)` pass.

use crate::graph::Mdg;
use crate::node::{Edge, LoopClass, Node, NodeKind};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental 128-bit FNV-1a hasher.
///
/// Public so downstream crates (the serving layer) can extend a graph's
/// structural digest with request parameters when forming cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Fnv128(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a `u128` (little-endian).
    pub fn write_u128(&mut self, v: u128) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb an `f64` bit-exactly (`-0.0` and `0.0` hash differently;
    /// the cost model never produces negative zero).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write(&v.to_bits().to_le_bytes())
    }

    /// Absorb a length-prefixed string (prefixing prevents ambiguity
    /// between e.g. `("ab", "c")` and `("a", "bc")`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// Digest of one node's pipeline-visible payload.
fn node_payload_hash(n: &Node) -> u128 {
    let mut h = Fnv128::new();
    h.write_u64(match n.kind {
        NodeKind::Start => 1,
        NodeKind::Stop => 2,
        NodeKind::Compute => 3,
    });
    h.write_str(&n.name);
    h.write_f64(n.cost.alpha);
    h.write_f64(n.cost.tau);
    let class_tag = match &n.meta.class {
        LoopClass::MatrixInit => "init",
        LoopClass::MatrixAdd => "add",
        LoopClass::MatrixMultiply => "mul",
        LoopClass::Custom(s) => s.as_str(),
    };
    h.write_str(class_tag);
    h.write_u64(n.meta.rows as u64);
    h.write_u64(n.meta.cols as u64);
    h.finish()
}

/// Digest of one edge's transfer list (order-sensitive within the edge:
/// the list is part of the edge's identity, not a set).
fn edge_payload_hash(e: &Edge) -> u128 {
    let mut h = Fnv128::new();
    h.write_u64(e.transfers.len() as u64);
    for t in &e.transfers {
        h.write_u64(t.bytes);
        h.write_u64(match t.kind {
            crate::node::TransferKind::OneD => 1,
            crate::node::TransferKind::TwoD => 2,
        });
    }
    h.finish()
}

/// One direction of the refinement: signature of `v` from the sorted
/// multiset of `(neighbour signature, edge payload)` contributions.
fn combine(payload: u128, mut contribs: Vec<u128>) -> u128 {
    contribs.sort_unstable();
    let mut h = Fnv128::new();
    h.write_u128(payload);
    h.write_u64(contribs.len() as u64);
    for c in contribs {
        h.write_u128(c);
    }
    h.finish()
}

/// Canonical structural digest of a graph. See the module docs for what
/// is covered and the invariance guarantee.
pub fn structural_hash(g: &Mdg) -> u128 {
    let n = g.node_count();
    let payload: Vec<u128> = g.nodes().map(|(_, node)| node_payload_hash(node)).collect();
    let edge_payload: Vec<u128> = g.edges().map(|(_, e)| edge_payload_hash(e)).collect();

    // Forward signatures: ancestors only, well-defined in topo order.
    let mut fwd = vec![0u128; n];
    for &v in g.topo_order() {
        let contribs: Vec<u128> = g
            .in_edges(v)
            .iter()
            .map(|&eid| {
                let mut h = Fnv128::new();
                h.write_u128(fwd[g.edge(eid).src]);
                h.write_u128(edge_payload[eid.index()]);
                h.finish()
            })
            .collect();
        fwd[v.index()] = combine(payload[v.index()], contribs);
    }

    // Backward signatures: descendants only, reverse topo order.
    let mut bwd = vec![0u128; n];
    for &v in g.topo_order().iter().rev() {
        let contribs: Vec<u128> = g
            .out_edges(v)
            .iter()
            .map(|&eid| {
                let mut h = Fnv128::new();
                h.write_u128(bwd[g.edge(eid).dst]);
                h.write_u128(edge_payload[eid.index()]);
                h.finish()
            })
            .collect();
        bwd[v.index()] = combine(payload[v.index()], contribs);
    }

    let mut sigs: Vec<u128> = (0..n)
        .map(|i| {
            let mut h = Fnv128::new();
            h.write_u128(fwd[i]);
            h.write_u128(bwd[i]);
            h.finish()
        })
        .collect();
    sigs.sort_unstable();

    let mut h = Fnv128::new();
    h.write_u64(n as u64);
    h.write_u64(g.edge_count() as u64);
    for s in sigs {
        h.write_u128(s);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MdgBuilder;
    use crate::node::{AmdahlParams, ArrayTransfer, TransferKind};

    fn tiny(reversed: bool, tau_b: f64) -> Mdg {
        // a -> b, a -> c, with optional reversed insertion order of b/c.
        let mut bld = MdgBuilder::new("tiny");
        let a = bld.compute("a", AmdahlParams::new(0.1, 1.0));
        let (b, c) = if reversed {
            let c = bld.compute("c", AmdahlParams::new(0.2, 3.0));
            let b = bld.compute("b", AmdahlParams::new(0.1, tau_b));
            (b, c)
        } else {
            let b = bld.compute("b", AmdahlParams::new(0.1, tau_b));
            let c = bld.compute("c", AmdahlParams::new(0.2, 3.0));
            (b, c)
        };
        if reversed {
            bld.edge(a, c, vec![]);
            bld.edge(a, b, vec![ArrayTransfer::new(64, TransferKind::OneD)]);
        } else {
            bld.edge(a, b, vec![ArrayTransfer::new(64, TransferKind::OneD)]);
            bld.edge(a, c, vec![]);
        }
        bld.finish().unwrap()
    }

    #[test]
    fn insertion_order_does_not_matter() {
        assert_eq!(structural_hash(&tiny(false, 2.0)), structural_hash(&tiny(true, 2.0)));
    }

    #[test]
    fn payload_changes_change_the_hash() {
        assert_ne!(structural_hash(&tiny(false, 2.0)), structural_hash(&tiny(false, 2.5)));
    }

    #[test]
    fn graph_name_is_excluded() {
        let mut b1 = MdgBuilder::new("one");
        b1.compute("x", AmdahlParams::new(0.0, 1.0));
        let mut b2 = MdgBuilder::new("two");
        b2.compute("x", AmdahlParams::new(0.0, 1.0));
        assert_eq!(structural_hash(&b1.finish().unwrap()), structural_hash(&b2.finish().unwrap()));
    }

    #[test]
    fn node_names_are_included() {
        let mut b1 = MdgBuilder::new("g");
        b1.compute("x", AmdahlParams::new(0.0, 1.0));
        let mut b2 = MdgBuilder::new("g");
        b2.compute("y", AmdahlParams::new(0.0, 1.0));
        assert_ne!(structural_hash(&b1.finish().unwrap()), structural_hash(&b2.finish().unwrap()));
    }

    #[test]
    fn edge_direction_matters() {
        let build = |flip: bool| {
            let mut b = MdgBuilder::new("g");
            let x = b.compute("x", AmdahlParams::new(0.0, 1.0));
            let y = b.compute("y", AmdahlParams::new(0.0, 1.0));
            // Same payloads but x/y differ by the extra edge endpoint.
            let z = b.compute("z", AmdahlParams::new(0.5, 2.0));
            if flip {
                b.edge(y, x, vec![]);
            } else {
                b.edge(x, y, vec![]);
            }
            b.edge(x, z, vec![]);
            b.finish().unwrap()
        };
        assert_ne!(structural_hash(&build(false)), structural_hash(&build(true)));
    }

    #[test]
    fn transfer_kind_matters() {
        let build = |kind: TransferKind| {
            let mut b = MdgBuilder::new("g");
            let x = b.compute("x", AmdahlParams::new(0.0, 1.0));
            let y = b.compute("y", AmdahlParams::new(0.0, 1.0));
            b.edge(x, y, vec![ArrayTransfer::new(128, kind)]);
            b.finish().unwrap()
        };
        assert_ne!(
            structural_hash(&build(TransferKind::OneD)),
            structural_hash(&build(TransferKind::TwoD))
        );
    }

    #[test]
    fn hash_is_deterministic_across_calls() {
        let g = tiny(false, 2.0);
        assert_eq!(structural_hash(&g), structural_hash(&g));
    }

    #[test]
    fn fnv_str_prefixing_disambiguates() {
        let mut a = Fnv128::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv128::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
