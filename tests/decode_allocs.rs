//! Decoding and keying a served graph allocate per node and per edge,
//! never per token. A count, not a time, so the guard reads the same on
//! every machine.
//!
//! Every served `solve` line carries its graph as text: the service runs
//! `from_text` on it and `structural_hash` on the result before it can
//! look at the cache. The guard renders each gallery graph with
//! `to_text` and counts the allocations of both calls on this thread.
//! `from_text` keeps one string per node (its name), one more per node
//! of a [`LoopClass::Custom`] class (its label; the paper's three classes
//! and `synthetic` are tags without a string) and one transfer list per
//! edge; the builder is sized before the first line and the adjacency is
//! two flat arrays, so nothing else grows with the graph and its bound is
//! `16 + nodes + custom + edges`, nodes and edges counted with START,
//! STOP and their wiring. `structural_hash` makes five: payload, edge
//! payload, forward and backward signatures and one contributions buffer.
//!
//! Before → after a node without `class=` (and START/STOP) decoded to
//! `LoopClass::Synthetic` instead of allocating the label `"synthetic"`:
//!
//! | graph | nodes | custom | edges | `from_text` | `structural_hash` |
//! |---|---|---|---|---|---|
//! | fig1 | 5 | 0 | 5 | 24 → 19 | 5 |
//! | block-lu | 32 | 30 | 56 | 132 → 130 | 5 |
//! | strassen-ml | 205 | 0 | 341 | 560 → 558 | 5 |
//! | fork-join | 87 | 0 | 152 | 338 → 251 | 5 |
//! | random-layered | 198 | 0 | 788 | 1 168 → 970 | 5 |
//!
//! The old bound was `16 + 2·nodes + edges`; the old fork-join and
//! random-layered counts are above the new one (338 > 255,
//! 1 168 > 1 002). The guard for the whole served hit — decode, key and
//! encode — is `crates/serve/tests/hit_allocs.rs`.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_mdg::{from_text, structural_hash, to_text, LoopClass};
use paradigm_solver::{allocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

#[test]
fn decode_allocates_per_node_and_edge_and_the_key_a_constant() {
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery name");
        let text = to_text(&g);
        let (nodes, edges) = (g.node_count() as u64, g.edge_count() as u64);

        let (decoding, back) = counted(|| from_text(&text));
        let back = back.expect("the rendered text parses");
        let custom =
            back.nodes().filter(|(_, n)| matches!(n.meta.class, LoopClass::Custom(_))).count();
        let bound = 16 + nodes + custom as u64 + edges;
        assert!(
            decoding <= bound,
            "{name}: from_text made {decoding} allocations, bound {bound} \
             ({nodes} nodes, {custom} custom, {edges} edges)"
        );

        let (keying, _) = counted(|| structural_hash(&g));
        assert!(keying <= 5, "{name}: structural_hash made {keying} allocations");
    }
}
