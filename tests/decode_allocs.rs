//! Decoding and keying a served graph allocate per node and per edge,
//! never per token. A count, not a time, so the guard reads the same on
//! every machine.
//!
//! Every served `solve` line carries its graph as text: the service runs
//! `from_text` on it and `structural_hash` on the result before it can
//! look at the cache. The guard renders each gallery graph with
//! `to_text` and counts the allocations of both calls on this thread.
//! `from_text` keeps two strings per node (its name and its loop class)
//! and one transfer list per edge; the builder is sized before the first
//! line and the adjacency is two flat arrays, so nothing else grows with
//! the graph and its bound is `16 + 2·nodes + edges`, nodes and edges
//! counted with START, STOP and their wiring. `structural_hash` makes
//! five: payload, edge payload, forward and backward signatures and one
//! contributions buffer.
//!
//! Before → after `from_text` sized its builder from the text and
//! `finish` built flat (CSR) adjacency instead of two lists per node:
//!
//! | graph | nodes | edges | `from_text` | `structural_hash` |
//! |---|---|---|---|---|
//! | fig1 | 5 | 5 | 34 → 24 | 5 |
//! | block-lu | 32 | 56 | 208 → 132 | 5 |
//! | strassen-ml | 205 | 341 | 1 008 → 560 | 5 |
//! | random-layered | 198 | 788 | 1 726 → 1 168 | 5 |
//!
//! Every old count is above the new bound (fig1 34 > 31, block-lu
//! 208 > 136); the old bound was `16 + 4·nodes + 2·edges`. The guard for
//! the whole served hit — decode, key and encode — is
//! `crates/serve/tests/hit_allocs.rs`.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_mdg::{from_text, structural_hash, to_text};
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
        back.expect("the rendered text parses");
        let bound = 16 + 2 * nodes + edges;
        assert!(
            decoding <= bound,
            "{name}: from_text made {decoding} allocations, bound {bound} \
             ({nodes} nodes, {edges} edges)"
        );

        let (keying, _) = counted(|| structural_hash(&g));
        assert!(keying <= 5, "{name}: structural_hash made {keying} allocations");
    }
}
