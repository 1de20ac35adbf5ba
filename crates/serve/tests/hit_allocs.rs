//! A served cache hit allocates per node and per edge of its graph and a
//! constant besides. A count, not a time, so the guard reads the same on
//! every machine.
//!
//! A hit runs on the caller's thread (`tests/hit_path.rs`), so the
//! allocations of one `handle_line` on a cached key are all counted here:
//! the request document, `from_text` on its graph, the cache key and the
//! encoded response. `from_text` is bounded by `16 + nodes + custom +
//! edges`, `custom` the nodes of a `LoopClass::Custom` class (the root
//! `tests/decode_allocs.rs`); the rest is a constant 24, so the bound is
//! `40 + nodes + custom + edges`.
//!
//! Before → after a node without `class=` decoded to
//! `LoopClass::Synthetic` instead of allocating the label `"synthetic"`:
//!
//! | graph | nodes | custom | edges | before → after |
//! |---|---|---|---|---|
//! | fig1 | 5 | 0 | 5 | 42 → 37 |
//! | strassen | 35 | 0 | 62 | 123 → 121 |
//! | block-lu | 32 | 30 | 56 | 154 → 152 |
//! | strassen-ml | 205 | 0 | 341 | 585 → 583 |
//! | fork-join | 87 | 0 | 152 | 361 → 274 |
//! | random-layered | 198 | 0 | 788 | 1 193 → 995 |
//!
//! The old fork-join and random-layered counts are above the bound.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_mdg::{to_text, Json, LoopClass};
use paradigm_serve::{handle_line, ServeConfig, Service};
use paradigm_solver::{allocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_cached_hit_allocates_per_node_and_edge_and_a_constant() {
    let svc = Service::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).expect("gallery name");
        let line = Json::Obj(vec![
            ("op".into(), Json::str("solve")),
            ("graph".into(), Json::str(to_text(&g))),
            ("procs".into(), Json::num(16.0)),
        ])
        .render();
        let (solved, _) = handle_line(&svc, &line);
        assert!(solved.contains(r#""ok":true"#), "{name}: {solved}");

        let before = allocation_count();
        let (reply, _) = handle_line(&svc, &line);
        let hit = allocation_count() - before;
        assert!(reply.contains(r#""cached":true"#), "{name}: {reply}");
        let (nodes, edges) = (g.node_count() as u64, g.edge_count() as u64);
        let custom =
            g.nodes().filter(|(_, n)| matches!(n.meta.class, LoopClass::Custom(_))).count() as u64;
        let bound = 40 + nodes + custom + edges;
        assert!(
            hit <= bound,
            "{name}: a hit made {hit} allocations, bound {bound} \
             ({nodes} nodes, {custom} custom, {edges} edges)"
        );
    }
    svc.shutdown();
}
