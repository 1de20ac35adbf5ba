//! A served cache hit allocates per node and per edge of its graph and a
//! constant besides. A count, not a time, so the guard reads the same on
//! every machine.
//!
//! A hit runs on the caller's thread (`tests/hit_path.rs`), so the
//! allocations of one `handle_line` on a cached key are all counted here:
//! the request document, `from_text` on its graph, the cache key and the
//! encoded response. `from_text` is bounded by `16 + 2·nodes + edges`
//! (the root `tests/decode_allocs.rs`); the rest is a constant 24, so
//! the bound is `40 + 2·nodes + edges`.
//!
//! | graph | nodes | edges | before → after |
//! |---|---|---|---|
//! | fig1 | 5 | 5 | 52 → 42 |
//! | strassen | 35 | 62 | 207 → 123 |
//! | block-lu | 32 | 56 | 230 → 154 |
//! | strassen-ml | 205 | 341 | 1 033 → 585 |
//! | fork-join | 87 | 152 | 576 → 361 |
//!
//! Before, `finish` gave every node two adjacency lists and the builder
//! grew while the file was read; every old count but fig1's is above
//! the bound.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_mdg::{to_text, Json};
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
        let bound = 40 + 2 * nodes + edges;
        assert!(
            hit <= bound,
            "{name}: a hit made {hit} allocations, bound {bound} ({nodes} nodes, {edges} edges)"
        );
    }
    svc.shutdown();
}
