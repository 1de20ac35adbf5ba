//! The objective's build asks the allocator a fixed number of times,
//! whatever the graph: `MdgObjective::try_new` sizes every table of its
//! program and of the `C_p` recurrence's schedule from one pass over the
//! edges before it fills them, and builds no expression tree. Held on
//! every gallery graph and on seeded random layered graphs of 64, 256
//! and 2 048 nodes, on `cm5(16)` and on a mesh with `t_n > 0` (whose
//! edges are roots too). The counter is per thread, so the test counts
//! its own allocations only.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_solver::{allocation_count, CountingAllocator, MdgObjective};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The program's monomials, startup-max constants and outputs, sums,
/// replay ends and cost sites; the schedule's node depths (dropped when
/// the build returns), nodes, depths, columns and candidates.
const BUILD_ALLOCATIONS: u64 = 11;

#[test]
fn the_build_makes_a_fixed_number_of_allocations() {
    let gallery = GALLERY_NAMES.map(|name| (name.to_string(), gallery_graph(name).expect(name)));
    let randoms = [64, 256, 2048]
        .map(|n| (format!("random-{n}"), random_layered_mdg(&RandomMdgConfig::sized(n), 1994)));
    for (name, g) in gallery.into_iter().chain(randoms) {
        for machine in [Machine::cm5(16), Machine::synthetic_mesh(16)] {
            let before = allocation_count();
            let obj = MdgObjective::try_new(&g, machine).expect("objective");
            let made = allocation_count() - before;
            assert!(
                made <= BUILD_ALLOCATIONS,
                "{name} on {} procs, t_n = {}: {made} allocations for {} nodes and {} edges",
                machine.procs,
                machine.xfer.t_n,
                g.node_count(),
                g.edge_count()
            );
            drop(obj);
        }
    }
}
