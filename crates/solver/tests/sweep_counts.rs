//! Counts, not clocks: over a whole `try_allocate` the descent loops
//! sweep each point they evaluate exactly once — every line-search probe
//! records its tape, and the gradient at an accepted probe is a backward
//! replay. A loop that scores a probe value-only and then calls
//! `eval_grad*` at the accepted trial would read `forward_sweeps =
//! probes + iterations` here.
//!
//! And every sweep, smooth or exact, calls `exp` once per variable:
//! `exp_calls == forward_sweeps × variables` (random-layered at p = 64:
//! 199 × 198 = 39 402; 232 857 with one more per exponent vector).
//!
//! The cases are cmm at p = 16 under both presets, then every gallery
//! graph and three seeded 8-wide random layered graphs (64, 128 and 256
//! nodes) at p = 64 under `fast()`. Each solve runs on a workspace of its
//! own, whose counters are that solve's and nobody else's.

use paradigm_core::{gallery_graph, GALLERY_NAMES};
use paradigm_cost::Machine;
use paradigm_mdg::{random_layered_mdg, Mdg, RandomMdgConfig};
use paradigm_solver::{
    midpoint, try_allocate_from, AllocationResult, SolverConfig, SolverWorkspace, SweepCounts,
};

/// A seeded random layered graph of `n` compute nodes, 8 to a layer.
fn random(n: usize) -> Mdg {
    let cfg =
        RandomMdgConfig { layers: n / 8, width_min: 8, width_max: 8, ..RandomMdgConfig::default() };
    random_layered_mdg(&cfg, 1994)
}

/// `try_allocate` on a fresh workspace, and that workspace's counts.
fn counted(g: &Mdg, procs: u32, cfg: &SolverConfig) -> (AllocationResult, SweepCounts) {
    let machine = Machine::cm5(procs);
    let mut ws = SolverWorkspace::new();
    let r = try_allocate_from(&mut ws, g, machine, cfg, &midpoint(g, machine)).expect("solves");
    (r, ws.scratch.counts)
}

#[test]
fn a_dense_solve_sweeps_no_point_twice() {
    let cmm = gallery_graph("cmm").expect("gallery graph");
    let mut cases = vec![
        ("cmm@16 default".to_string(), cmm.clone(), 16, SolverConfig::default()),
        ("cmm@16 fast".to_string(), cmm, 16, SolverConfig::fast()),
    ];
    let gallery = GALLERY_NAMES.map(|name| (name.to_string(), gallery_graph(name).expect(name)));
    let randoms = [64, 128, 256].map(|n| (format!("random-{n}"), random(n)));
    for (name, g) in gallery.into_iter().chain(randoms) {
        cases.push((format!("{name}@64 fast"), g, 64, SolverConfig::fast()));
    }
    for (name, g, procs, cfg) in &cases {
        let (r, c) = counted(g, *procs, cfg);
        assert!(c.probes > r.iterations as u64, "{name}: every iteration probes: {c:?}");
        assert_eq!(c.forward_sweeps, c.probes, "{name}: a point was swept twice: {c:?}");
        // One replay per stage start and per accepted step; an iteration
        // whose line search dead-ends replays nothing.
        assert!(c.backward_sweeps <= c.probes && c.backward_sweeps > 0, "{name}: {c:?}");
        let vars = g.node_count() as u64;
        assert_eq!(c.exp_calls, c.forward_sweeps * vars, "{name}, {vars} variables: {c:?}");
    }
}

/// Two solves at once, on two threads, each on its own workspace, count
/// exactly what each counts alone: no sweep of one lands in the other's
/// counters.
#[test]
fn two_concurrent_solves_each_count_their_own_sweeps() {
    let cfg = SolverConfig::fast();
    let cases = [("cmm", 16), ("strassen", 16)].map(|(name, procs)| {
        let g = gallery_graph(name).expect(name);
        let solo = counted(&g, procs, &cfg);
        (name, g, procs, solo)
    });
    let together = std::thread::scope(|s| {
        let handles = cases.each_ref().map(|(_, g, procs, _)| s.spawn(|| counted(g, *procs, &cfg)));
        handles.map(|h| h.join().expect("solve thread"))
    });
    for ((name, _, _, (solo, solo_counts)), (r, c)) in cases.iter().zip(&together) {
        assert_eq!(c, solo_counts, "{name}: the concurrent solve counted differently");
        assert_eq!(c.forward_sweeps, c.probes, "{name}: {c:?}");
        assert_eq!(r.phi.phi.to_bits(), solo.phi.phi.to_bits(), "{name}");
    }
    assert_ne!(together[0].1, together[1].1, "two different graphs count differently");
}

/// The instances that set `compile-paper`'s `op_ms_p50`, under
/// `default()`: the exact polish's last line search used to halve 38–40
/// times while Φ rose linearly along the ray (cmm@16: `Φ(t) − f =
/// 3.64e-6·t` from `t = 0.09` down); the convexity certificate ends it
/// once two failed trials prove no shorter one can pass. Probes before the
/// certificate: 108, 91, 91, 95, 68, 90, 80. The iterations are the same
/// as without it. Re-captured when each 4× rung began opening with the
/// rung below's quasi-Newton pairs (probes / iterations before: 84 / 54,
/// 66 / 42, 64 / 46, 71 / 49, 42 / 24, 65 / 37, 56 / 33 — stencil@64 is
/// the one that probes more, 56 → 59, at 3 fewer iterations).
#[test]
fn the_paper_graphs_end_their_futile_searches_on_the_convexity_certificate() {
    let cases: [(&str, u32, u64, usize); 7] = [
        ("cmm", 16, 56, 32),
        ("cmm", 32, 50, 33),
        ("cmm", 64, 46, 25),
        ("fft2d", 16, 57, 32),
        ("fft2d", 64, 38, 20),
        ("stencil", 16, 64, 35),
        ("stencil", 64, 59, 30),
    ];
    for (name, procs, max_probes, iterations) in cases {
        let g = gallery_graph(name).expect(name);
        let (r, c) = counted(&g, procs, &SolverConfig::default());
        assert!(c.probes <= max_probes, "{name}@{procs}: {} probes > {max_probes}", c.probes);
        assert_eq!(r.iterations, iterations, "{name}@{procs}: iterations");
        assert_eq!(c.forward_sweeps, c.probes, "{name}@{procs}: {c:?}");
    }
}
