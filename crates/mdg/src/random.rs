//! Random layered MDG generation for stress tests, property tests, and
//! the ablation drivers (the paper's earlier results were obtained on
//! synthetic benchmarks of this style; see its Section 1.3).

use crate::graph::{Mdg, MdgBuilder};
use crate::node::{AmdahlParams, ArrayTransfer, TransferKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of the layered random graph model: `layers` layers with
/// `width_min..=width_max` nodes each; every node receives at least one
/// predecessor in the previous layer, and additional inter-layer edges are
/// added with probability `edge_prob`.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomMdgConfig {
    /// Number of layers (>= 1).
    pub layers: usize,
    /// Minimum nodes per layer (>= 1).
    pub width_min: usize,
    /// Maximum nodes per layer.
    pub width_max: usize,
    /// Probability of each optional previous-layer edge.
    pub edge_prob: f64,
    /// Serial fraction range for node costs.
    pub alpha_range: (f64, f64),
    /// Single-processor time range (seconds) for node costs.
    pub tau_range: (f64, f64),
    /// Byte-size range for array transfers.
    pub bytes_range: (u64, u64),
    /// Probability that a transfer is 2D rather than 1D.
    pub two_d_prob: f64,
    /// Per-node probability of one extra edge from a layer *further*
    /// back than the previous one (creates transitive shortcuts).
    pub skip_prob: f64,
}

impl Default for RandomMdgConfig {
    fn default() -> Self {
        RandomMdgConfig {
            layers: 4,
            width_min: 1,
            width_max: 4,
            edge_prob: 0.35,
            alpha_range: (0.02, 0.25),
            tau_range: (0.01, 1.0),
            bytes_range: (1 << 10, 1 << 18),
            two_d_prob: 0.3,
            skip_prob: 0.2,
        }
    }
}

impl RandomMdgConfig {
    /// A configuration producing roughly `nodes` compute nodes in a
    /// fixed-width layered shape — the scalable input family for the
    /// distributed ADMM solver (10^2 .. 10^5 nodes and beyond). The
    /// layer width grows slowly with size so huge instances stay
    /// plausibly wide rather than degenerating into one long chain;
    /// edge probability shrinks with width to keep average fan-in
    /// (and thus the edge count) roughly constant per node.
    pub fn sized(nodes: usize) -> Self {
        let nodes = nodes.max(8);
        // width ~ 8 at 100 nodes, ~16 at 10^4, ~32 at 10^5.
        let width = (2.0 * (nodes as f64).sqrt().sqrt()).round().clamp(4.0, 32.0) as usize;
        let layers = nodes.div_ceil(width).max(2);
        RandomMdgConfig {
            layers,
            width_min: width,
            width_max: width,
            edge_prob: (4.0 / width as f64).min(0.5),
            ..RandomMdgConfig::default()
        }
    }
}

/// Generate a random layered MDG. Deterministic for a given `seed`.
pub fn random_layered_mdg(cfg: &RandomMdgConfig, seed: u64) -> Mdg {
    assert!(cfg.layers >= 1, "need at least one layer");
    assert!(cfg.width_min >= 1 && cfg.width_min <= cfg.width_max, "bad width range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = MdgBuilder::new(format!("random-l{}-s{}", cfg.layers, seed));

    let mut layers: Vec<Vec<crate::graph::NodeId>> = Vec::with_capacity(cfg.layers);
    let mut counter = 0usize;
    for li in 0..cfg.layers {
        let width = rng.random_range(cfg.width_min..=cfg.width_max);
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            let alpha = rng.random_range(cfg.alpha_range.0..=cfg.alpha_range.1);
            let tau = rng.random_range(cfg.tau_range.0..=cfg.tau_range.1);
            let id = b.compute(format!("L{li}N{counter}"), AmdahlParams::new(alpha, tau));
            counter += 1;
            layer.push(id);
        }
        layers.push(layer);
    }

    let transfer = |rng: &mut StdRng| -> Vec<ArrayTransfer> {
        // Round down to whole f64 elements so generated graphs pass the
        // `edge-unit-sanity` lint (transfers model f64 arrays).
        let bytes = rng.random_range(cfg.bytes_range.0..=cfg.bytes_range.1) / 8 * 8;
        let kind = if rng.random::<f64>() < cfg.two_d_prob {
            TransferKind::TwoD
        } else {
            TransferKind::OneD
        };
        vec![ArrayTransfer::new(bytes, kind)]
    };

    for li in 1..cfg.layers {
        // Split the borrow: previous layer (read) vs current layer (read).
        let (prevs, curs) = layers.split_at(li);
        let prev = &prevs[li - 1];
        let cur = &curs[0];
        for &v in cur {
            // Mandatory predecessor keeps the graph connected layer-to-layer.
            let anchor = prev[rng.random_range(0..prev.len())];
            b.edge(anchor, v, transfer(&mut rng));
            for &u in prev {
                if u != anchor && rng.random::<f64>() < cfg.edge_prob {
                    b.edge(u, v, transfer(&mut rng));
                }
            }
            // Occasional long-range edge from an earlier layer: produces
            // transitive shortcuts and deeper fan-in patterns. Half carry
            // data; half are pure precedence constraints (the kind the
            // transitive reduction can remove).
            if li >= 2 && rng.random::<f64>() < cfg.skip_prob {
                let lj = rng.random_range(0..li - 1);
                let u = prevs[lj][rng.random_range(0..prevs[lj].len())];
                let payload =
                    if rng.random::<f64>() < 0.5 { transfer(&mut rng) } else { Vec::new() };
                b.edge(u, v, payload);
            }
        }
    }

    b.finish().expect("layered construction is acyclic by layer ordering")
}

/// Generate a seeded fork-join MDG: `stages` sequential stages, each a
/// scatter node fanning out to `width` parallel workers that all join
/// into the next stage's scatter. The classic data-parallel skeleton
/// (and the ADMM partitioner's best case: stage boundaries are natural
/// min-cuts). Deterministic for a given `seed`; compute node count is
/// `stages * (width + 2) + 1`.
pub fn fork_join_mdg(stages: usize, width: usize, seed: u64) -> Mdg {
    assert!(stages >= 1, "need at least one stage");
    assert!(width >= 1, "need at least one worker per stage");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = MdgBuilder::new(format!("fork-join-s{stages}-w{width}-r{seed}"));

    let xfer = |rng: &mut StdRng| -> Vec<ArrayTransfer> {
        vec![ArrayTransfer::new(rng.random_range(1u64 << 10..=1 << 16) / 8 * 8, TransferKind::OneD)]
    };
    // Serial-ish scatter/gather nodes, parallel-friendly workers.
    let scatter_cost = |rng: &mut StdRng| {
        AmdahlParams::new(rng.random_range(0.3..=0.6), rng.random_range(0.02..=0.1))
    };
    let worker_cost = |rng: &mut StdRng| {
        AmdahlParams::new(rng.random_range(0.02..=0.1), rng.random_range(0.2..=1.0))
    };

    let mut prev_join: Option<crate::graph::NodeId> = None;
    for s in 0..stages {
        let scatter = b.compute(format!("S{s}scatter"), scatter_cost(&mut rng));
        if let Some(j) = prev_join {
            b.edge(j, scatter, xfer(&mut rng));
        }
        let join = b.compute(format!("S{s}join"), scatter_cost(&mut rng));
        for w in 0..width {
            let worker = b.compute(format!("S{s}W{w}"), worker_cost(&mut rng));
            b.edge(scatter, worker, xfer(&mut rng));
            b.edge(worker, join, xfer(&mut rng));
        }
        prev_join = Some(join);
    }
    let tail = b.compute("gather", scatter_cost(&mut rng));
    if let Some(j) = prev_join {
        b.edge(j, tail, xfer(&mut rng));
    }
    b.finish().expect("fork-join construction is acyclic by stage ordering")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_invariants;

    #[test]
    fn sized_config_hits_the_requested_scale() {
        for target in [100usize, 1_000, 10_000] {
            let g = random_layered_mdg(&RandomMdgConfig::sized(target), 42);
            let n = g.compute_node_count();
            assert!(n >= target * 9 / 10 && n <= target * 11 / 10 + 40, "target {target}, got {n}");
            check_invariants(&g).unwrap_or_else(|e| panic!("target {target}: {e}"));
        }
    }

    #[test]
    fn fork_join_shape_and_determinism() {
        let g = fork_join_mdg(3, 4, 7);
        assert_eq!(g.compute_node_count(), 3 * (4 + 2) + 1);
        check_invariants(&g).unwrap();
        let h = fork_join_mdg(3, 4, 7);
        assert_eq!(crate::hash::structural_hash(&g), crate::hash::structural_hash(&h));
        let other = fork_join_mdg(3, 4, 8);
        assert_ne!(crate::hash::structural_hash(&g), crate::hash::structural_hash(&other));
    }

    #[test]
    fn random_graphs_are_valid() {
        for seed in 0..20 {
            let g = random_layered_mdg(&RandomMdgConfig::default(), seed);
            check_invariants(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn same_seed_same_graph() {
        let cfg = RandomMdgConfig::default();
        let a = random_layered_mdg(&cfg, 7);
        let b = random_layered_mdg(&cfg, 7);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (ia, na) in a.nodes() {
            let nb = b.node(ia);
            assert_eq!(na.name, nb.name);
            assert_eq!(na.cost, nb.cost);
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let cfg = RandomMdgConfig::default();
        let a = random_layered_mdg(&cfg, 1);
        let b = random_layered_mdg(&cfg, 2);
        // Graph-level difference: node counts, edge counts, or some cost.
        let same = a.node_count() == b.node_count()
            && a.edge_count() == b.edge_count()
            && a.nodes().zip(b.nodes()).all(|((_, x), (_, y))| x.cost == y.cost);
        assert!(!same, "seeds 1 and 2 should produce different graphs");
    }

    #[test]
    fn wide_single_layer_is_pure_fork_join() {
        let cfg =
            RandomMdgConfig { layers: 1, width_min: 6, width_max: 6, ..RandomMdgConfig::default() };
        let g = random_layered_mdg(&cfg, 3);
        assert_eq!(g.compute_node_count(), 6);
        // Every compute node connects only to START and STOP.
        for (id, n) in g.nodes() {
            if !n.is_structural() {
                assert_eq!(g.in_edges(id).len(), 1);
                assert_eq!(g.out_edges(id).len(), 1);
            }
        }
    }

    #[test]
    fn layer_count_bounds_depth() {
        let cfg = RandomMdgConfig { layers: 7, ..RandomMdgConfig::default() };
        let g = random_layered_mdg(&cfg, 11);
        let stats = crate::stats::MdgStats::of(&g);
        assert!(stats.depth <= 7);
        assert!(stats.depth >= 1);
    }

    #[test]
    fn node_costs_respect_ranges() {
        let cfg = RandomMdgConfig::default();
        let g = random_layered_mdg(&cfg, 5);
        for (_, n) in g.nodes() {
            if !n.is_structural() {
                assert!(n.cost.alpha >= cfg.alpha_range.0 && n.cost.alpha <= cfg.alpha_range.1);
                assert!(n.cost.tau >= cfg.tau_range.0 && n.cost.tau <= cfg.tau_range.1);
            }
        }
        for (_, e) in g.edges() {
            for t in &e.transfers {
                assert!(t.bytes >= cfg.bytes_range.0 && t.bytes <= cfg.bytes_range.1);
            }
        }
    }
}
