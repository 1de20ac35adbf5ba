//! Ablation: the post-PSA reallocation refinement (an extension beyond
//! the paper). How much of the Table-3 gap between `T_psa` and `Phi`
//! does a greedy discrete hill-climb recover?

use paradigm_bench::{banner, PAPER_SIZES};
use paradigm_core::prelude::*;
use paradigm_sched::refine_allocation;

fn main() {
    banner(
        "ablation_refinement",
        "extension: greedy critical-path reallocation after the PSA",
        "closes part of the Table-3 T_psa-vs-Phi gap, never hurts, keeps Theorem-1 validity",
    );

    let table = KernelCostTable::cm5();
    println!(
        "\n  program   |  p |  Phi (s) | T_psa (s) | refined (s) | gap before | gap after | moves"
    );
    println!(
        "  ----------+----+----------+-----------+-------------+------------+-----------+------"
    );
    let mut total_closed = 0.0;
    let mut cases = 0;
    for prog in TestProgram::paper_suite() {
        let g = prog.build(&table);
        for &p in &PAPER_SIZES {
            let m = Machine::cm5(p);
            let sol = allocate(&g, m, &SolverConfig::default());
            let start = psa_schedule(&g, m, &sol.alloc, &PsaConfig::default());
            let r = refine_allocation(&g, m, &start);
            r.best.schedule.validate(&g, &r.best.weights).expect("refined schedule valid");
            let gap_before = 100.0 * (start.t_psa - sol.phi.phi) / sol.phi.phi;
            let gap_after = 100.0 * (r.best.t_psa - sol.phi.phi) / sol.phi.phi;
            println!(
                "  {:<9} | {:>2} | {:>8.4} | {:>9.4} | {:>11.4} | {:>9.1}% | {:>8.1}% | {:>5}",
                prog.name().split(' ').next().unwrap_or("?"),
                p,
                sol.phi.phi,
                start.t_psa,
                r.best.t_psa,
                gap_before,
                gap_after,
                r.moves.len()
            );
            assert!(r.best.t_psa <= start.t_psa + 1e-12, "refinement must never hurt");
            assert!(
                gap_after >= -1.0,
                "refined schedule cannot materially beat the exact lower bound"
            );
            if gap_before > 0.5 {
                total_closed += (gap_before - gap_after) / gap_before;
                cases += 1;
            }
        }
    }
    if cases > 0 {
        println!(
            "\n  average fraction of the Phi-gap closed (cases with >0.5% gap): {:.0}%",
            100.0 * total_closed / cases as f64
        );
    }
    println!("\nresult: the refinement is a strict improvement pass — it trims the paper's\nTable-3 deviations while preserving every scheduling guarantee");
}
