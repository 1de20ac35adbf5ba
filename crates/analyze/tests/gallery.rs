//! Acceptance checks over the full graph gallery: every gallery MDG must
//! lint clean, and the schedule analyzer must pass every PSA / rounding /
//! refinement / baseline schedule of those graphs.

use paradigm_analyze::lint_mdg;
use paradigm_cost::{Allocation, Machine};
use paradigm_mdg::{
    block_lu_mdg, complex_matmul_mdg, example_fig1_mdg, fft_2d_mdg, stencil_mdg, strassen_mdg,
    strassen_mdg_multilevel, KernelCostTable, Mdg,
};
use paradigm_sched::{
    analyze_schedule, psa_schedule, refine_allocation, spmd_schedule, task_parallel_schedule,
    PsaConfig,
};

fn gallery() -> Vec<Mdg> {
    let t = KernelCostTable::cm5();
    vec![
        example_fig1_mdg(),
        complex_matmul_mdg(64, &t),
        strassen_mdg(128, &t),
        strassen_mdg_multilevel(128, 2, &t),
        fft_2d_mdg(64, 4, &t),
        block_lu_mdg(4, 32, &t),
        stencil_mdg(64, 2, 3, &t),
    ]
}

#[test]
fn gallery_mdgs_lint_clean() {
    for g in gallery() {
        let diags = lint_mdg(&g);
        assert!(
            diags.is_empty(),
            "`{}`:\n{}",
            g.name(),
            paradigm_analyze::render_diagnostics(&g, &diags)
        );
    }
}

#[test]
fn analyzer_passes_psa_refinement_and_baselines_on_gallery() {
    for g in gallery() {
        let m = Machine::cm5(16);
        let alloc = Allocation::uniform(&g, 4.0);
        // PSA with rounding (uniform 4 is already a power of two, so also
        // exercise a non-trivial continuous allocation).
        let frac = Allocation::uniform(&g, 2.7);
        for a in [&alloc, &frac] {
            let res = psa_schedule(&g, m, a, &PsaConfig::default());
            let rep = analyze_schedule(&g, &res.weights, &res.schedule);
            assert!(rep.is_clean(), "`{}` PSA: {}", g.name(), rep.render());
            // Refinement output must stay clean too.
            let refined = refine_allocation(&g, m, &res).best;
            let rep = analyze_schedule(&g, &refined.weights, &refined.schedule);
            assert!(rep.is_clean(), "`{}` refined: {}", g.name(), rep.render());
        }
        let (s, w) = spmd_schedule(&g, m);
        let rep = analyze_schedule(&g, &w, &s);
        assert!(rep.is_clean(), "`{}` SPMD: {}", g.name(), rep.render());
        let tp = task_parallel_schedule(&g, Machine::cm5(64));
        let rep = analyze_schedule(&g, &tp.weights, &tp.schedule);
        assert!(rep.is_clean(), "`{}` task-parallel: {}", g.name(), rep.render());
    }
}
