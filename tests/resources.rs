//! Cross-crate soundness tests for the static resource analyzer: the
//! abstract per-processor peak bound (`analyze_resources`) must dominate
//! the concrete resident-set peak measured by the simulator, on every
//! gallery graph x machine family and on seeded random MDGs. No
//! tolerance games — the static interval is a guarantee, the simulator
//! is the adversary.

use paradigm_analyze::{analyze_resources, check_schedule_memory};
use paradigm_core::prelude::*;
use paradigm_core::{gallery_graph, machine_from_spec, GALLERY_NAMES, MACHINE_SPECS};
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_sim::{lower_mpmd, lower_spmd, TaskProgram};
use proptest::prelude::*;

/// Slack for the float conversion of exact byte counts: relative 1e-9
/// (same as the analyzer's `MEM_RTOL`) plus half a byte.
fn dominates(static_ub: f64, sim_peak: f64) -> bool {
    sim_peak <= static_ub * (1.0 + 1e-9) + 0.5
}

#[test]
fn static_bound_dominates_simulated_peak_on_gallery() {
    for name in GALLERY_NAMES {
        let g = gallery_graph(name).unwrap_or_else(|| panic!("gallery graph {name}"));
        for spec in MACHINE_SPECS {
            let p = 16u32;
            let machine =
                machine_from_spec(spec, p).unwrap_or_else(|| panic!("machine spec {spec}"));
            let ra = analyze_resources(&g, &machine);
            assert!(ra.feasible, "{name} must fit the default {spec} memory");
            let ub = ra.peak_interval.1;
            let c = compile(&g, machine, &CompileConfig::fast());
            let truth = TrueMachine::cm5(p);
            for prog in [lower_mpmd(&g, &c.psa.schedule), lower_spmd(&g, p)] {
                let peak = simulate(&prog, &truth).peak_resident_bytes(&prog);
                assert!(
                    dominates(ub, peak),
                    "{name}/{spec}: simulated peak {peak} exceeds static bound {ub}"
                );
            }
            // The post-schedule sweep is tighter than the pre-schedule
            // interval, never looser.
            let sweep = check_schedule_memory(&g, &machine, &c.psa.schedule);
            assert!(
                dominates(ub, sweep.peak_bytes),
                "{name}/{spec}: sweep peak {} exceeds static bound {ub}",
                sweep.peak_bytes
            );
        }
    }
}

/// A deliberately memory-infeasible setup must be rejected by all three
/// independent layers: the static lint, the certificate checker on a
/// tampered document, and the live schedule auditor.
#[test]
fn memory_infeasible_example_is_rejected_by_all_three_layers() {
    use paradigm_analyze::{
        certificate_json, certify_objective, check_certificate_text, has_errors, memory_lint_set,
        AuditClaims, AuditViolation, ScheduleAuditor,
    };
    use paradigm_mdg::{AmdahlParams, ArrayTransfer, LoopClass, LoopMeta, MdgBuilder};
    use paradigm_solver::{FallbackTier, MdgObjective};

    // Two 8 MiB nodes exchanging an 8 MiB matrix...
    let mut b = MdgBuilder::new("oversized");
    let a = b.compute_with_meta(
        "a",
        AmdahlParams::new(0.1, 1.0),
        LoopMeta::square(LoopClass::MatrixInit, 1024),
    );
    let c = b.compute_with_meta(
        "c",
        AmdahlParams::new(0.1, 1.0),
        LoopMeta::square(LoopClass::MatrixAdd, 1024),
    );
    b.edge(a, c, vec![ArrayTransfer::matrix_1d(1024, 1024)]);
    let g = b.finish().unwrap();
    // ...on a 4-processor machine with 1 MiB per processor.
    let tiny = Machine::cm5(4).with_mem_bytes(1024 * 1024);

    // Layer 1: the static lint proves infeasibility, no schedule needed.
    let diags = memory_lint_set(&tiny).run(&g);
    assert!(has_errors(&diags));
    assert!(diags.iter().any(|d| d.lint == "memory-infeasible"), "{diags:?}");

    // Layer 2: the certificate checker. An honest certificate for the
    // tiny machine records feasible = false and checks clean; flipping
    // the verdict (the tamper) is caught by interval re-derivation.
    let obj = MdgObjective::new(&g, tiny);
    let cert = certify_objective(&obj).expect("objective certifies");
    let doc = certificate_json(&obj, &cert).render();
    assert!(doc.contains("\"feasible\":false"), "analysis must prove infeasibility");
    check_certificate_text(&doc).expect("honest certificate checks clean");
    let tampered = doc.replace("\"feasible\":false", "\"feasible\":true");
    let failure = check_certificate_text(&tampered).expect_err("tampered verdict must be caught");
    assert!(format!("{failure}").contains("memory"), "{failure}");

    // Layer 3: the live auditor. The PSA schedule is fine on the real
    // cm5 memory but the auditor flags it against the tiny machine.
    let res = psa_schedule(&g, tiny, &Allocation::uniform(&g, 2.0), &PsaConfig::default());
    let claims = AuditClaims { phi: res.t_psa, t_psa: res.t_psa, tier: FallbackTier::Primary };
    let auditor = ScheduleAuditor::new();
    let ok =
        auditor.audit(&g, &Machine::cm5(4), &Allocation::uniform(&g, 2.0), &res.schedule, &claims);
    assert!(
        !ok.violations.iter().any(|v| matches!(v, AuditViolation::MemoryOverCapacity { .. })),
        "32 MiB per processor holds this working set: {}",
        ok.render()
    );
    let bad = auditor.audit(&g, &tiny, &Allocation::uniform(&g, 2.0), &res.schedule, &claims);
    assert!(
        bad.violations.iter().any(|v| matches!(v, AuditViolation::MemoryOverCapacity { .. })),
        "auditor must flag the tiny machine: {}",
        bad.render()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn static_bound_dominates_simulated_peak_on_random_mdgs(
        seed in 0u64..500,
        p_idx in 0usize..3,
    ) {
        let p = [4u32, 8, 16][p_idx];
        let g = random_layered_mdg(&RandomMdgConfig::default(), seed);
        let machine = Machine::cm5(p);
        let ra = analyze_resources(&g, &machine);
        let ub = ra.peak_interval.1;
        let c = compile(&g, machine, &CompileConfig::fast());
        let truth = TrueMachine::cm5(p);
        let peak = |prog: TaskProgram| simulate(&prog, &truth).peak_resident_bytes(&prog);
        let mpmd = peak(lower_mpmd(&g, &c.psa.schedule));
        prop_assert!(dominates(ub, mpmd), "seed {seed} p={p}: mpmd peak {mpmd} > bound {ub}");
        let spmd = peak(lower_spmd(&g, p));
        prop_assert!(dominates(ub, spmd), "seed {seed} p={p}: spmd peak {spmd} > bound {ub}");
        let sweep = check_schedule_memory(&g, &machine, &c.psa.schedule);
        prop_assert!(
            dominates(ub, sweep.peak_bytes),
            "seed {seed} p={p}: sweep peak {} > bound {ub}", sweep.peak_bytes
        );
    }
}
