//! End-to-end value correctness: compile a program from source, let the
//! convex solver + PSA pick real processor groups, then execute the
//! program's dataflow through the exact redistribution plans those
//! groups imply — the result must equal the sequential reference
//! element for element. This is the "compiled code computes the right
//! answer" check for the whole pipeline.

use paradigm_core::prelude::*;
use paradigm_front::{compile_source, interpret, interpret_distributed, parse};
use paradigm_mdg::NodeKind;

const SOURCE: &str = "\
program value_check
matrix A(32,32), B(32,32), M1(32,32), M2(32,32), G(32,32), R(32,32)
A  = init()
B  = init()
M1 = A * B
M2 = A' * A
G  = M1 + M2
R  = G - B
";

/// Per-statement group sizes from the PSA's bounded allocation
/// (statement order == compute-node order in the lowered MDG).
fn solver_groups(p: u32) -> Vec<usize> {
    let table = KernelCostTable::cm5();
    let g = compile_source(SOURCE, &table).expect("compiles");
    let compiled = compile(&g, &SolveSpec::new(Machine::cm5(p))).unwrap();
    g.nodes()
        .filter(|(_, n)| n.kind == NodeKind::Compute)
        .map(|(id, _)| compiled.psa.bounded.as_u32(id) as usize)
        .collect()
}

#[test]
fn solver_chosen_groups_preserve_values() {
    let program = parse(SOURCE).expect("parses");
    let reference = interpret(&program, 1994);
    for p in [4u32, 16, 64] {
        let groups = solver_groups(p);
        assert_eq!(groups.len(), program.stmts.len());
        let dist = interpret_distributed(&program, &groups, 1994);
        for (name, want) in &reference {
            assert!(
                dist[name].approx_eq(want, 1e-9),
                "p={p}: matrix {name} corrupted by redistribution (groups {groups:?})"
            );
        }
    }
}

#[test]
fn adversarial_group_patterns_preserve_values() {
    // Group sizes the solver would never pick (prime, mismatched,
    // oversubscribed) must still move data correctly.
    let program = parse(SOURCE).expect("parses");
    let reference = interpret(&program, 7);
    for groups in [vec![31, 1, 17, 3, 29, 2], vec![1, 32, 1, 32, 1, 32]] {
        let dist = interpret_distributed(&program, &groups, 7);
        for (name, want) in &reference {
            assert!(dist[name].approx_eq(want, 1e-9), "{name} with {groups:?}");
        }
    }
}

#[test]
fn paper_programs_verify_numerically_via_registry() {
    // The TestProgram registry's value check covers the two paper
    // workloads with the real kernels.
    for prog in TestProgram::paper_suite() {
        assert!(prog.verify_numerics(2026) < 1e-8, "{}", prog.name());
    }
}
