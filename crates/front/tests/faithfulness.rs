//! Front-end faithfulness: compiling the paper's test programs from
//! source must produce MDGs structurally equivalent to the hand-built
//! ones of `paradigm_mdg::builders` — same node inventory, same
//! dependence structure, same costs, same transfer kinds/volumes.

use paradigm_front::compile_source;
use paradigm_mdg::stats::MdgStats;
use paradigm_mdg::{complex_matmul_mdg, KernelCostTable, Mdg, NodeKind, TransferKind};

const CMM_SOURCE: &str = "\
program complex_matmul
matrix Ar(64,64), Ai(64,64), Br(64,64), Bi(64,64)
matrix M1(64,64), M2(64,64), M3(64,64), M4(64,64)
matrix Cr(64,64), Ci(64,64)

Ar = init()
Ai = init()
Br = init()
Bi = init()
M1 = Ar * Br
M2 = Ai * Bi
M3 = Ar * Bi
M4 = Ai * Br
Cr = M1 - M2
Ci = M3 + M4
";

type Fingerprint = (usize, usize, Vec<String>, Vec<(usize, usize, u64)>);

fn structural_fingerprint(g: &Mdg) -> Fingerprint {
    let mut classes: Vec<String> = g
        .nodes()
        .filter(|(_, n)| n.kind == NodeKind::Compute)
        .map(|(_, n)| n.meta.class.tag().to_string())
        .collect();
    classes.sort();
    let mut edges: Vec<(usize, usize, u64)> = g
        .edges()
        .filter(|(_, e)| !e.transfers.is_empty())
        .map(|(_, e)| (e.src, e.dst, e.total_bytes()))
        .collect();
    edges.sort();
    (g.node_count(), edges.len(), classes, edges)
}

#[test]
fn cmm_from_source_matches_hand_built_graph() {
    let table = KernelCostTable::cm5();
    let compiled = compile_source(CMM_SOURCE, &table).expect("CMM program compiles");
    let hand = complex_matmul_mdg(64, &table);
    let (n1, e1, c1, edges1) = structural_fingerprint(&compiled);
    let (n2, e2, c2, edges2) = structural_fingerprint(&hand);
    assert_eq!(n1, n2, "node counts differ");
    assert_eq!(e1, e2, "data edge counts differ");
    assert_eq!(c1, c2, "loop class inventories differ");
    assert_eq!(edges1, edges2, "dependence structure differs");
}

#[test]
fn cmm_from_source_has_identical_costs() {
    let table = KernelCostTable::cm5();
    let compiled = compile_source(CMM_SOURCE, &table).expect("compiles");
    let hand = complex_matmul_mdg(64, &table);
    // Zip by node index (statement order matches the hand-built order).
    for (id, n) in compiled.nodes() {
        let h = hand.node(id);
        assert!((n.cost.alpha - h.cost.alpha).abs() < 1e-12, "{}", n.name);
        assert!((n.cost.tau - h.cost.tau).abs() < 1e-12, "{}", n.name);
    }
}

#[test]
fn cmm_from_source_schedules_identically() {
    // End to end: the compiled-from-source graph must produce the same
    // Phi and T_psa as the hand-built one.
    use paradigm_cost::Machine;
    use paradigm_sched::{psa_schedule, PsaConfig};
    use paradigm_solver::{allocate, SolverConfig};
    let table = KernelCostTable::cm5();
    let compiled = compile_source(CMM_SOURCE, &table).expect("compiles");
    let hand = complex_matmul_mdg(64, &table);
    let m = Machine::cm5(16);
    let cfg = SolverConfig::fast();
    let phi_src = allocate(&compiled, m, &cfg).phi.phi;
    let phi_hand = allocate(&hand, m, &cfg).phi.phi;
    assert!((phi_src - phi_hand).abs() < 1e-6 * phi_hand, "Phi differs: {phi_src} vs {phi_hand}");
    let alloc = paradigm_cost::Allocation::uniform(&compiled, 4.0);
    let t_src = psa_schedule(&compiled, m, &alloc, &PsaConfig::default()).t_psa;
    let t_hand = psa_schedule(&hand, m, &alloc, &PsaConfig::default()).t_psa;
    assert!((t_src - t_hand).abs() < 1e-12, "T_psa differs: {t_src} vs {t_hand}");
}

#[test]
fn mixed_parallelism_program_with_transpose() {
    // A realistic normal-equations kernel: G = A' * A needs a transposed
    // use; the front end must emit a 2D transfer for it.
    let src = "\
program normal_eq
matrix A(128,64), G(64,64), R(64,64)
A = init()
G = A' * A
R = G + G
";
    let g = compile_source(src, &KernelCostTable::cm5()).expect("compiles");
    let stats = MdgStats::of(&g);
    assert_eq!(stats.compute_nodes, 3);
    let two_d = g
        .edges()
        .flat_map(|(_, e)| e.transfers.iter())
        .filter(|t| t.kind == TransferKind::TwoD)
        .count();
    assert_eq!(two_d, 1, "exactly the A' use is 2D");
}

#[test]
fn front_end_error_paths_are_user_grade() {
    let table = KernelCostTable::cm5();
    for (src, needle) in [
        ("program p\nmatrix A(8,8)\nB = A + A\n", "not declared"),
        ("program p\nmatrix A(8,8), B(8,8)\nB = A * A\nA = init()\n", "before it is defined"),
        ("program p\nmatrix A(8,8)\nA = @\n", "unexpected character"),
        ("nope\n", "program"),
    ] {
        let e = compile_source(src, &table).expect_err(src);
        assert!(e.message.contains(needle), "{src}: got {e}");
        assert!(e.line > 0);
    }
}

#[test]
fn checked_compilation_lints_the_lowered_graph() {
    let table = KernelCostTable::cm5();
    let (g, diags) = paradigm_front::compile_source_checked(CMM_SOURCE, &table)
        .expect("the paper's CMM program lowers to a lint-clean graph");
    assert_eq!(MdgStats::of(&g).compute_nodes, 10);
    // The CMM graph is fully connected compute-to-compute and uses
    // measured costs, so no diagnostic of any severity should fire.
    assert!(diags.is_empty(), "{diags:?}");
    // Parse errors still surface as FrontError, not as lints.
    assert!(paradigm_front::compile_source_checked("nope\n", &table).is_err());
}
