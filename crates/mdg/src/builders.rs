//! Builders for the MDGs used in the paper.
//!
//! * [`example_fig1_mdg`] — the three-node motivating example of Figure 1,
//!   with Amdahl parameters reverse-engineered so that the two schedule
//!   lengths quoted in the paper (15.6 s naive, 14.3 s mixed) are
//!   reproduced exactly (`alpha = 1/13`, `tau = 16.9 s`; see tests).
//! * [`complex_matmul_mdg`] — complex matrix multiplication
//!   `C = (Ar + i·Ai)(Br + i·Bi)` in the classic 4-multiply/2-add real
//!   form (paper Section 6, first test program, 64×64).
//! * [`strassen_mdg`] — one recursion level of Strassen's algorithm
//!   (paper Section 6, second test program, 128×128: seven 64×64
//!   multiplies plus 18 quadrant additions/subtractions).
//!
//! All data transfers in both test programs are of the **1D** type, as
//! stated in the paper ("All the data transfers are of the 1D type in both
//! algorithms").

use crate::graph::{Mdg, MdgBuilder, NodeId};
use crate::node::{AmdahlParams, ArrayTransfer, LoopClass, LoopMeta};

/// Per-loop-class Amdahl parameters at a reference matrix size, plus
/// scaling rules to other sizes.
///
/// The CM-5 defaults come straight from the paper's Table 1
/// (Matrix Addition 64×64: alpha = 6.7 %, tau = 3.73 ms; Matrix Multiply
/// 64×64: alpha = 12.1 %, tau = 298.47 ms). The initialization loop is not
/// parameterized in the paper; we use a small add-like cost and document
/// the choice here (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCostTable {
    /// Reference square-matrix dimension the `tau` values refer to.
    pub ref_n: usize,
    /// Matrix initialization loop parameters at `ref_n`.
    pub init: AmdahlParams,
    /// Matrix addition loop parameters at `ref_n`.
    pub add: AmdahlParams,
    /// Matrix multiplication loop parameters at `ref_n`.
    pub mul: AmdahlParams,
}

impl KernelCostTable {
    /// The CM-5 parameters of the paper's Table 1 (reference size 64×64).
    pub fn cm5() -> Self {
        KernelCostTable {
            ref_n: 64,
            // Not in the paper; small, add-like. See DESIGN.md §15.
            init: AmdahlParams::new(0.05, 2.0e-3),
            add: AmdahlParams::new(0.067, 3.73e-3),
            mul: AmdahlParams::new(0.121, 298.47e-3),
        }
    }

    /// Parameters for an `n x n` loop of the given class, scaling `tau`
    /// from the reference size: O(n^2) work for init/add, O(n^3) for
    /// multiply. `alpha` is kept fixed (the paper notes alpha may depend
    /// on problem size; holding it constant keeps `t^C` posynomial and
    /// matches the measured fit at the reference size).
    pub fn params_for(&self, class: &LoopClass, n: usize) -> AmdahlParams {
        let r = n as f64 / self.ref_n as f64;
        match class {
            LoopClass::MatrixInit => AmdahlParams::new(self.init.alpha, self.init.tau * r * r),
            LoopClass::MatrixAdd => AmdahlParams::new(self.add.alpha, self.add.tau * r * r),
            LoopClass::MatrixMultiply => {
                AmdahlParams::new(self.mul.alpha, self.mul.tau * r * r * r)
            }
            LoopClass::Synthetic | LoopClass::Custom(_) => {
                AmdahlParams::new(self.add.alpha, self.add.tau)
            }
        }
    }
}

impl Default for KernelCostTable {
    fn default() -> Self {
        KernelCostTable::cm5()
    }
}

/// The motivating example of the paper's Figure 1: three nodes where
/// `N1` precedes `N2` and `N3`, no data-transfer costs.
///
/// With `alpha = 1/13` and `tau = 16.9 s` per node:
/// * naive all-4-processor serial execution: `3 * t(4) = 15.6 s`;
/// * mixed execution (`N1` on 4, then `N2 || N3` on 2 each):
///   `t(4) + t(2) = 5.2 + 9.1 = 14.3 s` — exactly the paper's numbers.
pub fn example_fig1_mdg() -> Mdg {
    let params = AmdahlParams::new(1.0 / 13.0, 16.9);
    let mut b = MdgBuilder::new("fig1-example");
    let n1 = b.compute("N1", params);
    let n2 = b.compute("N2", params);
    let n3 = b.compute("N3", params);
    b.edge(n1, n2, vec![]);
    b.edge(n1, n3, vec![]);
    b.finish().expect("fig1 example must be a valid DAG")
}

/// Complex matrix multiply `C = A * B` over `n x n` complex matrices,
/// expressed with four real multiplies and two real additions:
///
/// ```text
/// Cr = Ar*Br - Ai*Bi        Ci = Ar*Bi + Ai*Br
/// ```
///
/// Structure (paper Figure 6, left): four initialization loops feed four
/// multiply loops (each init feeds two multiplies), which feed the two
/// addition loops. All transfers are full `n x n` matrices, 1D type.
pub fn complex_matmul_mdg(n: usize, costs: &KernelCostTable) -> Mdg {
    let mut b = MdgBuilder::new(format!("complex-matmul-{n}x{n}"));
    let init_p = costs.params_for(&LoopClass::MatrixInit, n);
    let mul_p = costs.params_for(&LoopClass::MatrixMultiply, n);
    let add_p = costs.params_for(&LoopClass::MatrixAdd, n);
    let init_m = LoopMeta::square(LoopClass::MatrixInit, n);
    let mul_m = LoopMeta::square(LoopClass::MatrixMultiply, n);
    let add_m = LoopMeta::square(LoopClass::MatrixAdd, n);

    let ar = b.compute_with_meta("init Ar", init_p, init_m.clone());
    let ai = b.compute_with_meta("init Ai", init_p, init_m.clone());
    let br = b.compute_with_meta("init Br", init_p, init_m.clone());
    let bi = b.compute_with_meta("init Bi", init_p, init_m);

    let m1 = b.compute_with_meta("M1 = Ar*Br", mul_p, mul_m.clone());
    let m2 = b.compute_with_meta("M2 = Ai*Bi", mul_p, mul_m.clone());
    let m3 = b.compute_with_meta("M3 = Ar*Bi", mul_p, mul_m.clone());
    let m4 = b.compute_with_meta("M4 = Ai*Br", mul_p, mul_m);

    let cr = b.compute_with_meta("Cr = M1 - M2", add_p, add_m.clone());
    let ci = b.compute_with_meta("Ci = M3 + M4", add_p, add_m);

    let t = || vec![ArrayTransfer::matrix_1d(n, n)];
    b.edge(ar, m1, t());
    b.edge(br, m1, t());
    b.edge(ai, m2, t());
    b.edge(bi, m2, t());
    b.edge(ar, m3, t());
    b.edge(bi, m3, t());
    b.edge(ai, m4, t());
    b.edge(br, m4, t());
    b.edge(m1, cr, t());
    b.edge(m2, cr, t());
    b.edge(m3, ci, t());
    b.edge(m4, ci, t());

    b.finish().expect("complex matmul MDG must be a valid DAG")
}

/// One recursion level of Strassen's matrix multiplication over `n x n`
/// matrices (`n` even; quadrants are `n/2 x n/2`):
///
/// ```text
/// M1 = (A11+A22)(B11+B22)   M2 = (A21+A22) B11    M3 = A11 (B12-B22)
/// M4 = A22 (B21-B11)        M5 = (A11+A12) B22    M6 = (A21-A11)(B11+B12)
/// M7 = (A12-A22)(B21+B22)
/// C11 = M1+M4-M5+M7   C12 = M3+M5   C21 = M2+M4   C22 = M1-M2+M3+M6
/// ```
///
/// Node inventory: 8 quadrant initializations, 10 pre-addition loops
/// (S1..S10), 7 multiply loops (on `n/2` quadrants), 8 post-addition
/// loops (the 4-term C11/C22 sums are decomposed into binary adds).
/// All transfers are `n/2 x n/2` matrices, 1D type.
pub fn strassen_mdg(n: usize, costs: &KernelCostTable) -> Mdg {
    assert!(n.is_multiple_of(2) && n >= 2, "Strassen needs an even matrix dimension, got {n}");
    let h = n / 2;
    let mut b = MdgBuilder::new(format!("strassen-{n}x{n}"));
    let init_p = costs.params_for(&LoopClass::MatrixInit, h);
    let add_p = costs.params_for(&LoopClass::MatrixAdd, h);
    let mul_p = costs.params_for(&LoopClass::MatrixMultiply, h);
    let init_m = LoopMeta::square(LoopClass::MatrixInit, h);
    let add_m = LoopMeta::square(LoopClass::MatrixAdd, h);
    let mul_m = LoopMeta::square(LoopClass::MatrixMultiply, h);
    let t = || vec![ArrayTransfer::matrix_1d(h, h)];

    // Quadrant initializations.
    let a11 = b.compute_with_meta("init A11", init_p, init_m.clone());
    let a12 = b.compute_with_meta("init A12", init_p, init_m.clone());
    let a21 = b.compute_with_meta("init A21", init_p, init_m.clone());
    let a22 = b.compute_with_meta("init A22", init_p, init_m.clone());
    let b11 = b.compute_with_meta("init B11", init_p, init_m.clone());
    let b12 = b.compute_with_meta("init B12", init_p, init_m.clone());
    let b21 = b.compute_with_meta("init B21", init_p, init_m.clone());
    let b22 = b.compute_with_meta("init B22", init_p, init_m);

    // Pre-additions S1..S10.
    let pre = |name: &str, x: NodeId, y: NodeId, bld: &mut MdgBuilder| -> NodeId {
        let s = bld.compute_with_meta(name, add_p, add_m.clone());
        bld.edge(x, s, t());
        bld.edge(y, s, t());
        s
    };
    let s1 = pre("S1 = A11+A22", a11, a22, &mut b);
    let s2 = pre("S2 = B11+B22", b11, b22, &mut b);
    let s3 = pre("S3 = A21+A22", a21, a22, &mut b);
    let s4 = pre("S4 = B12-B22", b12, b22, &mut b);
    let s5 = pre("S5 = B21-B11", b21, b11, &mut b);
    let s6 = pre("S6 = A11+A12", a11, a12, &mut b);
    let s7 = pre("S7 = A21-A11", a21, a11, &mut b);
    let s8 = pre("S8 = B11+B12", b11, b12, &mut b);
    let s9 = pre("S9 = A12-A22", a12, a22, &mut b);
    let s10 = pre("S10 = B21+B22", b21, b22, &mut b);

    // Multiplies M1..M7.
    let mul = |name: &str, x: NodeId, y: NodeId, bld: &mut MdgBuilder| -> NodeId {
        let m = bld.compute_with_meta(name, mul_p, mul_m.clone());
        bld.edge(x, m, t());
        bld.edge(y, m, t());
        m
    };
    let m1 = mul("M1 = S1*S2", s1, s2, &mut b);
    let m2 = mul("M2 = S3*B11", s3, b11, &mut b);
    let m3 = mul("M3 = A11*S4", a11, s4, &mut b);
    let m4 = mul("M4 = A22*S5", a22, s5, &mut b);
    let m5 = mul("M5 = S6*B22", s6, b22, &mut b);
    let m6 = mul("M6 = S7*S8", s7, s8, &mut b);
    let m7 = mul("M7 = S9*S10", s9, s10, &mut b);

    // Post-additions for the C quadrants.
    let post = |name: &str, x: NodeId, y: NodeId, bld: &mut MdgBuilder| -> NodeId {
        let s = bld.compute_with_meta(name, add_p, add_m.clone());
        bld.edge(x, s, t());
        bld.edge(y, s, t());
        s
    };
    let t1 = post("T1 = M1+M4", m1, m4, &mut b);
    let t2 = post("T2 = T1-M5", t1, m5, &mut b);
    let _c11 = post("C11 = T2+M7", t2, m7, &mut b);
    let _c12 = post("C12 = M3+M5", m3, m5, &mut b);
    let _c21 = post("C21 = M2+M4", m2, m4, &mut b);
    let t3 = post("T3 = M1-M2", m1, m2, &mut b);
    let t4 = post("T4 = T3+M3", t3, m3, &mut b);
    let _c22 = post("C22 = T4+M6", t4, m6, &mut b);

    b.finish().expect("strassen MDG must be a valid DAG")
}

/// Fully recursive Strassen MDG: `levels` recursion levels over an
/// `n x n` product (so the leaf multiplies operate on
/// `n / 2^levels` sub-matrices and there are `7^levels` of them).
///
/// This generalizes the paper's single-level test program to a workload
/// whose node count grows geometrically — `N(L) = 19 + 7 N(L-1)` compute
/// nodes per recursion plus two top-level initializations — which is the
/// stress workload of the scalability ablation.
///
/// Structural differences from [`strassen_mdg`] (which mirrors the
/// paper's hand-drawn Figure 6 exactly): the inputs are two whole-matrix
/// initialization loops instead of eight per-quadrant ones, and each
/// recursion level ends in an explicit quadrant-assembly loop.
pub fn strassen_mdg_multilevel(n: usize, levels: u32, costs: &KernelCostTable) -> Mdg {
    assert!(levels >= 1, "need at least one recursion level");
    assert!(n.is_multiple_of(1 << levels), "matrix dimension {n} not divisible by 2^{levels}");
    let mut b = MdgBuilder::new(format!("strassen-{n}x{n}-L{levels}"));
    let init_p = costs.params_for(&LoopClass::MatrixInit, n);
    let init_m = LoopMeta::square(LoopClass::MatrixInit, n);
    let a = b.compute_with_meta("init A", init_p, init_m.clone());
    let bb = b.compute_with_meta("init B", init_p, init_m);
    let _c = strassen_rec(&mut b, costs, n, a, bb, levels, "");
    b.finish().expect("multilevel strassen MDG must be a valid DAG")
}

/// Recursive helper: emit the sub-MDG computing the `m x m` product of
/// the matrices produced by `a_prod` and `b_prod`; returns the producer
/// node of the result. `prefix` disambiguates node names across the
/// recursion tree.
fn strassen_rec(
    b: &mut MdgBuilder,
    costs: &KernelCostTable,
    m: usize,
    a_prod: NodeId,
    b_prod: NodeId,
    depth: u32,
    prefix: &str,
) -> NodeId {
    let mul_p = costs.params_for(&LoopClass::MatrixMultiply, m);
    let mul_m = LoopMeta::square(LoopClass::MatrixMultiply, m);
    if depth == 0 {
        let node = b.compute_with_meta(format!("{prefix}mul{m}"), mul_p, mul_m);
        b.edge(a_prod, node, vec![ArrayTransfer::matrix_1d(m, m)]);
        b.edge(b_prod, node, vec![ArrayTransfer::matrix_1d(m, m)]);
        return node;
    }
    let h = m / 2;
    let add_p = costs.params_for(&LoopClass::MatrixAdd, h);
    let add_m = LoopMeta::square(LoopClass::MatrixAdd, h);
    let quad = || vec![ArrayTransfer::matrix_1d(h, h)];

    // Pre-additions: each S reads two quadrants of one operand (a single
    // edge carrying two quadrant transfers).
    let pre = |name: String, src: NodeId, bld: &mut MdgBuilder| -> NodeId {
        let s = bld.compute_with_meta(name, add_p, add_m.clone());
        bld.edge(src, s, vec![ArrayTransfer::matrix_1d(h, h), ArrayTransfer::matrix_1d(h, h)]);
        s
    };
    let s1 = pre(format!("{prefix}S1"), a_prod, b);
    let s2 = pre(format!("{prefix}S2"), b_prod, b);
    let s3 = pre(format!("{prefix}S3"), a_prod, b);
    let s4 = pre(format!("{prefix}S4"), b_prod, b);
    let s5 = pre(format!("{prefix}S5"), b_prod, b);
    let s6 = pre(format!("{prefix}S6"), a_prod, b);
    let s7 = pre(format!("{prefix}S7"), a_prod, b);
    let s8 = pre(format!("{prefix}S8"), b_prod, b);
    let s9 = pre(format!("{prefix}S9"), a_prod, b);
    let s10 = pre(format!("{prefix}S10"), b_prod, b);

    // Quadrant "extract" views for the raw-operand multiplies (M2, M3,
    // M4, M5) are modeled as quadrant-sized transfers from the operand
    // producer; the recursive calls below consume h-sized operands.
    let m1 = strassen_rec(b, costs, h, s1, s2, depth - 1, &format!("{prefix}M1."));
    let m2 = strassen_rec(b, costs, h, s3, b_prod, depth - 1, &format!("{prefix}M2."));
    let m3 = strassen_rec(b, costs, h, a_prod, s4, depth - 1, &format!("{prefix}M3."));
    let m4 = strassen_rec(b, costs, h, a_prod, s5, depth - 1, &format!("{prefix}M4."));
    let m5 = strassen_rec(b, costs, h, s6, b_prod, depth - 1, &format!("{prefix}M5."));
    let m6 = strassen_rec(b, costs, h, s7, s8, depth - 1, &format!("{prefix}M6."));
    let m7 = strassen_rec(b, costs, h, s9, s10, depth - 1, &format!("{prefix}M7."));

    // Post-additions into C quadrants.
    let post = |name: String, x: NodeId, y: NodeId, bld: &mut MdgBuilder| -> NodeId {
        let s = bld.compute_with_meta(name, add_p, add_m.clone());
        bld.edge(x, s, quad());
        bld.edge(y, s, quad());
        s
    };
    let t1 = post(format!("{prefix}T1"), m1, m4, b);
    let t2 = post(format!("{prefix}T2"), t1, m5, b);
    let c11 = post(format!("{prefix}C11"), t2, m7, b);
    let c12 = post(format!("{prefix}C12"), m3, m5, b);
    let c21 = post(format!("{prefix}C21"), m2, m4, b);
    let t3 = post(format!("{prefix}T3"), m1, m2, b);
    let t4 = post(format!("{prefix}T4"), t3, m3, b);
    let c22 = post(format!("{prefix}C22"), t4, m6, b);

    // Quadrant assembly into the m x m result (an init-class copy loop).
    let asm_p = costs.params_for(&LoopClass::MatrixInit, m);
    let asm_m = LoopMeta::square(LoopClass::MatrixInit, m);
    let out = b.compute_with_meta(format!("{prefix}assemble{m}"), asm_p, asm_m);
    for q in [c11, c12, c21, c22] {
        b.edge(q, out, quad());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeKind, TransferKind};
    use crate::validate::assert_invariants;

    #[test]
    fn fig1_reproduces_paper_schedule_lengths() {
        let g = example_fig1_mdg();
        assert_eq!(g.compute_node_count(), 3);
        let params =
            g.nodes().find(|(_, n)| n.kind == NodeKind::Compute).map(|(_, n)| n.cost).unwrap();
        // Naive: all three nodes serialized on 4 processors.
        let naive = 3.0 * params.cost(4.0);
        assert!((naive - 15.6).abs() < 1e-9, "naive scheme must be 15.6 s, got {naive}");
        // Mixed: N1 on 4 processors, then N2 || N3 on 2 each.
        let mixed = params.cost(4.0) + params.cost(2.0);
        assert!((mixed - 14.3).abs() < 1e-9, "mixed scheme must be 14.3 s, got {mixed}");
    }

    #[test]
    fn fig1_structure() {
        let g = example_fig1_mdg();
        assert_invariants(&g);
        // N1 (node 1) has two compute successors.
        let succs: Vec<_> = g.succs(crate::graph::NodeId(1)).collect();
        assert_eq!(succs.len(), 2);
    }

    #[test]
    fn cm5_cost_table_matches_table1() {
        let t = KernelCostTable::cm5();
        assert!((t.add.alpha - 0.067).abs() < 1e-12);
        assert!((t.add.tau - 3.73e-3).abs() < 1e-12);
        assert!((t.mul.alpha - 0.121).abs() < 1e-12);
        assert!((t.mul.tau - 298.47e-3).abs() < 1e-12);
    }

    #[test]
    fn cost_table_scaling_laws() {
        let t = KernelCostTable::cm5();
        let mul128 = t.params_for(&LoopClass::MatrixMultiply, 128);
        assert!((mul128.tau - 298.47e-3 * 8.0).abs() < 1e-9, "mul scales as n^3");
        let add128 = t.params_for(&LoopClass::MatrixAdd, 128);
        assert!((add128.tau - 3.73e-3 * 4.0).abs() < 1e-9, "add scales as n^2");
        let add64 = t.params_for(&LoopClass::MatrixAdd, 64);
        assert!((add64.tau - 3.73e-3).abs() < 1e-15, "reference size unchanged");
    }

    #[test]
    fn complex_matmul_structure() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        assert_invariants(&g);
        // 4 inits + 4 muls + 2 adds = 10 compute nodes.
        assert_eq!(g.compute_node_count(), 10);
        // 12 data edges plus START/STOP wiring.
        let data_edges = g.edges().filter(|(_, e)| !e.transfers.is_empty()).count();
        assert_eq!(data_edges, 12);
        // All data transfers are 1D, of a full 64x64 matrix.
        for (_, e) in g.edges() {
            for tr in &e.transfers {
                assert_eq!(tr.kind, TransferKind::OneD);
                assert_eq!(tr.bytes, 64 * 64 * 8);
            }
        }
    }

    #[test]
    fn complex_matmul_depth() {
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        let s = crate::stats::MdgStats::of(&g);
        assert_eq!(s.depth, 3, "init -> mul -> add pipeline");
        assert_eq!(s.max_width, 4);
    }

    #[test]
    fn strassen_structure() {
        let g = strassen_mdg(128, &KernelCostTable::cm5());
        assert_invariants(&g);
        // 8 inits + 10 pre-adds + 7 muls + 8 post-adds = 33 compute nodes.
        assert_eq!(g.compute_node_count(), 33);
        let s = crate::stats::MdgStats::of(&g);
        assert_eq!(*s.class_histogram.get("mul").unwrap(), 7);
        assert_eq!(*s.class_histogram.get("add").unwrap(), 18);
        assert_eq!(*s.class_histogram.get("init").unwrap(), 8);
        // All transfers are 1D 64x64 quadrants.
        for (_, e) in g.edges() {
            for tr in &e.transfers {
                assert_eq!(tr.kind, TransferKind::OneD);
                assert_eq!(tr.bytes, 64 * 64 * 8);
            }
        }
    }

    #[test]
    fn strassen_serial_time_dominated_by_multiplies() {
        let t = KernelCostTable::cm5();
        let g = strassen_mdg(128, &t);
        let s = crate::stats::MdgStats::of(&g);
        let mul_time = 7.0 * t.mul.tau; // 7 64x64 multiplies at reference size
        assert!(s.serial_time > mul_time);
        assert!(mul_time / s.serial_time > 0.9, "multiplies dominate Strassen serial time");
    }

    #[test]
    fn strassen_exposes_sevenfold_multiply_parallelism() {
        let g = strassen_mdg(128, &KernelCostTable::cm5());
        let s = crate::stats::MdgStats::of(&g);
        // The seven multiplies are mutually independent, so inherent
        // parallelism must be well above 1 (bounded by the add chains).
        assert!(s.inherent_parallelism() > 3.0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn strassen_rejects_odd_size() {
        let _ = strassen_mdg(65, &KernelCostTable::cm5());
    }

    #[test]
    fn multilevel_strassen_level1_counts() {
        // N(1) = 19 leaf-bearing nodes + 7 multiplies + 2 inits = 28.
        let g = strassen_mdg_multilevel(128, 1, &KernelCostTable::cm5());
        crate::validate::assert_invariants(&g);
        // 2 inits + 10 pre-adds + 7 muls + 8 post-adds + 1 assemble = 28.
        assert_eq!(g.compute_node_count(), 28);
        let s = crate::stats::MdgStats::of(&g);
        assert_eq!(*s.class_histogram.get("mul").unwrap(), 7);
    }

    #[test]
    fn multilevel_strassen_level2_counts() {
        let g = strassen_mdg_multilevel(256, 2, &KernelCostTable::cm5());
        crate::validate::assert_invariants(&g);
        let s = crate::stats::MdgStats::of(&g);
        // 7^2 = 49 leaf multiplies at 64x64.
        assert_eq!(*s.class_histogram.get("mul").unwrap(), 49);
        // Recursion: N(L) = 19 + 7 N(L-1), N(0) = 1; plus 2 inits.
        // N(2) = 19 + 7*26 = 201; total = 203.
        assert_eq!(g.compute_node_count(), 203);
    }

    #[test]
    fn multilevel_strassen_serial_work_follows_seven_eighths_law() {
        // Each level trades 8 multiplies for 7: the multiply work at
        // level L is (7/8)^L of the classic product's.
        let t = KernelCostTable::cm5();
        let classic = |n: usize| t.params_for(&LoopClass::MatrixMultiply, n).tau;
        for levels in 1..=2u32 {
            let n = 64 << levels;
            let g = strassen_mdg_multilevel(n, levels, &t);
            let mul_time: f64 = g
                .nodes()
                .filter(|(_, nd)| matches!(nd.meta.class, LoopClass::MatrixMultiply))
                .map(|(_, nd)| nd.cost.tau)
                .sum();
            let expect = classic(n) * (7.0_f64 / 8.0).powi(levels as i32);
            assert!(
                (mul_time - expect).abs() < 1e-9 * expect,
                "levels {levels}: {mul_time} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn multilevel_strassen_rejects_bad_dimension() {
        let _ = strassen_mdg_multilevel(100, 3, &KernelCostTable::cm5());
    }

    #[test]
    fn strassen_multiplies_are_mutually_unreachable() {
        let g = strassen_mdg(128, &KernelCostTable::cm5());
        let muls: Vec<_> = g
            .nodes()
            .filter(|(_, n)| matches!(n.meta.class, LoopClass::MatrixMultiply))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(muls.len(), 7);
        for &a in &muls {
            for &b in &muls {
                if a != b {
                    assert!(!g.reaches(a, b), "{a} must not reach {b}");
                }
            }
        }
    }
}
