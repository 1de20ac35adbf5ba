//! Lowering: programs → MDGs.
//!
//! * one MDG node per statement, loop class from the operator
//!   (`init()` → MatrixInit, `+`/`-` → MatrixAdd, `*` → MatrixMultiply,
//!   copies/transposes → custom copy loops with init-like cost);
//! * node costs scaled from the [`KernelCostTable`] by the target shape;
//! * def-use dependence edges: each operand use depends on the **last**
//!   statement that defined that matrix;
//! * transfers: one per operand use, sized by the operand matrix, 1D for
//!   plain uses and 2D for transposed uses (distribution dimension
//!   flip — paper Figure 4's ROW2COL);
//! * shape checking against the declarations (with transposes applied).

use crate::ast::{BinOp, Expr, Program, Stmt};
use paradigm_mdg::{
    ArrayTransfer, KernelCostTable, LoopClass, LoopMeta, Mdg, MdgBuilder, NodeId, TransferKind,
};
use std::collections::BTreeMap;

/// A lowering failure with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LowerError {}

fn err(line: usize, message: impl Into<String>) -> LowerError {
    LowerError { line, message: message.into() }
}

/// Effective shape of an operand use (transpose applied).
fn use_shape(
    program: &Program,
    stmt: &Stmt,
    name: &str,
    transposed: bool,
) -> Result<(usize, usize), LowerError> {
    let d = program
        .decl(name)
        .ok_or_else(|| err(stmt.line, format!("matrix `{name}` is not declared")))?;
    Ok(if transposed { (d.cols, d.rows) } else { (d.rows, d.cols) })
}

/// Size-derived Amdahl parameters + metadata for a statement.
fn node_cost(
    program: &Program,
    stmt: &Stmt,
    costs: &KernelCostTable,
) -> Result<(paradigm_mdg::AmdahlParams, LoopMeta), LowerError> {
    let target = program
        .decl(&stmt.target)
        .ok_or_else(|| err(stmt.line, format!("matrix `{}` is not declared", stmt.target)))?;
    let n = ((target.rows as f64 * target.cols as f64).sqrt()).round().max(1.0) as usize;
    let (class, params) = match &stmt.expr {
        Expr::Init => (LoopClass::MatrixInit, costs.params_for(&LoopClass::MatrixInit, n)),
        Expr::Bin { op: BinOp::Mul, .. } => {
            (LoopClass::MatrixMultiply, costs.params_for(&LoopClass::MatrixMultiply, n))
        }
        Expr::Bin { .. } => (LoopClass::MatrixAdd, costs.params_for(&LoopClass::MatrixAdd, n)),
        Expr::Copy { src } => {
            let tag = if src.transposed { "transpose" } else { "copy" };
            // Copy loops move every element once: init-like cost.
            (LoopClass::from_tag(tag), costs.params_for(&LoopClass::MatrixInit, n))
        }
    };
    Ok((params, LoopMeta { class, rows: target.rows, cols: target.cols }))
}

/// Shape-check one statement.
fn check_shapes(program: &Program, stmt: &Stmt) -> Result<(), LowerError> {
    let target = program
        .decl(&stmt.target)
        .ok_or_else(|| err(stmt.line, format!("matrix `{}` is not declared", stmt.target)))?;
    let t_shape = (target.rows, target.cols);
    match &stmt.expr {
        Expr::Init => Ok(()),
        Expr::Copy { src } => {
            let s = use_shape(program, stmt, &src.name, src.transposed)?;
            if s != t_shape {
                return Err(err(
                    stmt.line,
                    format!(
                        "shape mismatch: `{}` is {}x{} but `{}` provides {}x{}",
                        stmt.target, t_shape.0, t_shape.1, src.name, s.0, s.1
                    ),
                ));
            }
            Ok(())
        }
        Expr::Bin { op, lhs, rhs } => {
            let l = use_shape(program, stmt, &lhs.name, lhs.transposed)?;
            let r = use_shape(program, stmt, &rhs.name, rhs.transposed)?;
            match op {
                BinOp::Mul => {
                    if l.1 != r.0 {
                        return Err(err(
                            stmt.line,
                            format!("inner dimensions differ: {}x{} * {}x{}", l.0, l.1, r.0, r.1),
                        ));
                    }
                    if (l.0, r.1) != t_shape {
                        return Err(err(
                            stmt.line,
                            format!(
                                "product is {}x{} but `{}` is {}x{}",
                                l.0, r.1, stmt.target, t_shape.0, t_shape.1
                            ),
                        ));
                    }
                }
                BinOp::Add | BinOp::Sub => {
                    if l != r || l != t_shape {
                        return Err(err(
                            stmt.line,
                            format!(
                                "elementwise shapes differ: {}x{} vs {}x{} -> {}x{}",
                                l.0, l.1, r.0, r.1, t_shape.0, t_shape.1
                            ),
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

/// Lower a parsed program to a finished MDG.
pub fn lower(program: &Program, costs: &KernelCostTable) -> Result<Mdg, LowerError> {
    let mut b = MdgBuilder::new(program.name.clone());
    // last_def: matrix name -> (builder node, statement index).
    let mut last_def: BTreeMap<&str, NodeId> = BTreeMap::new();
    for stmt in &program.stmts {
        check_shapes(program, stmt)?;
        let (params, meta) = node_cost(program, stmt, costs)?;
        let node = b.compute_with_meta(stmt.render(), params, meta);
        // One edge per producer; multiple uses from the same producer
        // merge their transfers.
        let mut per_producer: BTreeMap<NodeId, Vec<ArrayTransfer>> = BTreeMap::new();
        for operand in stmt.uses() {
            let producer = *last_def.get(operand.name.as_str()).ok_or_else(|| {
                err(stmt.line, format!("matrix `{}` is used before it is defined", operand.name))
            })?;
            let d = program.decl(&operand.name).expect("checked by use_shape");
            let bytes = (d.rows * d.cols * std::mem::size_of::<f64>()) as u64;
            let kind = if operand.transposed { TransferKind::TwoD } else { TransferKind::OneD };
            per_producer.entry(producer).or_default().push(ArrayTransfer::new(bytes, kind));
        }
        for (producer, transfers) in per_producer {
            b.edge(producer, node, transfers);
        }
        last_def.insert(stmt.target.as_str(), node);
    }
    b.finish().map_err(|e| err(0, format!("graph construction failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use paradigm_mdg::validate::assert_invariants;
    use paradigm_mdg::NodeKind;

    fn table() -> KernelCostTable {
        KernelCostTable::cm5()
    }

    fn compile(src: &str) -> Result<Mdg, LowerError> {
        lower(&parse(src).expect("parse"), &table())
    }

    #[test]
    fn simple_chain_lowers() {
        let g = compile(
            "program p\nmatrix A(64,64), B(64,64), C(64,64)\nA = init()\nB = init()\nC = A * B\n",
        )
        .unwrap();
        assert_invariants(&g);
        assert_eq!(g.compute_node_count(), 3);
        // The multiply reads both inits: 2 data edges.
        let data_edges = g.edges().filter(|(_, e)| !e.transfers.is_empty()).count();
        assert_eq!(data_edges, 2);
        // Cost class inferred.
        let mul = g.nodes().find(|(_, n)| n.name.contains('*')).unwrap().1;
        assert_eq!(mul.meta.class, LoopClass::MatrixMultiply);
        assert!((mul.cost.tau - table().mul.tau).abs() < 1e-12);
    }

    #[test]
    fn transposed_use_makes_2d_transfer() {
        let g = compile(
            "program p\nmatrix A(64,64), B(64,64), C(64,64)\nA = init()\nB = init()\nC = A * B'\n",
        )
        .unwrap();
        let kinds: Vec<TransferKind> =
            g.edges().flat_map(|(_, e)| e.transfers.iter().map(|t| t.kind)).collect();
        assert!(kinds.contains(&TransferKind::TwoD));
        assert!(kinds.contains(&TransferKind::OneD));
    }

    #[test]
    fn redefinition_versions_the_dependence() {
        // B uses the first A; C uses the redefined A.
        let g = compile(
            "program p\nmatrix A(8,8), B(8,8), C(8,8)\nA = init()\nB = A + A\nA = init()\nC = A + A\n",
        )
        .unwrap();
        assert_invariants(&g);
        // Find nodes: first init = node 1; B = 2; second init = 3; C = 4.
        let b_preds: Vec<_> = g.preds(NodeId(2)).collect();
        assert_eq!(b_preds, vec![NodeId(1)]);
        let c_preds: Vec<_> = g.preds(NodeId(4)).collect();
        assert_eq!(c_preds, vec![NodeId(3)]);
    }

    #[test]
    fn two_uses_same_producer_merge_into_one_edge() {
        let g = compile("program p\nmatrix A(8,8), B(8,8)\nA = init()\nB = A + A\n").unwrap();
        let edge =
            g.edges().find(|(_, e)| !e.transfers.is_empty()).map(|(_, e)| e.clone()).unwrap();
        assert_eq!(edge.transfers.len(), 2, "both uses carried on one edge");
    }

    #[test]
    fn self_update_depends_on_previous_definition() {
        let g = compile("program p\nmatrix A(8,8), B(8,8)\nA = init()\nB = init()\nA = A + B\n")
            .unwrap();
        // The update (node 3) depends on both inits.
        let preds: Vec<_> = g.preds(NodeId(3)).collect();
        assert!(preds.contains(&NodeId(1)));
        assert!(preds.contains(&NodeId(2)));
    }

    #[test]
    fn use_before_def_rejected() {
        let e = compile("program p\nmatrix A(8,8), B(8,8)\nB = A + A\n").unwrap_err();
        assert!(e.message.contains("before it is defined"));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn undeclared_matrix_rejected() {
        let e = compile("program p\nmatrix A(8,8)\nA = init()\nB = A + A\n").unwrap_err();
        assert!(e.message.contains("not declared"));
    }

    #[test]
    fn mul_shape_mismatch_rejected() {
        let e = compile(
            "program p\nmatrix A(4,8), B(4,8), C(4,8)\nA = init()\nB = init()\nC = A * B\n",
        )
        .unwrap_err();
        assert!(e.message.contains("inner dimensions"), "{e}");
    }

    #[test]
    fn transpose_fixes_mul_shape() {
        // A(4x8) * B'(8x4): valid with transpose, target 4x4.
        let g = compile(
            "program p\nmatrix A(4,8), B(4,8), C(4,4)\nA = init()\nB = init()\nC = A * B'\n",
        )
        .unwrap();
        assert_eq!(g.compute_node_count(), 3);
    }

    #[test]
    fn add_shape_mismatch_rejected() {
        let e = compile(
            "program p\nmatrix A(4,8), B(8,4), C(4,8)\nA = init()\nB = init()\nC = A + B\n",
        )
        .unwrap_err();
        assert!(e.message.contains("elementwise"));
    }

    #[test]
    fn copy_and_transpose_nodes_get_custom_classes() {
        let g = compile("program p\nmatrix A(8,4), B(4,8), C(8,4)\nA = init()\nB = A'\nC = B'\n")
            .unwrap();
        let classes: Vec<String> = g
            .nodes()
            .filter(|(_, n)| n.kind == NodeKind::Compute)
            .map(|(_, n)| format!("{:?}", n.meta.class))
            .collect();
        assert!(classes.iter().filter(|c| c.contains("transpose")).count() == 2);
    }
}
