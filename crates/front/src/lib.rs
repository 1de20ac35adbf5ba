//! # paradigm-front — a matrix-program front-end for MDG extraction
//!
//! The paper's Section 1.2 lists five pipeline steps; for Step 1 —
//! "Identification of the nodes and edges to be used in the MDG
//! representation of the given program" — the authors write *"We do not
//! have any methods developed yet for this step"* and point at
//! Girkar–Polychronopoulos. This crate is that missing front end, for a
//! deliberately small language of whole-matrix statements:
//!
//! ```text
//! program cmm
//! matrix Ar(64,64), Ai(64,64), Br(64,64), Bi(64,64)
//!
//! Ar = init()
//! Ai = init()
//! Br = init()
//! Bi = init()
//! M1 = Ar * Br
//! M2 = Ai * Bi
//! M3 = Ar * Bi
//! M4 = Ai * Br
//! Cr = M1 - M2
//! Ci = M3 + M4
//! ```
//!
//! Each statement becomes one MDG node (its loop class inferred from the
//! operator); precedence edges come from def-use analysis (every operand
//! use depends on the *last* definition of that matrix); array transfers
//! carry the operand's size; a transposed use (`B'`) flips the
//! distribution dimension and therefore produces a **2D** transfer,
//! everything else is 1D. Shapes are checked against the declarations.
//!
//! `compile_source` is the one-call API: source text in, finished
//! [`paradigm_mdg::Mdg`] out. The test-suite proves the front end
//! faithful by compiling the paper's Complex-Matrix-Multiply program and
//! checking it against the hand-built `complex_matmul_mdg` node for
//! node.

pub mod ast;
pub mod emit;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{BinOp, Expr, MatrixDecl, Operand, Program, Stmt};
pub use emit::emit;
pub use interp::{interpret, interpret_distributed};
pub use lexer::{tokenize, Token, TokenKind};
pub use lower::{lower, LowerError};
pub use parser::{parse, FrontError};

/// Parse and lower in one step.
pub fn compile_source(
    source: &str,
    costs: &paradigm_mdg::KernelCostTable,
) -> Result<paradigm_mdg::Mdg, FrontError> {
    let program = parse(source)?;
    lower(&program, costs).map_err(FrontError::from)
}
