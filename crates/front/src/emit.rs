//! Pretty-printer: [`Program`] → canonical source text. Together with
//! the parser this gives a full round trip, so programs can be
//! programmatically constructed, normalized, and diffed.

use crate::ast::Program;
use std::fmt::Write as _;

/// Render a program in canonical form: header, one `matrix` line per
/// declaration, a blank line, then the statements.
pub fn emit(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", program.name);
    for d in &program.decls {
        let _ = writeln!(out, "matrix {}({}, {})", d.name, d.rows, d.cols);
    }
    out.push('\n');
    for s in &program.stmts {
        let _ = writeln!(out, "{}", s.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = "\
program demo
matrix A(4,8), B(8,4), C(4,4)   # trailing comment
A = init()
B = A'
C = A * B
C = C - C
";

    fn strip_lines(p: &Program) -> Program {
        let mut q = p.clone();
        for d in &mut q.decls {
            d.line = 0;
        }
        for s in &mut q.stmts {
            s.line = 0;
        }
        q
    }

    #[test]
    fn emit_parse_roundtrip() {
        let p1 = parse(SRC).unwrap();
        let text = emit(&p1);
        let p2 = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(strip_lines(&p1), strip_lines(&p2));
    }

    #[test]
    fn normalize_is_idempotent() {
        let once = emit(&parse(SRC).unwrap());
        let twice = emit(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn emit_renders_all_statement_forms() {
        let text = emit(&parse(SRC).unwrap());
        assert!(text.contains("A = init()"));
        assert!(text.contains("B = A'"));
        assert!(text.contains("C = A * B"));
        assert!(text.contains("C = C - C"));
        assert!(text.contains("matrix A(4, 8)"));
    }
}
