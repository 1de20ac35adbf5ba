//! Graphviz DOT export and an ASCII adjacency rendering of MDGs.
//!
//! Used by the Figure-6 reproduction driver (`paradigm_core::experiments::fig6_mdgs`)
//! so that the two test-program graphs can be inspected visually.

use crate::graph::Mdg;
use crate::node::NodeKind;
use std::fmt::Write as _;

/// Escape a string for use inside a double-quoted DOT id or label:
/// backslashes and quotes are backslash-escaped, and literal newlines
/// become DOT's `\n` line breaks (front-end generated names can contain
/// both, which would otherwise produce invalid DOT).
pub fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => {}
            c => out.push(c),
        }
    }
    out
}

/// Render the MDG in Graphviz DOT syntax. Node labels carry the loop name
/// and its Amdahl parameters; edge labels carry the transfer volume.
pub fn to_dot(g: &Mdg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", dot_escape(g.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for (id, n) in g.nodes() {
        let (shape, label) = match n.kind {
            NodeKind::Start => ("ellipse", "START".to_string()),
            NodeKind::Stop => ("ellipse", "STOP".to_string()),
            NodeKind::Compute => (
                "box",
                format!(
                    "{}\\n(alpha={:.3}, tau={:.4}s)",
                    dot_escape(&n.name),
                    n.cost.alpha,
                    n.cost.tau
                ),
            ),
        };
        let _ = writeln!(out, "  {} [shape={shape}, label=\"{label}\"];", id.0);
    }
    for (_, e) in g.edges() {
        if e.transfers.is_empty() {
            let _ = writeln!(out, "  {} -> {} [style=dashed];", e.src, e.dst);
        } else {
            let kinds: Vec<&str> = e
                .transfers
                .iter()
                .map(|t| match t.kind {
                    crate::node::TransferKind::OneD => "1D",
                    crate::node::TransferKind::TwoD => "2D",
                })
                .collect();
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}B {}\"];",
                e.src,
                e.dst,
                e.total_bytes(),
                kinds.join(",")
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render a plain-text adjacency listing, one line per node:
/// `n3 [M1 = Ar*Br]  <- n1, n2   -> n7`.
pub fn to_ascii(g: &Mdg) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "MDG `{}` ({} nodes, {} edges)", g.name(), g.node_count(), g.edge_count());
    for (id, n) in g.nodes() {
        let preds: Vec<String> = g.preds(id).map(|p| p.to_string()).collect();
        let succs: Vec<String> = g.succs(id).map(|s| s.to_string()).collect();
        let _ = writeln!(
            out,
            "  {:<4} [{}]  <- [{}]  -> [{}]",
            id.to_string(),
            n.name,
            preds.join(", "),
            succs.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MdgBuilder;
    use crate::node::{AmdahlParams, ArrayTransfer, TransferKind};

    fn small() -> Mdg {
        let mut b = MdgBuilder::new("dot-test");
        let x = b.compute("x", AmdahlParams::new(0.05, 1.5));
        let y = b.compute("y", AmdahlParams::new(0.05, 2.5));
        b.edge(x, y, vec![ArrayTransfer::new(4096, TransferKind::TwoD)]);
        b.finish().unwrap()
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = small();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph \"dot-test\""));
        assert!(dot.contains("START"));
        assert!(dot.contains("STOP"));
        assert!(dot.contains("alpha=0.050"));
        assert!(dot.contains("4096B 2D"));
        // One line per node and per edge at minimum.
        assert!(dot.lines().count() >= g.node_count() + g.edge_count());
    }

    #[test]
    fn dot_marks_pure_precedence_edges_dashed() {
        let g = small();
        let dot = to_dot(&g);
        assert!(dot.contains("style=dashed"), "START/STOP wiring edges should be dashed");
    }

    #[test]
    fn hostile_names_are_escaped() {
        let mut b = MdgBuilder::new("evil \"graph\"\nname");
        let x = b.compute("say \"hi\"\nback\\slash", AmdahlParams::new(0.1, 1.0));
        let y = b.compute("ok", AmdahlParams::new(0.1, 1.0));
        b.edge(x, y, vec![]);
        let g = b.finish().unwrap();
        let dot = to_dot(&g);
        // Every double quote inside an id/label is escaped: strip the
        // escaped forms and no stray quote may remain inside a label.
        assert!(dot.contains("digraph \"evil \\\"graph\\\"\\nname\""));
        assert!(dot.contains("say \\\"hi\\\"\\nback\\\\slash\\n(alpha="));
        // Balanced quotes per line (escaped ones excluded) — a literal
        // newline or stray quote in a label would break this.
        for line in dot.lines() {
            let unescaped = line.replace("\\\\", "").replace("\\\"", "").matches('"').count();
            assert_eq!(unescaped % 2, 0, "unbalanced quotes in {line:?}");
        }
    }

    #[test]
    fn plain_names_pass_through_unchanged() {
        assert_eq!(dot_escape("M1 = Ar*Br"), "M1 = Ar*Br");
        assert_eq!(dot_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn ascii_lists_every_node() {
        let g = small();
        let txt = to_ascii(&g);
        for (_, n) in g.nodes() {
            assert!(txt.contains(&format!("[{}]", n.name)));
        }
    }
}
