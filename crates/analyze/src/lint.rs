//! A pluggable lint framework for Macro Dataflow Graphs.
//!
//! MDGs reach the pipeline from several producers — the hand-written
//! builders, the `.mdg` text parser, the mini-language front end, graph
//! transforms — and every one of them goes through `MdgBuilder::finish`,
//! which owns the graph's validity: it rejects cycles, self-loops,
//! dangling and duplicate edges, wires START/STOP with transfer-free
//! edges, and refuses any node whose Amdahl parameters leave `alpha` in
//! `[0, 1]`, `0 <= tau < inf`. No lint re-checks any of that. What is
//! left is *suspicious* metadata on a valid graph — zero-cost nodes,
//! transfers that disagree with their producer's loop dims, lonely
//! nodes. Each [`Lint`] inspects one such property and emits
//! [`Diagnostic`]s with a severity, a node/edge location, and a fix
//! hint; [`render_diagnostics`] prints them compiler-style.
//!
//! [`lint_mdg`] runs the built-in lints; callers can add their own by
//! implementing [`Lint`] and pushing it onto a [`LintSet`].
//!
//! Some diagnostics carry a machine-applicable [`Fix`];
//! [`apply_fixes`] rebuilds the graph with every attached fix applied
//! (dropped zero-byte transfers, derived loop dims), which backs the
//! CLI's `analyze --fix` mode.

use paradigm_mdg::graph::builder_id_to_mdg;
use paradigm_mdg::{EdgeId, Mdg, MdgBuilder, NodeId, NodeKind, TransferKind};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth a look, harmless to the pipeline.
    Note,
    /// Suspicious: likely a modelling mistake, pipeline still sound.
    Warning,
    /// Broken: the cost model or solver will misbehave on this graph.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What part of the graph a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLocation {
    /// The graph as a whole.
    Graph,
    /// One node.
    Node(NodeId),
    /// One edge.
    Edge(EdgeId),
}

/// A machine-applicable repair for one diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum Fix {
    /// Remove zero-byte array transfers from an edge.
    DropEmptyTransfers {
        /// The edge to clean.
        edge: EdgeId,
    },
    /// Fill a placeholder (0x0) loop descriptor with dimensions derived
    /// from the node's largest incident transfer.
    DeriveLoopDims {
        /// The node to repair.
        node: NodeId,
        /// Derived row count.
        rows: usize,
        /// Derived column count.
        cols: usize,
    },
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fix::DropEmptyTransfers { edge } => {
                write!(f, "drop zero-byte transfers from edge e{}", edge.0)
            }
            Fix::DeriveLoopDims { node, rows, cols } => {
                write!(f, "derive {rows}x{cols} loop dims for node {node} from its transfers")
            }
        }
    }
}

/// One finding from one lint.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The lint's kebab-case name (stable, greppable).
    pub lint: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it is.
    pub location: LintLocation,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the lint knows.
    pub hint: Option<String>,
    /// A mechanical repair, when one exists ([`apply_fixes`]).
    pub fix: Option<Fix>,
}

/// A single diagnostic pass over an MDG.
pub trait Lint {
    /// Stable kebab-case name, used in rendered output (`error[name]`).
    fn name(&self) -> &'static str;
    /// Inspect `g` and append findings to `out`.
    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of lints run as one pass.
#[derive(Default)]
pub struct LintSet {
    lints: Vec<Box<dyn Lint>>,
}

impl LintSet {
    /// The built-in lints, in severity-descending order of importance.
    fn default_set() -> Self {
        LintSet {
            lints: vec![
                Box::new(RedistributionMismatch),
                Box::new(LoopMetadata),
                Box::new(TransferShape),
                Box::new(EdgeUnitSanity),
                Box::new(ZeroTau),
                Box::new(IsolatedNode),
            ],
        }
    }

    /// Add a custom lint.
    pub fn with(mut self, lint: Box<dyn Lint>) -> Self {
        self.lints.push(lint);
        self
    }

    /// Names of the registered lints, in run order.
    pub fn names(&self) -> Vec<&'static str> {
        self.lints.iter().map(|l| l.name()).collect()
    }

    /// Run every lint over `g`.
    pub fn run(&self, g: &Mdg) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for l in &self.lints {
            l.check(g, &mut out);
        }
        out
    }
}

/// Run the default lint set over a graph.
pub fn lint_mdg(g: &Mdg) -> Vec<Diagnostic> {
    LintSet::default_set().run(g)
}

/// True when any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render diagnostics compiler-style:
///
/// ```text
/// warning[zero-tau]: compute node has zero sequential time
///   --> `cmm`, node n3 (M1 = Ar*Br)
///   help: measure the loop or fold the node into a neighbour
/// ```
pub fn render_diagnostics(g: &Mdg, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}[{}]: {}\n", d.severity, d.lint, d.message));
        match d.location {
            LintLocation::Graph => {
                out.push_str(&format!("  --> `{}`\n", g.name()));
            }
            LintLocation::Node(id) => {
                out.push_str(&format!("  --> `{}`, node {id} ({})\n", g.name(), g.node(id).name));
            }
            LintLocation::Edge(eid) => {
                let e = g.edge(eid);
                out.push_str(&format!("  --> `{}`, edge n{} -> n{}\n", g.name(), e.src, e.dst));
            }
        }
        if let Some(h) = &d.hint {
            out.push_str(&format!("  help: {h}\n"));
        }
        if let Some(fx) = &d.fix {
            out.push_str(&format!("  fix: {fx} (mechanical; apply with --fix)\n"));
        }
    }
    if !diags.is_empty() {
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let warns = diags.iter().filter(|d| d.severity == Severity::Warning).count();
        out.push_str(&format!(
            "{} diagnostic(s): {} error(s), {} warning(s)\n",
            diags.len(),
            errors,
            warns
        ));
    }
    out
}

/// A transfer claims more bytes than the producing node's declared
/// matrix holds — the redistribution shape and the kernel metadata
/// disagree.
struct RedistributionMismatch;

impl Lint for RedistributionMismatch {
    fn name(&self) -> &'static str {
        "redistribution-mismatch"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        for (eid, e) in g.edges() {
            let src = g.node(NodeId(e.src));
            // Allow up to 16 bytes per element (complex double, the
            // widest element the kernels move) before calling a shape
            // mismatch, so complex-valued producers don't false-alarm.
            let declared = (src.meta.rows * src.meta.cols) as u64 * 16;
            if declared == 0 {
                continue; // synthetic metadata: nothing to check against
            }
            for t in &e.transfers {
                if t.bytes > declared {
                    out.push(Diagnostic {
                        lint: self.name(),
                        severity: Severity::Warning,
                        location: LintLocation::Edge(eid),
                        message: format!(
                            "transfer of {} bytes exceeds the {}x{} matrix ({declared} bytes at 16 B/element) its producer declares",
                            t.bytes, src.meta.rows, src.meta.cols
                        ),
                        hint: Some(
                            "check the ArrayTransfer size against the producer's LoopMeta"
                                .to_string(),
                        ),
                        fix: None,
                    });
                }
            }
        }
    }
}

/// Compute node with `tau == 0`: it costs nothing under any allocation,
/// so it is either a placeholder or a missing measurement.
struct ZeroTau;

impl Lint for ZeroTau {
    fn name(&self) -> &'static str {
        "zero-tau"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        for (id, node) in g.nodes() {
            if node.kind == NodeKind::Compute && node.cost.tau == 0.0 {
                out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Warning,
                    location: LintLocation::Node(id),
                    message: "compute node has zero sequential time".to_string(),
                    hint: Some("measure the loop, or fuse the node into a neighbour".to_string()),
                    fix: None,
                });
            }
        }
    }
}

/// Compute node whose only neighbours are START and STOP: it takes part
/// in no dataflow, which is legal but usually means a lost edge.
struct IsolatedNode;

impl Lint for IsolatedNode {
    fn name(&self) -> &'static str {
        "isolated-node"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        for (id, node) in g.nodes() {
            if node.is_structural() {
                continue;
            }
            let lonely = g.preds(id).all(|p| g.node(p).is_structural())
                && g.succs(id).all(|s| g.node(s).is_structural());
            // A single-node graph is legitimately lonely.
            if lonely && g.compute_node_count() > 1 {
                out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Note,
                    location: LintLocation::Node(id),
                    message: "compute node exchanges no data with any other compute node"
                        .to_string(),
                    hint: None,
                    fix: None,
                });
            }
        }
    }
}

/// Compute node with placeholder loop metadata (`0x0` dims) in a graph
/// where other compute nodes carry real dimensions. The
/// `redistribution-mismatch` lint silently skips such nodes (there is
/// nothing to check a transfer against), so one unmeasured node pokes a
/// hole in the shape checking of every edge it touches. Fully synthetic
/// graphs — the random gallery, hand-sketched examples where *no* node
/// declares dimensions — are exempt: placeholders are the convention
/// there, not an omission.
///
/// When every transfer incident to the node moves a whole square f64
/// matrix, the dims are mechanically derivable from the largest one
/// (`bytes/8 = n²`), and the diagnostic carries a
/// [`Fix::DeriveLoopDims`].
struct LoopMetadata;

impl Lint for LoopMetadata {
    fn name(&self) -> &'static str {
        "loop-metadata"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        let any_real = g
            .nodes()
            .any(|(_, n)| n.kind == NodeKind::Compute && n.meta.rows > 0 && n.meta.cols > 0);
        if !any_real {
            return;
        }
        for (id, node) in g.nodes() {
            if node.kind != NodeKind::Compute || (node.meta.rows > 0 && node.meta.cols > 0) {
                continue;
            }
            let derived = derive_square_dims(g, id);
            let fix = derived.map(|n| Fix::DeriveLoopDims { node: id, rows: n, cols: n });
            let hint = match derived {
                Some(n) => format!(
                    "its largest transfer moves {} bytes = a {n}x{n} f64 matrix; \
                     --fix fills the dims from it",
                    (n * n * 8)
                ),
                None => "declare the loop dimensions via LoopMeta (compute_with_meta)".to_string(),
            };
            out.push(Diagnostic {
                lint: self.name(),
                severity: Severity::Warning,
                location: LintLocation::Node(id),
                message: format!(
                    "compute node has placeholder loop metadata ({}x{}) while other nodes \
                     declare real dimensions",
                    node.meta.rows, node.meta.cols
                ),
                hint: Some(hint),
                fix,
            });
        }
    }
}

/// Derive square `n x n` loop dims for a node with placeholder metadata
/// from the largest transfer incident to it, when that transfer moves a
/// whole square f64 matrix (`bytes / 8 = n²`). Shared by `loop-metadata`
/// and the resource analyzer's `missing-footprint` lint so both propose
/// the same [`Fix::DeriveLoopDims`].
pub(crate) fn derive_square_dims(g: &Mdg, id: NodeId) -> Option<usize> {
    let mut best: u64 = 0;
    for (_, e) in g.edges() {
        if e.src == id.0 || e.dst == id.0 {
            for t in &e.transfers {
                best = best.max(t.bytes);
            }
        }
    }
    if best > 0 && best.is_multiple_of(8) {
        let elems = best / 8;
        let n = (elems as f64).sqrt().round() as u64;
        (n > 0 && n * n == elems).then_some(n as usize)
    } else {
        None
    }
}

/// Contradictory redistribution shapes per Eq. (2)/(3): the same array
/// (identified by byte count) claimed both as a 1D ROW2ROW/COL2COL
/// move and as a 2D ROW2COL/COL2ROW move on one edge. The two formulas
/// price the transfer differently, so one of the claims is wrong.
struct TransferShape;

impl Lint for TransferShape {
    fn name(&self) -> &'static str {
        "transfer-shape"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        for (eid, e) in g.edges() {
            let mut one_d: Vec<u64> = Vec::new();
            let mut two_d: Vec<u64> = Vec::new();
            for t in &e.transfers {
                match t.kind {
                    TransferKind::OneD => one_d.push(t.bytes),
                    TransferKind::TwoD => two_d.push(t.bytes),
                }
            }
            for b in &one_d {
                if two_d.contains(b) {
                    out.push(Diagnostic {
                        lint: self.name(),
                        severity: Severity::Warning,
                        location: LintLocation::Edge(eid),
                        message: format!(
                            "an array of {b} bytes is claimed both as a 1D (Eq. 2) and a \
                             2D (Eq. 3) redistribution on the same edge"
                        ),
                        hint: Some(
                            "pick the kind matching the producer/consumer distributions"
                                .to_string(),
                        ),
                        fix: None,
                    });
                    break; // one report per edge is enough
                }
            }
        }
    }
}

/// Unit sanity for edge weights: zero-byte transfers (a no-op that
/// still pays the per-message start-up cost in Eq. (2)/(3)) and byte
/// counts that are not whole f64 elements.
struct EdgeUnitSanity;

impl Lint for EdgeUnitSanity {
    fn name(&self) -> &'static str {
        "edge-unit-sanity"
    }

    fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
        for (eid, e) in g.edges() {
            if e.transfers.iter().any(|t| t.bytes == 0) {
                out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Warning,
                    location: LintLocation::Edge(eid),
                    message: "edge carries a zero-byte array transfer".to_string(),
                    hint: Some(
                        "an empty transfer still pays message start-up cost; drop it or \
                         use a pure precedence edge"
                            .to_string(),
                    ),
                    fix: Some(Fix::DropEmptyTransfers { edge: eid }),
                });
            }
            for t in &e.transfers {
                if t.bytes > 0 && t.bytes % 8 != 0 {
                    out.push(Diagnostic {
                        lint: self.name(),
                        severity: Severity::Note,
                        location: LintLocation::Edge(eid),
                        message: format!(
                            "transfer of {} bytes is not a whole number of f64 elements",
                            t.bytes
                        ),
                        hint: None,
                        fix: None,
                    });
                }
            }
        }
    }
}

/// Rebuild `g` with every [`Fix`] attached to `diags` applied, and
/// return it with the list of fixes actually applied (deduplicated, in
/// diagnostic order). With no applicable fixes the graph is returned
/// unchanged.
///
/// The rebuild goes through [`MdgBuilder`], so the repaired graph
/// re-earns the structural invariants; compute nodes keep their ids
/// (builder ids shift by one for START, exactly undoing the original
/// construction).
pub fn apply_fixes(g: &Mdg, diags: &[Diagnostic]) -> (Mdg, Vec<Fix>) {
    let mut applied: Vec<Fix> = Vec::new();
    for d in diags {
        if let Some(fx) = &d.fix {
            if !applied.contains(fx) {
                applied.push(fx.clone());
            }
        }
    }
    if applied.is_empty() {
        return (g.clone(), applied);
    }

    let mut b = MdgBuilder::new(g.name());
    for (id, node) in g.nodes() {
        if node.is_structural() {
            continue;
        }
        let mut meta = node.meta.clone();
        for fx in &applied {
            if let Fix::DeriveLoopDims { node: n, rows, cols } = *fx {
                if n == id {
                    meta.rows = rows;
                    meta.cols = cols;
                }
            }
        }
        let bid = b.compute_with_meta(node.name.clone(), node.cost, meta);
        debug_assert_eq!(builder_id_to_mdg(bid), id, "rebuild must preserve node ids");
    }
    for (eid, e) in g.edges() {
        let src = NodeId(e.src);
        let dst = NodeId(e.dst);
        if g.node(src).is_structural() || g.node(dst).is_structural() {
            // finish() re-wires START/STOP.
            continue;
        }
        let drop_empty =
            applied.iter().any(|fx| matches!(fx, Fix::DropEmptyTransfers { edge } if *edge == eid));
        let transfers =
            e.transfers.iter().filter(|t| !(drop_empty && t.bytes == 0)).cloned().collect();
        b.edge(NodeId(src.0 - 1), NodeId(dst.0 - 1), transfers);
    }
    let fixed = b.finish().expect("rebuilding a valid graph with its own costs cannot fail");
    (fixed, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{
        complex_matmul_mdg, example_fig1_mdg, AmdahlParams, ArrayTransfer, KernelCostTable,
        LoopClass, LoopMeta, MdgBuilder, TransferKind,
    };

    #[test]
    fn clean_graphs_produce_no_diagnostics() {
        for g in [example_fig1_mdg(), complex_matmul_mdg(64, &KernelCostTable::cm5())] {
            let diags = lint_mdg(&g);
            assert!(diags.is_empty(), "{}", render_diagnostics(&g, &diags));
        }
    }

    #[test]
    fn zero_tau_is_a_warning_not_error() {
        let mut b = MdgBuilder::new("zero");
        b.compute("empty", AmdahlParams::new(0.0, 0.0));
        b.compute("real", AmdahlParams::new(0.1, 1.0));
        let g = b.finish().unwrap();
        let diags = lint_mdg(&g);
        assert!(!has_errors(&diags));
        assert!(diags.iter().any(|d| d.lint == "zero-tau" && d.severity == Severity::Warning));
    }

    #[test]
    fn oversized_transfer_is_flagged() {
        let mut b = MdgBuilder::new("oversized");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 8), // 8x8 f64 = 512 bytes
        );
        let c = b.compute("c", AmdahlParams::new(0.1, 1.0));
        b.edge(a, c, vec![ArrayTransfer::new(4096, TransferKind::OneD)]);
        let g = b.finish().unwrap();
        let diags = lint_mdg(&g);
        let d = diags.iter().find(|d| d.lint == "redistribution-mismatch").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(matches!(d.location, LintLocation::Edge(_)));
        assert!(d.message.contains("4096"));
    }

    #[test]
    fn isolated_node_is_a_note() {
        let mut b = MdgBuilder::new("island");
        let a = b.compute("a", AmdahlParams::new(0.1, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.1, 1.0));
        b.edge(a, c, vec![]);
        b.compute("loner", AmdahlParams::new(0.1, 1.0));
        let g = b.finish().unwrap();
        let diags = lint_mdg(&g);
        let d = diags.iter().find(|d| d.lint == "isolated-node").unwrap();
        assert_eq!(d.severity, Severity::Note);
    }

    #[test]
    fn single_node_graph_is_not_isolated() {
        let mut b = MdgBuilder::new("solo");
        b.compute("only", AmdahlParams::new(0.1, 1.0));
        let g = b.finish().unwrap();
        assert!(lint_mdg(&g).iter().all(|d| d.lint != "isolated-node"));
    }

    #[test]
    fn custom_lints_compose() {
        struct NameLint;
        impl Lint for NameLint {
            fn name(&self) -> &'static str {
                "graph-name"
            }
            fn check(&self, g: &Mdg, out: &mut Vec<Diagnostic>) {
                if g.name().is_empty() {
                    out.push(Diagnostic {
                        lint: self.name(),
                        severity: Severity::Note,
                        location: LintLocation::Graph,
                        message: "graph has no name".to_string(),
                        hint: None,
                        fix: None,
                    });
                }
            }
        }
        let set = LintSet::default_set().with(Box::new(NameLint));
        assert!(set.names().contains(&"graph-name"));
        let mut b = MdgBuilder::new("");
        b.compute("x", AmdahlParams::new(0.1, 1.0));
        let g = b.finish().unwrap();
        assert!(set.run(&g).iter().any(|d| d.lint == "graph-name"));
    }

    #[test]
    fn mixed_transfer_kinds_of_one_array_are_flagged() {
        let mut b = MdgBuilder::new("mixed");
        let a = b.compute("a", AmdahlParams::new(0.1, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.1, 1.0));
        b.edge(
            a,
            c,
            vec![
                ArrayTransfer::new(512, TransferKind::OneD),
                ArrayTransfer::new(512, TransferKind::TwoD),
            ],
        );
        let g = b.finish().unwrap();
        let d = lint_mdg(&g).into_iter().find(|d| d.lint == "transfer-shape").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("512"));
    }

    #[test]
    fn same_size_same_kind_transfers_are_fine() {
        // Real + imaginary halves of one matrix: two equal 1D moves.
        let g = complex_matmul_mdg(64, &KernelCostTable::cm5());
        assert!(lint_mdg(&g).iter().all(|d| d.lint != "transfer-shape"));
    }

    #[test]
    fn zero_byte_and_ragged_transfers_are_flagged() {
        let mut b = MdgBuilder::new("units");
        let a = b.compute("a", AmdahlParams::new(0.1, 1.0));
        let c = b.compute("c", AmdahlParams::new(0.1, 1.0));
        b.edge(
            a,
            c,
            vec![
                ArrayTransfer::new(0, TransferKind::OneD),
                ArrayTransfer::new(1234, TransferKind::OneD),
            ],
        );
        let g = b.finish().unwrap();
        let hits: Vec<_> =
            lint_mdg(&g).into_iter().filter(|d| d.lint == "edge-unit-sanity").collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|d| d.severity == Severity::Warning && d.fix.is_some()));
        assert!(hits.iter().any(|d| d.severity == Severity::Note && d.message.contains("1234")));
    }

    #[test]
    fn placeholder_dims_in_mixed_graph_warn_with_derivable_fix() {
        let mut b = MdgBuilder::new("mixed-meta");
        let real = b.compute_with_meta(
            "real",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 8),
        );
        let hole = b.compute("hole", AmdahlParams::new(0.1, 1.0)); // synthetic 0x0
                                                                   // 512 bytes = 64 f64 elements = an 8x8 matrix: derivable.
        b.edge(real, hole, vec![ArrayTransfer::new(512, TransferKind::OneD)]);
        let g = b.finish().unwrap();
        let diags = lint_mdg(&g);
        let d = diags.iter().find(|d| d.lint == "loop-metadata").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(matches!(d.fix, Some(Fix::DeriveLoopDims { rows: 8, cols: 8, .. })), "{:?}", d.fix);

        let (fixed, applied) = apply_fixes(&g, &diags);
        assert_eq!(applied.len(), 1);
        let repaired = fixed.nodes().find(|(_, n)| n.name == "hole").unwrap().1;
        assert_eq!((repaired.meta.rows, repaired.meta.cols), (8, 8));
        assert!(lint_mdg(&fixed).iter().all(|d| d.lint != "loop-metadata"));
    }

    #[test]
    fn underivable_placeholder_dims_warn_without_fix() {
        let mut b = MdgBuilder::new("mixed-odd");
        let real = b.compute_with_meta(
            "real",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 8),
        );
        let hole = b.compute("hole", AmdahlParams::new(0.1, 1.0));
        // 24 bytes = 3 elements: not a square matrix, nothing to derive.
        b.edge(real, hole, vec![ArrayTransfer::new(24, TransferKind::OneD)]);
        let g = b.finish().unwrap();
        let d = lint_mdg(&g).into_iter().find(|d| d.lint == "loop-metadata").unwrap();
        assert!(d.fix.is_none());
        assert!(d.hint.unwrap().contains("LoopMeta"));
    }

    #[test]
    fn fully_synthetic_graphs_are_exempt_from_loop_metadata() {
        // fig1 and the random gallery declare no dims anywhere:
        // placeholders are the convention, not an omission.
        let g = example_fig1_mdg();
        assert!(lint_mdg(&g).iter().all(|d| d.lint != "loop-metadata"));
    }

    #[test]
    fn fully_measured_gallery_graphs_are_loop_metadata_clean() {
        use paradigm_mdg::{block_lu_mdg, fft_2d_mdg, stencil_mdg, strassen_mdg};
        let t = KernelCostTable::cm5();
        for g in [
            complex_matmul_mdg(64, &t),
            strassen_mdg(64, &t),
            fft_2d_mdg(64, 4, &t),
            block_lu_mdg(64, 4, &t),
            stencil_mdg(64, 4, 2, &t),
        ] {
            assert!(
                lint_mdg(&g).iter().all(|d| d.lint != "loop-metadata"),
                "gallery graph `{}` must stay lint-clean",
                g.name()
            );
        }
    }

    #[test]
    fn apply_fixes_repairs_every_fixable_diagnostic() {
        let mut b = MdgBuilder::new("fixable");
        let a = b.compute_with_meta(
            "real",
            AmdahlParams::new(0.1, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 8),
        );
        let c = b.compute("hole", AmdahlParams::new(0.2, 1.0)); // synthetic 0x0
        b.edge(
            a,
            c,
            vec![
                ArrayTransfer::new(0, TransferKind::OneD),
                ArrayTransfer::new(512, TransferKind::OneD),
            ],
        );
        let g = b.finish().unwrap();
        let diags = lint_mdg(&g);
        let fixable = diags.iter().filter(|d| d.fix.is_some()).count();
        assert_eq!(fixable, 2, "{}", render_diagnostics(&g, &diags));

        let (fixed, applied) = apply_fixes(&g, &diags);
        assert_eq!(applied.len(), 2, "{applied:?}");
        assert_eq!(fixed.node_count(), g.node_count());
        let hole = fixed.node(NodeId(2));
        assert_eq!((hole.meta.rows, hole.meta.cols), (8, 8), "dims derived");
        let e = fixed.edges().find(|(_, e)| e.src == 1 && e.dst == 2).unwrap().1;
        assert_eq!(e.transfers.len(), 1, "zero-byte transfer dropped");

        // Nothing fixable is left, and the repair left the costs alone.
        let rediags = lint_mdg(&fixed);
        assert!(
            rediags.iter().all(|d| d.fix.is_none()),
            "{}",
            render_diagnostics(&fixed, &rediags)
        );
        assert_eq!(fixed.node(NodeId(2)).cost, g.node(NodeId(2)).cost);
    }

    #[test]
    fn autofixes_reach_a_fixed_point_in_one_application() {
        // A graph exercising every fixable catalog lint at once: a
        // zero-byte transfer (DropEmptyTransfers) and two 0x0 nodes moving
        // whole square matrices (DeriveLoopDims).
        let mut b = MdgBuilder::new("dirty");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.5, 1.0),
            LoopMeta::square(LoopClass::MatrixInit, 64),
        );
        let c = b.compute("c", AmdahlParams::new(0.2, 1.0));
        let d = b.compute("d", AmdahlParams::new(0.1, 1.0));
        b.edge(
            a,
            c,
            vec![ArrayTransfer::matrix_1d(64, 64), ArrayTransfer::new(0, TransferKind::OneD)],
        );
        b.edge(c, d, vec![ArrayTransfer::matrix_1d(64, 64)]);
        let g = b.finish().unwrap();

        let (fixed, applied) = apply_fixes(&g, &lint_mdg(&g));
        assert_eq!(applied.len(), 3, "expected three fixes, got {applied:?}");

        // One application reaches the fixed point: a second pass finds
        // nothing to fix and changes nothing.
        let (fixed2, applied2) = apply_fixes(&fixed, &lint_mdg(&fixed));
        assert!(applied2.is_empty(), "second pass still wants {applied2:?}");
        assert_eq!(
            paradigm_mdg::to_text(&fixed),
            paradigm_mdg::to_text(&fixed2),
            "second application must be a no-op"
        );

        // And the fixed point survives the text round-trip — this is
        // `--fix --write` twice producing an empty diff: the derived
        // dims must serialize, or the reloaded file re-fires the lint.
        let reloaded = paradigm_mdg::from_text(&paradigm_mdg::to_text(&fixed)).unwrap();
        let (fixed3, applied3) = apply_fixes(&reloaded, &lint_mdg(&reloaded));
        assert!(applied3.is_empty(), "text round-trip resurrects fixes: {applied3:?}");
        assert_eq!(paradigm_mdg::to_text(&reloaded), paradigm_mdg::to_text(&fixed3));
    }

    #[test]
    fn apply_fixes_is_identity_on_clean_graphs() {
        let g = example_fig1_mdg();
        let diags = lint_mdg(&g);
        let (fixed, applied) = apply_fixes(&g, &diags);
        assert!(applied.is_empty());
        assert_eq!(paradigm_mdg::to_text(&fixed), paradigm_mdg::to_text(&g));
    }

    #[test]
    fn rendering_is_compiler_style() {
        let mut b = MdgBuilder::new("r");
        b.compute("idle", AmdahlParams::new(0.5, 0.0));
        let g = b.finish().unwrap();
        let diags = lint_mdg(&g);
        let txt = render_diagnostics(&g, &diags);
        assert!(txt.contains("warning[zero-tau]"), "{txt}");
        assert!(txt.contains("--> `r`, node n1 (idle)"), "{txt}");
        assert!(txt.contains("help:"), "{txt}");
        assert!(txt.contains("0 error(s), 1 warning(s)"), "{txt}");
        assert!(render_diagnostics(&g, &[]).is_empty());
    }
}
