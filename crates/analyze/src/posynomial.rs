//! Symbolic posynomial certification of solver expression trees.
//!
//! The paper's whole correctness argument (Section 2) rests on one claim:
//! after the substitution `x_i = ln p_i`, the objective
//! `Phi = max(A_p, C_p)` is convex because every component is a
//! *generalized posynomial* — built from monomials `c · Π p_j^{a_j}`
//! (`c ≥ 0`) by sums and pointwise maxima, all of which preserve
//! log-convexity. The solver encodes that structure in
//! [`paradigm_solver::Expr`], but the enum's public constructors cannot
//! stop a malformed tree (negative coefficient, NaN exponent, a variable
//! index past the graph) from being built by hand or by a buggy lowering.
//!
//! This module *proves or refutes* the claim structurally: [`certify`]
//! walks an expression and either returns a [`Certificate`] — a
//! derivation tree naming the closure rule applied at every level — or
//! the **minimal counterexample**: the child-index path from the root to
//! the first subexpression violating the grammar, plus the reason.
//! [`certify_objective`] extends this to a full [`MdgObjective`]
//! compositionally: it certifies `A_p`, every `T_i`, and every `t^D`
//! separately, and derives the generalized-posynomiality of `Phi`
//! through the `y_i = max_m(y_m + t^D_mi) + T_i` recurrence (sums and
//! maxima of certified expressions, by induction over the topological
//! order) — avoiding the exponentially large expanded tree a dense DAG
//! would otherwise require.

use paradigm_mdg::{EdgeId, NodeId};
use paradigm_solver::expr::{Expr, Monomial};
use paradigm_solver::MdgObjective;
use std::fmt;

/// Where an expression sits in the posynomial hierarchy. Ordered by
/// inclusion: every monomial is a posynomial, every posynomial is a
/// generalized posynomial, and all three are convex in `x = ln p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExprClass {
    /// A single `c · Π p_j^{a_j}` with `c ≥ 0`.
    Monomial,
    /// A sum of monomials.
    Posynomial,
    /// Closed under pointwise `max` as well as `+`.
    GeneralizedPosynomial,
}

impl fmt::Display for ExprClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprClass::Monomial => write!(f, "monomial"),
            ExprClass::Posynomial => write!(f, "posynomial"),
            ExprClass::GeneralizedPosynomial => write!(f, "generalized-posynomial"),
        }
    }
}

/// The closure rule applied at one node of a derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Leaf: a well-formed monomial (`c ≥ 0` finite, finite exponents,
    /// distinct in-range variables).
    MonomialLeaf,
    /// Posynomials (and generalized posynomials) are closed under `+`.
    SumClosure,
    /// Generalized posynomials are closed under pointwise `max`.
    MaxClosure,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::MonomialLeaf => write!(f, "monomial-leaf"),
            Rule::SumClosure => write!(f, "sum-closure"),
            Rule::MaxClosure => write!(f, "max-closure"),
        }
    }
}

/// A convexity certificate: the derivation tree showing how the
/// expression is assembled from monomial leaves by the closure rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The certified class of this subtree.
    pub class: ExprClass,
    /// The rule applied at the root of this subtree.
    pub rule: Rule,
    /// Sub-derivations (empty for leaves).
    pub children: Vec<Certificate>,
}

impl Certificate {
    /// Number of monomial leaves under this derivation.
    pub fn monomial_count(&self) -> usize {
        if self.children.is_empty() {
            1
        } else {
            self.children.iter().map(Certificate::monomial_count).sum()
        }
    }

    /// Depth of the derivation tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Certificate::depth).max().unwrap_or(0)
    }

    /// Render the derivation as an indented tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if self.children.is_empty() {
            out.push_str(&format!("{} [{}]\n", self.class, self.rule));
        } else {
            out.push_str(&format!(
                "{} [{} over {} branches]\n",
                self.class,
                self.rule,
                self.children.len()
            ));
            for c in &self.children {
                c.render_into(out, depth + 1);
            }
        }
    }
}

/// Why a subexpression is not a (generalized) posynomial.
#[derive(Debug, Clone, PartialEq)]
pub enum Defect {
    /// `c < 0`: the term is not log-convex (it is concave in at least
    /// one direction).
    NegativeCoefficient(f64),
    /// `c` is NaN or infinite.
    NonFiniteCoefficient(f64),
    /// An exponent is NaN or infinite.
    NonFiniteExponent {
        /// The variable carrying the bad exponent.
        var: usize,
        /// The offending exponent.
        exp: f64,
    },
    /// The same variable appears twice in one monomial (violates the
    /// constructor contract; evaluation and gradients disagree on it).
    DuplicateVariable {
        /// The repeated variable index.
        var: usize,
    },
    /// A variable index is out of range for the objective's graph.
    VariableOutOfRange {
        /// The offending variable index.
        var: usize,
        /// Number of variables the objective has.
        limit: usize,
    },
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::NegativeCoefficient(c) => write!(f, "negative coefficient {c}"),
            Defect::NonFiniteCoefficient(c) => write!(f, "non-finite coefficient {c}"),
            Defect::NonFiniteExponent { var, exp } => {
                write!(f, "non-finite exponent {exp} on p{var}")
            }
            Defect::DuplicateVariable { var } => {
                write!(f, "variable p{var} appears twice in one monomial")
            }
            Defect::VariableOutOfRange { var, limit } => {
                write!(f, "variable p{var} out of range (objective has {limit} variables)")
            }
        }
    }
}

/// A minimal counterexample: the path from the root to the first
/// offending subexpression, and what is wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub struct NonPosynomial {
    /// Child indices from the root (`[]` means the root itself).
    pub path: Vec<usize>,
    /// What the grammar violation is.
    pub defect: Defect,
}

impl fmt::Display for NonPosynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "root")?;
        for i in &self.path {
            write!(f, ".{i}")?;
        }
        write!(f, ": {}", self.defect)
    }
}

pub(crate) fn check_monomial(m: &Monomial, num_vars: Option<usize>) -> Result<(), Defect> {
    if !m.coeff.is_finite() {
        return Err(Defect::NonFiniteCoefficient(m.coeff));
    }
    if m.coeff < 0.0 {
        return Err(Defect::NegativeCoefficient(m.coeff));
    }
    for (k, &(var, exp)) in m.exps.iter().enumerate() {
        if !exp.is_finite() {
            return Err(Defect::NonFiniteExponent { var, exp });
        }
        if m.exps[..k].iter().any(|&(v, _)| v == var) {
            return Err(Defect::DuplicateVariable { var });
        }
        if let Some(limit) = num_vars {
            if var >= limit {
                return Err(Defect::VariableOutOfRange { var, limit });
            }
        }
    }
    Ok(())
}

fn certify_at(
    e: &Expr,
    num_vars: Option<usize>,
    path: &mut Vec<usize>,
) -> Result<Certificate, NonPosynomial> {
    match e {
        Expr::Mono(m) => match check_monomial(m, num_vars) {
            Ok(()) => Ok(Certificate {
                class: ExprClass::Monomial,
                rule: Rule::MonomialLeaf,
                children: Vec::new(),
            }),
            Err(defect) => Err(NonPosynomial { path: path.clone(), defect }),
        },
        Expr::Sum(terms) => {
            let mut children = Vec::with_capacity(terms.len());
            for (i, t) in terms.iter().enumerate() {
                path.push(i);
                children.push(certify_at(t, num_vars, path)?);
                path.pop();
            }
            // A sum is a posynomial unless some branch already needed max.
            let class = children
                .iter()
                .map(|c| c.class)
                .max()
                .unwrap_or(ExprClass::Monomial)
                .max(ExprClass::Posynomial);
            Ok(Certificate { class, rule: Rule::SumClosure, children })
        }
        Expr::Max(terms) => {
            let mut children = Vec::with_capacity(terms.len());
            for (i, t) in terms.iter().enumerate() {
                path.push(i);
                children.push(certify_at(t, num_vars, path)?);
                path.pop();
            }
            Ok(Certificate {
                class: ExprClass::GeneralizedPosynomial,
                rule: Rule::MaxClosure,
                children,
            })
        }
    }
}

/// Certify an expression tree, or return the minimal counterexample.
pub fn certify(e: &Expr) -> Result<Certificate, NonPosynomial> {
    certify_at(e, None, &mut Vec::new())
}

/// Like [`certify`], additionally checking that every variable index is
/// below `num_vars`.
pub fn certify_in(e: &Expr, num_vars: usize) -> Result<Certificate, NonPosynomial> {
    certify_at(e, Some(num_vars), &mut Vec::new())
}

/// Which component of an [`MdgObjective`] a counterexample lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectivePart {
    /// The `A_p` expression.
    Area,
    /// A node's `T_i` expression.
    Node(NodeId),
    /// An edge's `t^D` expression.
    Edge(EdgeId),
}

impl fmt::Display for ObjectivePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectivePart::Area => write!(f, "A_p"),
            ObjectivePart::Node(id) => write!(f, "T[{id}]"),
            ObjectivePart::Edge(id) => write!(f, "t^D[e{}]", id.0),
        }
    }
}

/// A counterexample located inside one objective component.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveCounterexample {
    /// The component holding the defect.
    pub part: ObjectivePart,
    /// The defect and its path within that component.
    pub inner: NonPosynomial,
}

impl fmt::Display for ObjectiveCounterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.part, self.inner)
    }
}

/// A compositional certificate for a full objective `Phi = max(A_p, C_p)`.
///
/// The per-component certificates justify the two closure steps that are
/// *not* materialized as expression trees:
///
/// * `C_p`: by induction over the topological order, each
///   `y_i = max_m(y_m + t^D_mi) + T_i` is a generalized posynomial —
///   the max and the sums only combine certified components;
/// * `Phi = max(A_p, C_p)`: one more application of max-closure.
#[derive(Debug, Clone)]
pub struct ObjectiveCertificate {
    /// Derivation for `A_p`.
    pub area: Certificate,
    /// Derivation per node `T_i` (indexed by `NodeId`).
    pub nodes: Vec<Certificate>,
    /// Derivation per edge `t^D` (indexed by `EdgeId`).
    pub edges: Vec<Certificate>,
}

impl ObjectiveCertificate {
    /// The certified class of `Phi` itself. Always
    /// [`ExprClass::GeneralizedPosynomial`] — the outer `max(A_p, C_p)`
    /// forces it even when every component is a plain posynomial.
    pub fn phi_class(&self) -> ExprClass {
        ExprClass::GeneralizedPosynomial
    }

    /// Total monomial leaves across all certified components.
    pub fn monomial_count(&self) -> usize {
        self.area.monomial_count()
            + self.nodes.iter().map(Certificate::monomial_count).sum::<usize>()
            + self.edges.iter().map(Certificate::monomial_count).sum::<usize>()
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        let max_node = self.nodes.iter().map(|c| c.class).max().unwrap_or(ExprClass::Monomial);
        format!(
            "Phi certified {} (area: {}, {} node exprs (worst {}), {} edge exprs, {} monomials)",
            self.phi_class(),
            self.area.class,
            self.nodes.len(),
            max_node,
            self.edges.len(),
            self.monomial_count()
        )
    }
}

/// Certify every component of an [`MdgObjective`] and hence `Phi`.
///
/// Returns the compositional certificate, or the first counterexample
/// with its component and path.
pub fn certify_objective(
    obj: &MdgObjective<'_>,
) -> Result<ObjectiveCertificate, ObjectiveCounterexample> {
    let n = obj.num_vars();
    let g = obj.graph();
    let area = certify_in(&obj.area_expr(), n)
        .map_err(|inner| ObjectiveCounterexample { part: ObjectivePart::Area, inner })?;
    let mut nodes = Vec::with_capacity(g.node_count());
    for (id, _) in g.nodes() {
        let c = certify_in(&obj.node_expr(id), n)
            .map_err(|inner| ObjectiveCounterexample { part: ObjectivePart::Node(id), inner })?;
        nodes.push(c);
    }
    let mut edges = Vec::with_capacity(g.edge_count());
    for (eid, _) in g.edges() {
        let c = certify_in(&obj.edge_expr(eid), n)
            .map_err(|inner| ObjectiveCounterexample { part: ObjectivePart::Edge(eid), inner })?;
        edges.push(c);
    }
    Ok(ObjectiveCertificate { area, nodes, edges })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mono(c: f64, var: usize, exp: f64) -> Expr {
        Expr::Mono(Monomial { coeff: c, exps: vec![(var, exp)] })
    }

    #[test]
    fn monomial_certifies_as_monomial() {
        let cert = certify(&mono(2.0, 0, -1.0)).unwrap();
        assert_eq!(cert.class, ExprClass::Monomial);
        assert_eq!(cert.rule, Rule::MonomialLeaf);
        assert_eq!(cert.monomial_count(), 1);
    }

    #[test]
    fn sum_of_monomials_is_posynomial() {
        let e = Expr::Sum(vec![mono(1.0, 0, 1.0), mono(2.0, 1, -0.5)]);
        let cert = certify(&e).unwrap();
        assert_eq!(cert.class, ExprClass::Posynomial);
        assert_eq!(cert.rule, Rule::SumClosure);
        assert_eq!(cert.monomial_count(), 2);
    }

    #[test]
    fn max_forces_generalized() {
        let e = Expr::Max(vec![mono(1.0, 0, 1.0), Expr::constant(3.0)]);
        let cert = certify(&e).unwrap();
        assert_eq!(cert.class, ExprClass::GeneralizedPosynomial);
        // Sum over a max stays generalized.
        let outer = Expr::Sum(vec![e, mono(1.0, 1, 1.0)]);
        let cert = certify(&outer).unwrap();
        assert_eq!(cert.class, ExprClass::GeneralizedPosynomial);
        assert_eq!(cert.rule, Rule::SumClosure);
        assert_eq!(cert.depth(), 3);
    }

    #[test]
    fn negative_coefficient_refuted_with_path() {
        let bad = Expr::Sum(vec![
            mono(1.0, 0, 1.0),
            Expr::Max(vec![Expr::constant(1.0), mono(-2.0, 1, 1.0)]),
        ]);
        let ce = certify(&bad).unwrap_err();
        assert_eq!(ce.path, vec![1, 1]);
        assert!(matches!(ce.defect, Defect::NegativeCoefficient(c) if c == -2.0));
        assert_eq!(ce.to_string(), "root.1.1: negative coefficient -2");
    }

    #[test]
    fn nan_and_duplicate_refuted() {
        let nan = Expr::Mono(Monomial { coeff: f64::NAN, exps: vec![] });
        assert!(matches!(certify(&nan).unwrap_err().defect, Defect::NonFiniteCoefficient(_)));
        let bad_exp = Expr::Mono(Monomial { coeff: 1.0, exps: vec![(0, f64::INFINITY)] });
        assert!(matches!(
            certify(&bad_exp).unwrap_err().defect,
            Defect::NonFiniteExponent { var: 0, .. }
        ));
        let dup = Expr::Mono(Monomial { coeff: 1.0, exps: vec![(3, 1.0), (3, -1.0)] });
        assert!(matches!(certify(&dup).unwrap_err().defect, Defect::DuplicateVariable { var: 3 }));
    }

    #[test]
    fn out_of_range_variable_refuted_only_with_bound() {
        let e = mono(1.0, 7, 1.0);
        assert!(certify(&e).is_ok());
        let ce = certify_in(&e, 4).unwrap_err();
        assert!(matches!(ce.defect, Defect::VariableOutOfRange { var: 7, limit: 4 }));
    }

    #[test]
    fn render_shows_rules() {
        let e = Expr::Max(vec![
            Expr::Sum(vec![mono(1.0, 0, 1.0), Expr::constant(1.0)]),
            Expr::constant(2.0),
        ]);
        let txt = certify(&e).unwrap().render();
        assert!(txt.contains("max-closure"), "{txt}");
        assert!(txt.contains("sum-closure"), "{txt}");
        assert!(txt.contains("monomial-leaf"), "{txt}");
    }
}
