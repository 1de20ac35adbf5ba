//! Versioned JSON certificates for the objective's posynomial
//! derivation trees, and an independent checker for them.
//!
//! The emitter ([`certificate_json`]) walks an [`MdgObjective`]'s
//! expressions and the matching [`ObjectiveCertificate`] in lockstep
//! and records, for every derivation-tree node, the closure rule that
//! justifies it *and* an interval enclosure of the sub-expression over
//! the feasible box `p ∈ [1, procs]^n`. A monomial `c·Π p_j^{a_j}`
//! with `c ≥ 0` is monotone in each variable separately (direction
//! given by the sign of the exponent), so its exact range over the box
//! is `[c·Π_{a<0} P^a, c·Π_{a>0} P^a]`; sums add intervals and maxima
//! take the elementwise hull. The enclosure of the root therefore
//! brackets Φ's components without ever calling the solver.
//!
//! The checker ([`check_certificate`]) re-validates a parsed
//! certificate using only that interval arithmetic: it re-derives the
//! class of every node from its rule, re-checks the monomial defect
//! conditions of Definition 1 (finite non-negative coefficient, finite
//! exponents, distinct in-range variables), and recomputes every
//! interval bottom-up from the leaf coefficients. Validation is
//! children-first, so the reported counterexample is the *minimal
//! failing sub-tree*: a tampered leaf coefficient is caught at that
//! leaf, a tampered interior interval at that interior node.
//!
//! Every document also carries a `"memory"` section: the
//! static resource analysis' per-node footprints, residency intervals,
//! group-size floors, and the machine-level feasibility verdict
//! ([`crate::resources`]). The checker re-validates the section with
//! interval arithmetic alone — every interval, floor, aggregate and the
//! verdict are recomputed from the claimed footprint components, and
//! the components are cross-checked against the claimed total
//! communication volume — so a tampered memory claim is caught without
//! the graph, the solver, or a simulation.
//!
//! The document format is versioned (`"version": 2`); the checker
//! accepts only the version this build emits and rejects any other with
//! a typed error instead of failing on a shape mismatch deeper in.

use std::fmt;

use paradigm_mdg::dot::dot_escape;
use paradigm_mdg::json::{parse, Json, JsonError};
use paradigm_solver::expr::{Expr, Monomial};
use paradigm_solver::{FallbackTier, MdgObjective};

use crate::posynomial::{check_monomial, Certificate, ExprClass, ObjectiveCertificate, Rule};
use crate::resources::{analyze_resources, ResourceAnalysis};

/// The certificate document version this build emits, and the only one
/// the checker accepts.
pub const CERT_VERSION: u64 = 2;

/// Relative tolerance for comparing a claimed interval endpoint with
/// its recomputed value. Emission and checking share the same
/// arithmetic and `f64` values round-trip exactly through the JSON
/// writer, so honest certificates match bitwise; the tolerance only
/// absorbs hypothetical re-association by a different emitter.
const INTERVAL_RTOL: f64 = 1e-12;

/// An interval `[lo, hi]` enclosing a sub-expression over the box
/// `p ∈ [1, procs]^n`.
pub type Interval = (f64, f64);

fn mono_interval(m: &Monomial, procs: f64) -> Interval {
    if m.coeff == 0.0 {
        return (0.0, 0.0);
    }
    let (mut lo, mut hi) = (m.coeff, m.coeff);
    for &(_, exp) in &m.exps {
        if exp >= 0.0 {
            hi *= procs.powf(exp);
        } else {
            lo *= procs.powf(exp);
        }
    }
    (lo, hi)
}

fn sum_interval(children: &[Interval]) -> Interval {
    children.iter().fold((0.0, 0.0), |(lo, hi), &(clo, chi)| (lo + clo, hi + chi))
}

fn max_interval(children: &[Interval]) -> Interval {
    children.iter().fold((f64::NEG_INFINITY, f64::NEG_INFINITY), |(lo, hi), &(clo, chi)| {
        (lo.max(clo), hi.max(chi))
    })
}

fn interval_json((lo, hi): Interval) -> Json {
    Json::Arr(vec![Json::num(lo), Json::num(hi)])
}

fn tree_json(e: &Expr, c: &Certificate, procs: f64) -> (Json, Interval) {
    match (e, c.rule) {
        (Expr::Mono(m), Rule::MonomialLeaf) => {
            let iv = mono_interval(m, procs);
            let exps = m
                .exps
                .iter()
                .map(|&(var, exp)| Json::Arr(vec![Json::num(var as f64), Json::num(exp)]))
                .collect();
            let doc = Json::Obj(vec![
                ("class".into(), Json::str(c.class.to_string())),
                ("rule".into(), Json::str(c.rule.to_string())),
                ("coeff".into(), Json::num(m.coeff)),
                ("exps".into(), Json::Arr(exps)),
                ("interval".into(), interval_json(iv)),
                ("children".into(), Json::Arr(Vec::new())),
            ]);
            (doc, iv)
        }
        (Expr::Sum(terms), Rule::SumClosure) | (Expr::Max(terms), Rule::MaxClosure) => {
            assert_eq!(
                terms.len(),
                c.children.len(),
                "certificate diverges from the expression it certifies"
            );
            let mut kids = Vec::with_capacity(terms.len());
            let mut ivs = Vec::with_capacity(terms.len());
            for (t, cc) in terms.iter().zip(&c.children) {
                let (doc, iv) = tree_json(t, cc, procs);
                kids.push(doc);
                ivs.push(iv);
            }
            let iv = match c.rule {
                Rule::SumClosure => sum_interval(&ivs),
                _ => max_interval(&ivs),
            };
            let doc = Json::Obj(vec![
                ("class".into(), Json::str(c.class.to_string())),
                ("rule".into(), Json::str(c.rule.to_string())),
                ("interval".into(), interval_json(iv)),
                ("children".into(), Json::Arr(kids)),
            ]);
            (doc, iv)
        }
        _ => unreachable!("certificate rule does not match expression shape"),
    }
}

/// Render a graph's full objective certificate as one versioned JSON
/// document, pairing every derivation-tree node with its interval
/// enclosure over `p ∈ [1, procs]^n`.
///
/// # Panics
/// Panics if `oc` was not produced by certifying exactly `obj`'s
/// expressions (the trees are walked in lockstep).
pub fn certificate_json(obj: &MdgObjective<'_>, oc: &ObjectiveCertificate) -> Json {
    let g = obj.graph();
    let procs = f64::from(obj.machine().procs);
    assert_eq!(g.node_count(), oc.nodes.len(), "node certificate count mismatch");
    assert_eq!(g.edge_count(), oc.edges.len(), "edge certificate count mismatch");
    let nodes = g
        .nodes()
        .zip(&oc.nodes)
        .map(|((id, _), c)| tree_json(&obj.node_expr(id), c, procs).0)
        .collect();
    let edges = g
        .edges()
        .zip(&oc.edges)
        .map(|((id, _), c)| tree_json(&obj.edge_expr(id), c, procs).0)
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::num(CERT_VERSION as f64)),
        ("graph".into(), Json::str(g.name())),
        ("procs".into(), Json::num(procs)),
        ("num_vars".into(), Json::num(obj.num_vars() as f64)),
        ("phi_class".into(), Json::str(oc.phi_class().to_string())),
        ("monomials".into(), Json::num(oc.monomial_count() as f64)),
        ("area".into(), tree_json(&obj.area_expr(), &oc.area, procs).0),
        ("nodes".into(), Json::Arr(nodes)),
        ("edges".into(), Json::Arr(edges)),
        ("memory".into(), memory_json(&analyze_resources(g, obj.machine()))),
    ])
}

/// [`certificate_json`] plus a record of which solver tier produced the
/// allocation the certificate accompanies (`"solver_tier"`). Emitted by
/// pipelines that solved before certifying — the distributed
/// consensus-ADMM tier in particular — so an auditor reading the
/// certificate knows what optimality claim the `Phi` intervals back.
pub fn certificate_json_with_tier(
    obj: &MdgObjective<'_>,
    oc: &ObjectiveCertificate,
    tier: FallbackTier,
) -> Json {
    match certificate_json(obj, oc) {
        Json::Obj(mut members) => {
            members.push(("solver_tier".into(), Json::str(tier.as_str())));
            Json::Obj(members)
        }
        other => other,
    }
}

/// Render the static resource analysis as the certificate's `"memory"`
/// section. Everything the checker needs to re-derive the intervals —
/// the per-node footprint components — is embedded, so the section is
/// self-validating. Also the JSON shape behind `analyze resources
/// --json`.
pub fn memory_json(ra: &ResourceAnalysis) -> Json {
    let nodes = ra
        .nodes
        .iter()
        .map(|n| {
            Json::Obj(vec![
                ("node".into(), Json::num(n.node.0 as f64)),
                ("local_bytes".into(), Json::num(n.footprint.local_bytes as f64)),
                ("in_bytes".into(), Json::num(n.footprint.in_bytes as f64)),
                ("out_bytes".into(), Json::num(n.footprint.out_bytes as f64)),
                ("interval".into(), interval_json(n.interval)),
                (
                    "min_group".into(),
                    match n.min_group {
                        Some(k) => Json::num(k as f64),
                        None => Json::Null,
                    },
                ),
                ("demand_bytes".into(), Json::num(n.demand_bytes as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("mem_bytes".into(), Json::num(ra.mem_bytes as f64)),
        ("procs".into(), Json::num(ra.procs as f64)),
        ("total_comm_bytes".into(), Json::num(ra.total_comm_bytes as f64)),
        ("peak_interval".into(), interval_json(ra.peak_interval)),
        ("feasible".into(), Json::Bool(ra.feasible)),
        ("nodes".into(), Json::Arr(nodes)),
    ])
}

/// Which top-level component of the certificate a failure lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertPart {
    /// The `A_p` derivation tree.
    Area,
    /// The i-th node's `T_i` tree.
    Node(usize),
    /// The i-th edge's `t^D` tree.
    Edge(usize),
}

impl fmt::Display for CertPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertPart::Area => write!(f, "area"),
            CertPart::Node(i) => write!(f, "node {i}"),
            CertPart::Edge(i) => write!(f, "edge {i}"),
        }
    }
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CertDefect {
    /// The document as a whole is unusable (missing or mistyped
    /// top-level field).
    Document(String),
    /// The document declares a version this checker does not know.
    UnsupportedVersion(f64),
    /// A derivation-tree node is malformed (wrong JSON shape, unknown
    /// rule, leaf with children, closure without children, ...).
    Shape(String),
    /// A leaf violates a monomial condition of Definition 1.
    Monomial(crate::posynomial::Defect),
    /// The claimed expression class disagrees with the class derived
    /// from the node's rule and its children.
    ClassMismatch {
        /// What the document claims.
        claimed: String,
        /// What the closure rules actually derive.
        derived: ExprClass,
    },
    /// The claimed interval enclosure disagrees with the enclosure
    /// recomputed bottom-up from the leaf coefficients.
    IntervalMismatch {
        /// What the document claims.
        claimed: Interval,
        /// What interval arithmetic recomputes.
        derived: Interval,
    },
    /// A claimed top-level count disagrees with the checked trees.
    CountMismatch {
        /// Which count (`"monomials"`, `"nodes"`).
        field: &'static str,
        /// What the document claims.
        claimed: f64,
        /// What the checker counted.
        derived: f64,
    },
    /// The `"memory"` section is malformed or internally inconsistent
    /// (an interval, group floor, aggregate, or the feasibility verdict
    /// disagrees with what interval arithmetic re-derives from the
    /// claimed footprints).
    Memory(String),
    /// The optional `"solver_tier"` field names a tier this checker
    /// does not know.
    UnknownTier(String),
}

impl fmt::Display for CertDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertDefect::Document(m) => write!(f, "unusable document: {m}"),
            CertDefect::UnsupportedVersion(v) => {
                write!(f, "unsupported certificate version {v} (this checker knows {CERT_VERSION})")
            }
            CertDefect::Shape(m) => write!(f, "malformed tree node: {m}"),
            CertDefect::Monomial(d) => write!(f, "monomial condition violated: {d}"),
            CertDefect::ClassMismatch { claimed, derived } => {
                write!(f, "claimed class \"{claimed}\" but the rules derive {derived}")
            }
            CertDefect::IntervalMismatch { claimed, derived } => write!(
                f,
                "claimed interval [{}, {}] but recomputation gives [{}, {}]",
                claimed.0, claimed.1, derived.0, derived.1
            ),
            CertDefect::CountMismatch { field, claimed, derived } => {
                write!(f, "claimed {field} count {claimed} but the document contains {derived}")
            }
            CertDefect::Memory(m) => write!(f, "memory section inconsistent: {m}"),
            CertDefect::UnknownTier(t) => {
                write!(f, "unknown solver tier \"{t}\" (expected none, admm, or equal-split)")
            }
        }
    }
}

/// A rejected certificate: the minimal failing sub-tree (part + path
/// from that part's root) and the defect found there.
#[derive(Debug, Clone, PartialEq)]
pub struct CertFailure {
    /// Which top-level tree failed, if the failure is inside a tree.
    pub part: Option<CertPart>,
    /// Child-index path from the part's root to the failing sub-tree.
    pub path: Vec<usize>,
    /// What is wrong there.
    pub defect: CertDefect,
    /// The failing sub-tree itself, as parsed (the counterexample).
    pub subtree: Option<Json>,
}

impl CertFailure {
    fn document(msg: impl Into<String>) -> Self {
        CertFailure {
            part: None,
            path: Vec::new(),
            defect: CertDefect::Document(msg.into()),
            subtree: None,
        }
    }

    /// `"area"`, `"node 3:root.1.0"`, ... — the location in the same
    /// dotted-path notation [`crate::NonPosynomial`] uses.
    pub fn location(&self) -> String {
        match &self.part {
            None => "document".to_string(),
            Some(part) => {
                let mut s = format!("{part}:root");
                for i in &self.path {
                    s.push('.');
                    s.push_str(&i.to_string());
                }
                s
            }
        }
    }
}

impl fmt::Display for CertFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate REJECTED at {}: {}", self.location(), self.defect)?;
        if let Some(tree) = &self.subtree {
            let mut rendered = tree.render();
            if rendered.len() > 200 {
                rendered.truncate(197);
                rendered.push_str("...");
            }
            write!(f, "\n  counterexample sub-tree: {rendered}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CertFailure {}

/// Summary of a successfully checked certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct CertSummary {
    /// Graph name recorded in the document.
    pub graph: String,
    /// Processor count the intervals were derived over.
    pub procs: u64,
    /// Number of allocation variables (= node trees).
    pub num_vars: u64,
    /// Number of edge trees.
    pub edge_trees: u64,
    /// Total monomial leaves across all trees.
    pub monomials: u64,
    /// Number of re-validated memory residency claims.
    pub memory_nodes: u64,
    /// Which solver tier the document records as having produced the
    /// accompanying allocation (`"admm"` for the distributed consensus
    /// solver); `None` when the optional `"solver_tier"` field is
    /// absent.
    pub solver_tier: Option<String>,
}

impl fmt::Display for CertSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate OK: `{}` on {} processors -- {} node trees, {} edge trees, \
             {} monomial leaves, every class and interval re-derived",
            self.graph, self.procs, self.num_vars, self.edge_trees, self.monomials
        )?;
        write!(f, "; {} memory residency claims re-validated", self.memory_nodes)?;
        if let Some(tier) = &self.solver_tier {
            write!(f, "; solved via {tier} tier")?;
        }
        Ok(())
    }
}

struct TreeChecker {
    num_vars: usize,
    procs: f64,
    part: CertPart,
}

impl TreeChecker {
    fn fail(&self, path: &[usize], defect: CertDefect, at: &Json) -> CertFailure {
        CertFailure {
            part: Some(self.part),
            path: path.to_vec(),
            defect,
            subtree: Some(at.clone()),
        }
    }

    fn shape(&self, path: &[usize], msg: impl Into<String>, at: &Json) -> CertFailure {
        self.fail(path, CertDefect::Shape(msg.into()), at)
    }

    /// Validate one tree node and everything below it; children first,
    /// so the returned failure names the deepest inconsistent sub-tree.
    fn check(
        &self,
        j: &Json,
        path: &mut Vec<usize>,
    ) -> Result<(ExprClass, Interval, u64), CertFailure> {
        if !matches!(j, Json::Obj(_)) {
            return Err(self.shape(path, "tree node is not a JSON object", j));
        }
        let class = j
            .get("class")
            .and_then(Json::as_str)
            .ok_or_else(|| self.shape(path, "missing string field \"class\"", j))?
            .to_string();
        let rule = j
            .get("rule")
            .and_then(Json::as_str)
            .ok_or_else(|| self.shape(path, "missing string field \"rule\"", j))?
            .to_string();
        let claimed_iv = match j.get("interval").map(Json::as_arr) {
            Some(Some([lo, hi])) => match (lo.as_f64(), hi.as_f64()) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => return Err(self.shape(path, "\"interval\" endpoints must be numbers", j)),
            },
            _ => return Err(self.shape(path, "\"interval\" must be a two-element array", j)),
        };
        let children = match j.get("children").map(Json::as_arr) {
            Some(Some(kids)) => kids,
            _ => return Err(self.shape(path, "\"children\" must be an array", j)),
        };

        let (derived_class, derived_iv, leaves) = match rule.as_str() {
            "monomial-leaf" => {
                if !children.is_empty() {
                    return Err(self.shape(path, "a monomial leaf cannot have children", j));
                }
                let coeff = match j.get("coeff").and_then(Json::as_f64) {
                    Some(c) => c,
                    None if matches!(j.get("coeff"), Some(Json::Num(_)) | Some(Json::Null)) => {
                        // `as_f64` filters non-finite renderings (null);
                        // surface those as the monomial defect below.
                        f64::NAN
                    }
                    _ => return Err(self.shape(path, "leaf is missing numeric \"coeff\"", j)),
                };
                let exps_json = match j.get("exps").map(Json::as_arr) {
                    Some(Some(e)) => e,
                    _ => return Err(self.shape(path, "leaf is missing \"exps\" array", j)),
                };
                let mut exps = Vec::with_capacity(exps_json.len());
                for pair in exps_json {
                    let bad = || self.shape(path, "each exps entry must be a [var, exp] pair", j);
                    let [var, exp] = pair.as_arr().ok_or_else(bad)? else {
                        return Err(bad());
                    };
                    let var = var.as_u64().ok_or_else(bad)? as usize;
                    let exp = match exp {
                        Json::Num(e) => *e,
                        Json::Null => f64::NAN, // non-finite exponent, rendered as null
                        _ => return Err(bad()),
                    };
                    exps.push((var, exp));
                }
                let m = Monomial { coeff, exps };
                check_monomial(&m, Some(self.num_vars))
                    .map_err(|d| self.fail(path, CertDefect::Monomial(d), j))?;
                (ExprClass::Monomial, mono_interval(&m, self.procs), 1)
            }
            "sum-closure" | "max-closure" => {
                if children.is_empty() {
                    return Err(self.shape(path, "a closure rule needs at least one child", j));
                }
                let mut classes = Vec::with_capacity(children.len());
                let mut ivs = Vec::with_capacity(children.len());
                let mut leaves = 0;
                for (i, kid) in children.iter().enumerate() {
                    path.push(i);
                    let (c, iv, n) = self.check(kid, path)?;
                    path.pop();
                    classes.push(c);
                    ivs.push(iv);
                    leaves += n;
                }
                if rule == "sum-closure" {
                    let class =
                        classes.into_iter().fold(ExprClass::Posynomial, |acc, c| acc.max(c));
                    (class, sum_interval(&ivs), leaves)
                } else {
                    (ExprClass::GeneralizedPosynomial, max_interval(&ivs), leaves)
                }
            }
            other => return Err(self.shape(path, format!("unknown rule \"{other}\""), j)),
        };

        if class != derived_class.to_string() {
            return Err(self.fail(
                path,
                CertDefect::ClassMismatch { claimed: class, derived: derived_class },
                j,
            ));
        }
        let close = |a: f64, b: f64| (a - b).abs() <= INTERVAL_RTOL * a.abs().max(b.abs()).max(1.0);
        if !close(claimed_iv.0, derived_iv.0) || !close(claimed_iv.1, derived_iv.1) {
            return Err(self.fail(
                path,
                CertDefect::IntervalMismatch { claimed: claimed_iv, derived: derived_iv },
                j,
            ));
        }
        Ok((derived_class, derived_iv, leaves))
    }
}

fn require_u64(doc: &Json, field: &'static str) -> Result<u64, CertFailure> {
    doc.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| CertFailure::document(format!("missing numeric field \"{field}\"")))
}

/// Re-validate a parsed certificate document without the solver.
///
/// Checks, in order: the version gate, the top-level shape, then every
/// derivation tree (children before parents, so failures localize to
/// the minimal inconsistent sub-tree), and finally the claimed
/// aggregate counts.
pub fn check_certificate(doc: &Json) -> Result<CertSummary, CertFailure> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(CertFailure::document("certificate is not a JSON object"));
    }
    let Some(version) = doc.get("version") else {
        return Err(CertFailure::document("missing \"version\" field"));
    };
    if version.as_u64() != Some(CERT_VERSION) {
        return Err(CertFailure {
            part: None,
            path: Vec::new(),
            defect: CertDefect::UnsupportedVersion(version.as_f64().unwrap_or(f64::NAN)),
            subtree: None,
        });
    }
    let graph = doc
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| CertFailure::document("missing string field \"graph\""))?
        .to_string();
    let procs = require_u64(doc, "procs")?;
    if procs == 0 {
        return Err(CertFailure::document("\"procs\" must be at least 1"));
    }
    let num_vars = require_u64(doc, "num_vars")?;
    let monomials = require_u64(doc, "monomials")?;
    let phi_class = doc
        .get("phi_class")
        .and_then(Json::as_str)
        .ok_or_else(|| CertFailure::document("missing string field \"phi_class\""))?;
    if phi_class != ExprClass::GeneralizedPosynomial.to_string() {
        return Err(CertFailure {
            part: None,
            path: Vec::new(),
            defect: CertDefect::ClassMismatch {
                claimed: phi_class.to_string(),
                derived: ExprClass::GeneralizedPosynomial,
            },
            subtree: None,
        });
    }

    let tree = |field: &'static str| {
        doc.get(field).ok_or_else(|| CertFailure::document(format!("missing field \"{field}\"")))
    };
    let arr = |field: &'static str| -> Result<&[Json], CertFailure> {
        tree(field)?
            .as_arr()
            .ok_or_else(|| CertFailure::document(format!("\"{field}\" must be an array")))
    };

    let mut leaves = 0;
    let checker =
        |part: CertPart| TreeChecker { num_vars: num_vars as usize, procs: procs as f64, part };
    leaves += checker(CertPart::Area).check(tree("area")?, &mut Vec::new())?.2;

    let nodes = arr("nodes")?;
    if nodes.len() as u64 != num_vars {
        return Err(CertFailure {
            part: None,
            path: Vec::new(),
            defect: CertDefect::CountMismatch {
                field: "nodes",
                claimed: num_vars as f64,
                derived: nodes.len() as f64,
            },
            subtree: None,
        });
    }
    for (i, n) in nodes.iter().enumerate() {
        leaves += checker(CertPart::Node(i)).check(n, &mut Vec::new())?.2;
    }
    let edges = arr("edges")?;
    for (i, e) in edges.iter().enumerate() {
        leaves += checker(CertPart::Edge(i)).check(e, &mut Vec::new())?.2;
    }

    if leaves != monomials {
        return Err(CertFailure {
            part: None,
            path: Vec::new(),
            defect: CertDefect::CountMismatch {
                field: "monomials",
                claimed: monomials as f64,
                derived: leaves as f64,
            },
            subtree: None,
        });
    }

    let mem =
        doc.get("memory").ok_or_else(|| CertFailure::document("missing \"memory\" section"))?;
    let memory_nodes = check_memory(mem, procs)?;

    // The optional solver-tier record. Any version may carry it; when
    // present it must name a tier this build knows, so a certificate
    // cannot smuggle in an unauditable optimality claim.
    let solver_tier = match doc.get("solver_tier") {
        None => None,
        Some(v) => {
            let t = v.as_str().ok_or_else(|| {
                CertFailure::document("\"solver_tier\" must be a string when present")
            })?;
            if !["none", "admm", "equal-split"].contains(&t) {
                return Err(CertFailure {
                    part: None,
                    path: Vec::new(),
                    defect: CertDefect::UnknownTier(t.to_string()),
                    subtree: None,
                });
            }
            Some(t.to_string())
        }
    };

    Ok(CertSummary {
        graph,
        procs,
        num_vars,
        edge_trees: edges.len() as u64,
        monomials: leaves,
        memory_nodes,
        solver_tier,
    })
}

/// Re-validate the `"memory"` section with interval arithmetic only.
///
/// Every claim is re-derived from the per-node footprint components
/// (`local_bytes`, `in_bytes`, `out_bytes`, `demand_bytes`):
///
/// * each residency interval must equal `[total/procs, total]`;
/// * each `min_group` must equal `ceil(total / mem_bytes)` (or null
///   when even `procs` processors cannot hold the footprint);
/// * `demand_bytes >= total` (the live set includes the working set);
/// * the inbound and outbound footprint sums must each equal the
///   claimed `total_comm_bytes` (every payload is received once and
///   sent once);
/// * `peak_interval` must equal
///   `[max demand/procs, max (local+out) + total_comm]`;
/// * `feasible` must equal "no demand exceeds `procs * mem_bytes`".
///
/// Returns the number of validated node claims.
fn check_memory(mem: &Json, procs: u64) -> Result<u64, CertFailure> {
    let fail = |msg: String| CertFailure {
        part: None,
        path: Vec::new(),
        defect: CertDefect::Memory(msg),
        subtree: Some(mem.clone()),
    };
    if !matches!(mem, Json::Obj(_)) {
        return Err(fail("\"memory\" is not a JSON object".into()));
    }
    let num = |field: &str| {
        mem.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(format!("missing numeric field \"{field}\"")))
    };
    let mem_bytes = num("mem_bytes")?;
    if mem_bytes == 0 {
        return Err(fail("\"mem_bytes\" must be at least 1".into()));
    }
    let mprocs = num("procs")?;
    if mprocs != procs {
        return Err(fail(format!(
            "memory section claims {mprocs} processors but the document claims {procs}"
        )));
    }
    let total_comm = num("total_comm_bytes")?;
    let peak = match mem.get("peak_interval").map(Json::as_arr) {
        Some(Some([lo, hi])) => match (lo.as_f64(), hi.as_f64()) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => return Err(fail("\"peak_interval\" endpoints must be numbers".into())),
        },
        _ => return Err(fail("\"peak_interval\" must be a two-element array".into())),
    };
    let feasible = mem
        .get("feasible")
        .and_then(Json::as_bool)
        .ok_or_else(|| fail("missing boolean field \"feasible\"".into()))?;
    let nodes = match mem.get("nodes").map(Json::as_arr) {
        Some(Some(n)) => n,
        _ => return Err(fail("\"nodes\" must be an array".into())),
    };

    let p = procs as f64;
    let close = |a: f64, b: f64| (a - b).abs() <= INTERVAL_RTOL * a.abs().max(b.abs()).max(1.0);
    let (mut in_sum, mut out_sum) = (0u64, 0u64);
    let (mut max_self, mut max_demand) = (0u64, 0u64);
    for (i, n) in nodes.iter().enumerate() {
        let nnum = |field: &str| {
            n.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| fail(format!("node claim {i} is missing numeric \"{field}\"")))
        };
        let local = nnum("local_bytes")?;
        let inb = nnum("in_bytes")?;
        let outb = nnum("out_bytes")?;
        let demand = nnum("demand_bytes")?;
        let total = local + inb + outb;
        in_sum += inb;
        out_sum += outb;
        max_self = max_self.max(local + outb);
        max_demand = max_demand.max(demand);

        let claimed_iv = match n.get("interval").map(Json::as_arr) {
            Some(Some([lo, hi])) => match (lo.as_f64(), hi.as_f64()) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => return Err(fail(format!("node claim {i}: interval endpoints not numbers"))),
            },
            _ => return Err(fail(format!("node claim {i}: \"interval\" must be a pair"))),
        };
        let derived_iv = (total as f64 / p, total as f64);
        if !close(claimed_iv.0, derived_iv.0) || !close(claimed_iv.1, derived_iv.1) {
            return Err(CertFailure {
                part: None,
                path: vec![i],
                defect: CertDefect::IntervalMismatch { claimed: claimed_iv, derived: derived_iv },
                subtree: Some(n.clone()),
            });
        }
        let expected_group = total.div_ceil(mem_bytes).max(1);
        let expected_group = if expected_group <= procs { Some(expected_group) } else { None };
        let claimed_group = match n.get("min_group") {
            Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| fail(format!("node claim {i}: \"min_group\" not a count")))?,
            ),
            None => return Err(fail(format!("node claim {i} is missing \"min_group\""))),
        };
        if claimed_group != expected_group {
            return Err(fail(format!(
                "node claim {i}: min_group {claimed_group:?} but footprint {total} over \
                 {mem_bytes}-byte processors derives {expected_group:?}"
            )));
        }
        if demand < total {
            return Err(fail(format!(
                "node claim {i}: demand {demand} is below its own working set {total}"
            )));
        }
    }

    if in_sum != total_comm || out_sum != total_comm {
        return Err(fail(format!(
            "claimed total_comm_bytes {total_comm} but node footprints sum to {in_sum} inbound \
             / {out_sum} outbound"
        )));
    }
    let derived_peak = (max_demand as f64 / p, max_self as f64 + total_comm as f64);
    if !close(peak.0, derived_peak.0) || !close(peak.1, derived_peak.1) {
        return Err(CertFailure {
            part: None,
            path: Vec::new(),
            defect: CertDefect::IntervalMismatch { claimed: peak, derived: derived_peak },
            subtree: Some(mem.clone()),
        });
    }
    let derived_feasible = max_demand <= procs.saturating_mul(mem_bytes);
    if feasible != derived_feasible {
        return Err(fail(format!(
            "claimed feasible={feasible} but the worst live set is {max_demand} bytes against \
             {} machine bytes",
            procs.saturating_mul(mem_bytes)
        )));
    }
    Ok(nodes.len() as u64)
}

/// Parse certificate text and check it. A parse error is reported as
/// an unusable document (the same rejection class as a missing field).
pub fn check_certificate_text(text: &str) -> Result<CertSummary, CertFailure> {
    let doc = parse(text)
        .map_err(|e: JsonError| CertFailure::document(format!("not valid JSON: {e}")))?;
    check_certificate(&doc)
}

/// Render every derivation tree of an objective certificate as one DOT
/// digraph (roots: `A_p`, each `T_i`, each `t^D_e`).
pub fn certificate_dot(graph: &str, oc: &ObjectiveCertificate) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}-derivation\" {{\n", dot_escape(graph)));
    out.push_str("  rankdir=TB;\n  node [fontsize=10];\n");
    let mut counter = 0usize;
    let mut emit = |root_label: String, c: &Certificate, out: &mut String| {
        let root = format!("r{counter}");
        counter += 1;
        out.push_str(&format!("  {root} [shape=plaintext, label=\"{root_label}\"];\n"));
        // Iterative preorder walk carrying each node's DOT id.
        let mut stack = vec![(root.clone(), c)];
        while let Some((parent, cert)) = stack.pop() {
            let id = format!("c{counter}");
            counter += 1;
            let shape = if cert.children.is_empty() { "box" } else { "ellipse" };
            out.push_str(&format!(
                "  {id} [shape={shape}, label=\"{}\\n{}\"];\n",
                cert.class, cert.rule
            ));
            out.push_str(&format!("  {parent} -> {id};\n"));
            for child in cert.children.iter().rev() {
                stack.push((id.clone(), child));
            }
        }
    };
    emit("A_p".to_string(), &oc.area, &mut out);
    for (i, c) in oc.nodes.iter().enumerate() {
        emit(format!("T_{i}"), c, &mut out);
    }
    for (i, c) in oc.edges.iter().enumerate() {
        emit(format!("t^D edge {i}"), c, &mut out);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posynomial::certify_objective;
    use paradigm_cost::Machine;
    use paradigm_mdg::builders::example_fig1_mdg;

    fn fig1_cert_json() -> Json {
        let g = example_fig1_mdg();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let oc = certify_objective(&obj).expect("fig1 certifies");
        certificate_json(&obj, &oc)
    }

    #[test]
    fn emitted_certificate_checks_clean() {
        let doc = fig1_cert_json();
        let summary = check_certificate(&doc).expect("fresh certificate must verify");
        assert_eq!(summary.graph, "fig1-example");
        assert_eq!(summary.procs, 4);
        assert_eq!(summary.num_vars, 5);
        assert!(summary.monomials > 0);
        // num_vars counts all 5 nodes (START/STOP included); residency
        // claims cover only the 3 compute nodes.
        assert_eq!(summary.memory_nodes, 3, "one residency claim per compute node");
    }

    #[test]
    fn solver_tier_field_round_trips_and_unknown_tiers_are_rejected() {
        let g = example_fig1_mdg();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let oc = certify_objective(&obj).expect("fig1 certifies");

        // Absent field: accepted, no tier recorded.
        let summary = check_certificate(&certificate_json(&obj, &oc)).unwrap();
        assert_eq!(summary.solver_tier, None);

        // The ADMM tier: accepted, recorded, rendered.
        let doc = certificate_json_with_tier(&obj, &oc, FallbackTier::Admm);
        let summary = check_certificate(&doc).expect("admm-tier certificate must verify");
        assert_eq!(summary.solver_tier.as_deref(), Some("admm"));
        assert!(summary.to_string().contains("solved via admm tier"), "{summary}");

        // Every tier this build can produce is accepted.
        for tier in [FallbackTier::Primary, FallbackTier::EqualSplit] {
            let doc = certificate_json_with_tier(&obj, &oc, tier);
            let summary = check_certificate(&doc).unwrap_or_else(|e| panic!("{tier:?}: {e}"));
            assert_eq!(summary.solver_tier.as_deref(), Some(tier.as_str()));
        }

        // A made-up tier is a typed rejection, not a silent pass.
        let mut doc = certificate_json_with_tier(&obj, &oc, FallbackTier::Admm);
        let set_tier = |doc: &mut Json, v: Json| {
            let Json::Obj(members) = doc else { unreachable!() };
            members.iter_mut().find(|(k, _)| k == "solver_tier").unwrap().1 = v;
        };
        set_tier(&mut doc, Json::str("oracle"));
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::UnknownTier(ref t) if t == "oracle"), "{err}");

        // A mistyped field is a document-level rejection.
        set_tier(&mut doc, Json::num(3.0));
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Document(_)), "{err}");
    }

    #[test]
    fn coordinate_descent_is_not_a_solver_tier() {
        // Coordinate descent is the gradient solver's test oracle; no
        // served answer comes from it, so no certificate may claim it.
        let g = example_fig1_mdg();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let oc = certify_objective(&obj).expect("fig1 certifies");
        let mut doc = certificate_json_with_tier(&obj, &oc, FallbackTier::Primary);
        let Json::Obj(members) = &mut doc else { unreachable!() };
        members.iter_mut().find(|(k, _)| k == "solver_tier").unwrap().1 = Json::str("coordinate");
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::UnknownTier(ref t) if t == "coordinate"), "{err}");
    }

    #[test]
    fn v1_document_is_refused() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        members.retain(|(k, _)| k != "memory");
        members.iter_mut().find(|(k, _)| k == "version").unwrap().1 = Json::num(1.0);
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::UnsupportedVersion(v) if v == 1.0), "{err}");
    }

    #[test]
    fn v2_document_without_memory_is_rejected() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        members.retain(|(k, _)| k != "memory");
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Document(_)), "{err}");
        assert!(err.to_string().contains("memory"), "{err}");
    }

    /// Fetch a mutable reference to the memory section.
    fn memory_of(doc: &mut Json) -> &mut Json {
        let Json::Obj(members) = doc else { unreachable!() };
        &mut members.iter_mut().find(|(k, _)| k == "memory").unwrap().1
    }

    #[test]
    fn tampered_memory_footprint_is_caught() {
        let mut doc = fig1_cert_json();
        {
            let Json::Obj(mem) = memory_of(&mut doc) else { unreachable!() };
            let nodes = &mut mem.iter_mut().find(|(k, _)| k == "nodes").unwrap().1;
            let Json::Arr(nodes) = nodes else { unreachable!() };
            let Json::Obj(node0) = &mut nodes[0] else { unreachable!() };
            // Shrink a claimed inbound footprint: the residency interval
            // no longer matches the components.
            let inb = &mut node0.iter_mut().find(|(k, _)| k == "in_bytes").unwrap().1;
            let Json::Num(v) = inb else { unreachable!() };
            *v += 4096.0;
        }
        let err = check_certificate(&doc).unwrap_err();
        assert!(
            matches!(err.defect, CertDefect::IntervalMismatch { .. }),
            "inflated footprint must break its own interval: {err}"
        );
        assert_eq!(err.path, vec![0], "failure names the tampered claim");
    }

    #[test]
    fn tampered_feasibility_verdict_is_caught() {
        let mut doc = fig1_cert_json();
        {
            let Json::Obj(mem) = memory_of(&mut doc) else { unreachable!() };
            mem.iter_mut().find(|(k, _)| k == "feasible").unwrap().1 = Json::Bool(false);
        }
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Memory(_)), "{err}");
        assert!(err.to_string().contains("feasible"), "{err}");
    }

    #[test]
    fn tampered_comm_volume_is_caught() {
        let mut doc = fig1_cert_json();
        {
            let Json::Obj(mem) = memory_of(&mut doc) else { unreachable!() };
            let tc = &mut mem.iter_mut().find(|(k, _)| k == "total_comm_bytes").unwrap().1;
            let Json::Num(v) = tc else { unreachable!() };
            *v *= 2.0;
        }
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Memory(_)), "{err}");
        assert!(err.to_string().contains("total_comm_bytes"), "{err}");
    }

    #[test]
    fn memory_section_round_trips_through_text() {
        let doc = fig1_cert_json();
        let reparsed = parse(&doc.render()).expect("rendered certificate parses");
        let a = check_certificate(&doc).expect("original verifies");
        let b = check_certificate(&reparsed).expect("reparsed verifies");
        assert_eq!(a, b);
        assert!(a.memory_nodes > 0);
    }

    #[test]
    fn certificate_round_trips_through_text() {
        let doc = fig1_cert_json();
        let reparsed = parse(&doc.render()).expect("rendered certificate parses");
        assert_eq!(check_certificate(&doc), check_certificate(&reparsed));
    }

    /// Multiply the first leaf coefficient found in `j` by `factor`;
    /// returns the child-index path to the perturbed leaf.
    fn perturb_first_leaf(j: &mut Json, factor: f64) -> Option<Vec<usize>> {
        let Json::Obj(members) = j else { return None };
        let is_leaf =
            members.iter().any(|(k, v)| k == "rule" && v.as_str() == Some("monomial-leaf"));
        if is_leaf {
            for (k, v) in members.iter_mut() {
                if k == "coeff" {
                    if let Json::Num(c) = v {
                        if *c > 0.0 {
                            *c *= factor;
                            return Some(Vec::new());
                        }
                    }
                    return None;
                }
            }
            return None;
        }
        let kids = members.iter_mut().find(|(k, _)| k == "children")?;
        if let Json::Arr(kids) = &mut kids.1 {
            for (i, kid) in kids.iter_mut().enumerate() {
                if let Some(mut path) = perturb_first_leaf(kid, factor) {
                    path.insert(0, i);
                    return Some(path);
                }
            }
        }
        None
    }

    #[test]
    fn perturbed_coefficient_is_caught_at_the_leaf() {
        let mut doc = fig1_cert_json();
        // Perturb inside the area tree.
        let path = {
            let Json::Obj(members) = &mut doc else { unreachable!() };
            let area = &mut members.iter_mut().find(|(k, _)| k == "area").unwrap().1;
            perturb_first_leaf(area, 1.5).expect("area tree has a positive leaf")
        };
        let err = check_certificate(&doc).expect_err("tampered certificate must be rejected");
        assert_eq!(err.part, Some(CertPart::Area));
        assert_eq!(err.path, path, "counterexample must point at the perturbed leaf");
        assert!(matches!(err.defect, CertDefect::IntervalMismatch { .. }), "got {:?}", err.defect);
        assert!(err.subtree.is_some(), "counterexample carries the failing sub-tree");
    }

    #[test]
    fn unknown_version_is_rejected_up_front() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        members.iter_mut().find(|(k, _)| k == "version").unwrap().1 = Json::num(99.0);
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::UnsupportedVersion(v) if v == 99.0), "{err}");
    }

    #[test]
    fn missing_version_is_rejected() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        members.retain(|(k, _)| k != "version");
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Document(_)), "{err}");
    }

    #[test]
    fn tampered_class_is_a_class_mismatch() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        let area = &mut members.iter_mut().find(|(k, _)| k == "area").unwrap().1;
        let Json::Obj(area_members) = area else { unreachable!() };
        area_members.iter_mut().find(|(k, _)| k == "class").unwrap().1 = Json::str("monomial");
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::ClassMismatch { .. }), "{err}");
        assert_eq!(err.part, Some(CertPart::Area));
    }

    #[test]
    fn rejection_message_names_the_location() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        let nodes = &mut members.iter_mut().find(|(k, _)| k == "nodes").unwrap().1;
        let Json::Arr(nodes) = nodes else { unreachable!() };
        perturb_first_leaf(&mut nodes[1], 2.0).expect("node 1 has a leaf");
        let err = check_certificate(&doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("certificate REJECTED at node 1:root"), "{msg}");
        assert!(msg.contains("counterexample sub-tree"), "{msg}");
    }

    #[test]
    fn checker_parses_text_and_flags_garbage() {
        let doc = fig1_cert_json();
        assert!(check_certificate_text(&doc.render()).is_ok());
        let err = check_certificate_text("{not json").unwrap_err();
        assert!(matches!(err.defect, CertDefect::Document(_)), "{err}");
    }

    #[test]
    fn derivation_dot_mentions_every_rule() {
        let g = example_fig1_mdg();
        let obj = MdgObjective::new(&g, Machine::cm5(4));
        let oc = certify_objective(&obj).unwrap();
        let dot = certificate_dot(g.name(), &oc);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("monomial-leaf"));
        assert!(dot.contains("sum-closure"));
        assert!(dot.contains("A_p"));
    }
}
