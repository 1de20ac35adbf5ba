//! The memory certificate: a versioned JSON document of the static
//! resource analysis, and an independent checker for it.
//!
//! `paradigm analyze resources --json` prints one document per graph, one
//! per line ([`memory_certificate`]): the version, the graph name, the
//! per-node footprints, residency intervals, group-size floors, and the
//! machine-level feasibility verdict ([`crate::resources`]). The checker
//! ([`check_certificate`]) re-validates it with interval arithmetic
//! alone — every interval, floor, aggregate and the verdict are
//! recomputed from the claimed footprint components, and the components
//! are cross-checked against the claimed total communication volume — so
//! a tampered memory claim is caught without the graph, the solver, or a
//! simulation.
//!
//! The objective's form needs no certificate: every
//! [`paradigm_solver::Expr`] is a generalized posynomial by construction
//! (the `Monomial` constructors are the only way to build a term).
//!
//! The document format is versioned (`"version": 3`); the checker
//! accepts only the version this build emits and rejects any other with
//! a typed error instead of failing on a shape mismatch deeper in.

use std::fmt;

use paradigm_mdg::json::{parse, Json, JsonError};

use crate::resources::ResourceAnalysis;

/// The certificate document version this build emits, and the only one
/// the checker accepts.
pub const CERT_VERSION: u64 = 3;

/// Relative tolerance for comparing a claimed interval endpoint with
/// its recomputed value. Emission and checking share the same
/// arithmetic and `f64` values round-trip exactly through the JSON
/// writer, so honest certificates match bitwise; the tolerance only
/// absorbs hypothetical re-association by a different emitter.
const INTERVAL_RTOL: f64 = 1e-12;

/// An interval `[lo, hi]` of bytes.
pub type Interval = (f64, f64);

fn interval_json((lo, hi): Interval) -> Json {
    Json::Arr(vec![Json::num(lo), Json::num(hi)])
}

/// Render `graph`'s static resource analysis as one versioned memory
/// certificate. Everything the checker needs to re-derive the intervals
/// — the per-node footprint components — is embedded, so the document
/// is self-validating.
pub fn memory_certificate(graph: &str, ra: &ResourceAnalysis) -> Json {
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
        ("version".into(), Json::num(CERT_VERSION as f64)),
        ("graph".into(), Json::str(graph)),
        ("mem_bytes".into(), Json::num(ra.mem_bytes as f64)),
        ("procs".into(), Json::num(ra.procs as f64)),
        ("total_comm_bytes".into(), Json::num(ra.total_comm_bytes as f64)),
        ("peak_interval".into(), interval_json(ra.peak_interval)),
        ("feasible".into(), Json::Bool(ra.feasible)),
        ("nodes".into(), Json::Arr(nodes)),
    ])
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CertDefect {
    /// The document as a whole is unusable (missing or mistyped
    /// top-level field).
    Document(String),
    /// The document declares a version this checker does not know.
    UnsupportedVersion(f64),
    /// A claimed interval disagrees with the one interval arithmetic
    /// re-derives from the claimed footprints.
    IntervalMismatch {
        /// What the document claims.
        claimed: Interval,
        /// What interval arithmetic recomputes.
        derived: Interval,
    },
    /// The memory claims are malformed or internally inconsistent (a
    /// group floor, aggregate, or the feasibility verdict disagrees with
    /// what interval arithmetic re-derives from the claimed footprints).
    Memory(String),
}

impl fmt::Display for CertDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertDefect::Document(m) => write!(f, "unusable document: {m}"),
            CertDefect::UnsupportedVersion(v) => {
                write!(f, "unsupported certificate version {v} (this checker knows {CERT_VERSION})")
            }
            CertDefect::IntervalMismatch { claimed, derived } => write!(
                f,
                "claimed interval [{}, {}] but recomputation gives [{}, {}]",
                claimed.0, claimed.1, derived.0, derived.1
            ),
            CertDefect::Memory(m) => write!(f, "memory claims inconsistent: {m}"),
        }
    }
}

/// A rejected certificate: where it failed and the defect found there.
#[derive(Debug, Clone, PartialEq)]
pub struct CertFailure {
    /// Index of the failing node claim, when one node's claim failed.
    pub node: Option<usize>,
    /// What is wrong there.
    pub defect: CertDefect,
    /// The failing claim itself, as parsed (the counterexample).
    pub claim: Option<Json>,
}

impl CertFailure {
    fn document(defect: CertDefect) -> Self {
        CertFailure { node: None, defect, claim: None }
    }

    /// `"document"`, or `"node claim 3"` for one node's claim.
    pub fn location(&self) -> String {
        match self.node {
            None => "document".to_string(),
            Some(i) => format!("node claim {i}"),
        }
    }
}

impl fmt::Display for CertFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate REJECTED at {}: {}", self.location(), self.defect)?;
        if let Some(claim) = &self.claim {
            let mut rendered = claim.render();
            if rendered.len() > 200 {
                rendered.truncate(197);
                rendered.push_str("...");
            }
            write!(f, "\n  counterexample: {rendered}")?;
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
    /// Number of re-validated memory residency claims.
    pub memory_nodes: u64,
}

impl fmt::Display for CertSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate OK: `{}` on {} processors -- {} memory residency claims re-validated",
            self.graph, self.procs, self.memory_nodes
        )
    }
}

/// Re-validate a parsed memory certificate without the graph or the
/// solver: the version gate first, then every memory claim.
pub fn check_certificate(doc: &Json) -> Result<CertSummary, CertFailure> {
    let document = |msg: &str| CertFailure::document(CertDefect::Document(msg.to_string()));
    if !matches!(doc, Json::Obj(_)) {
        return Err(document("certificate is not a JSON object"));
    }
    let Some(version) = doc.get("version") else {
        return Err(document("missing \"version\" field"));
    };
    if version.as_u64() != Some(CERT_VERSION) {
        let v = version.as_f64().unwrap_or(f64::NAN);
        return Err(CertFailure::document(CertDefect::UnsupportedVersion(v)));
    }
    let graph = doc
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| document("missing string field \"graph\""))?
        .to_string();
    let (procs, memory_nodes) = check_memory(doc)?;
    Ok(CertSummary { graph, procs, memory_nodes })
}

/// Re-validate the memory claims with interval arithmetic only.
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
/// Returns the processor count and the number of validated node claims.
fn check_memory(mem: &Json) -> Result<(u64, u64), CertFailure> {
    let fail = |msg: String| CertFailure {
        node: None,
        defect: CertDefect::Memory(msg),
        claim: Some(mem.clone()),
    };
    let num = |field: &str| {
        mem.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(format!("missing numeric field \"{field}\"")))
    };
    let mem_bytes = num("mem_bytes")?;
    if mem_bytes == 0 {
        return Err(fail("\"mem_bytes\" must be at least 1".into()));
    }
    let procs = num("procs")?;
    if procs == 0 {
        return Err(fail("\"procs\" must be at least 1".into()));
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
        // A defect in one node's claim is reported at that claim, with
        // the claim as the counterexample.
        let node_fail =
            |defect: CertDefect| CertFailure { node: Some(i), defect, claim: Some(n.clone()) };
        let bad = |msg: String| node_fail(CertDefect::Memory(msg));
        let nnum = |field: &str| {
            n.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("missing numeric \"{field}\"")))
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
                _ => return Err(bad("interval endpoints not numbers".into())),
            },
            _ => return Err(bad("\"interval\" must be a pair".into())),
        };
        let derived_iv = (total as f64 / p, total as f64);
        if !close(claimed_iv.0, derived_iv.0) || !close(claimed_iv.1, derived_iv.1) {
            return Err(node_fail(CertDefect::IntervalMismatch {
                claimed: claimed_iv,
                derived: derived_iv,
            }));
        }
        let expected_group = total.div_ceil(mem_bytes).max(1);
        let expected_group = if expected_group <= procs { Some(expected_group) } else { None };
        let claimed_group = match n.get("min_group") {
            Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| bad("\"min_group\" not a count".into()))?),
            None => return Err(bad("missing \"min_group\"".into())),
        };
        if claimed_group != expected_group {
            return Err(bad(format!(
                "min_group {claimed_group:?} but footprint {total} over {mem_bytes}-byte \
                 processors derives {expected_group:?}"
            )));
        }
        if demand < total {
            return Err(bad(format!("demand {demand} is below its own working set {total}")));
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
            node: None,
            defect: CertDefect::IntervalMismatch { claimed: peak, derived: derived_peak },
            claim: Some(mem.clone()),
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
    Ok((procs, nodes.len() as u64))
}

/// Parse certificate text and check it. A parse error is reported as
/// an unusable document (the same rejection class as a missing field).
pub fn check_certificate_text(text: &str) -> Result<CertSummary, CertFailure> {
    let doc = parse(text).map_err(|e: JsonError| {
        CertFailure::document(CertDefect::Document(format!("not valid JSON: {e}")))
    })?;
    check_certificate(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::analyze_resources;
    use paradigm_cost::Machine;
    use paradigm_mdg::builders::example_fig1_mdg;

    fn fig1_cert_json() -> Json {
        let g = example_fig1_mdg();
        memory_certificate(g.name(), &analyze_resources(&g, &Machine::cm5(4)))
    }

    /// Set top-level field `key` of `doc` to `v`.
    fn set(doc: &mut Json, key: &str, v: Json) {
        let Json::Obj(members) = doc else { unreachable!() };
        members.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
    }

    #[test]
    fn emitted_certificate_checks_clean() {
        let summary = check_certificate(&fig1_cert_json()).expect("fresh certificate must verify");
        assert_eq!(summary.graph, "fig1-example");
        assert_eq!(summary.procs, 4);
        assert_eq!(summary.memory_nodes, 3, "one residency claim per compute node");
    }

    #[test]
    fn v2_document_is_refused() {
        let mut doc = fig1_cert_json();
        set(&mut doc, "version", Json::num(2.0));
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::UnsupportedVersion(v) if v == 2.0), "{err}");
    }

    #[test]
    fn document_without_memory_claims_is_rejected() {
        let mut doc = fig1_cert_json();
        let Json::Obj(members) = &mut doc else { unreachable!() };
        members.retain(|(k, _)| k != "nodes");
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Memory(_)), "{err}");
        assert!(err.to_string().contains("memory"), "{err}");
    }

    #[test]
    fn tampered_memory_footprint_is_caught() {
        let mut doc = fig1_cert_json();
        {
            let Json::Obj(mem) = &mut doc else { unreachable!() };
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
        assert_eq!(err.node, Some(0), "failure names the tampered claim");
        assert!(err.to_string().contains("REJECTED at node claim 0"), "{err}");
    }

    /// Replace field `key` of node claim `i` with `v`, or drop it (`None`).
    fn set_node(doc: &mut Json, i: usize, key: &str, v: Option<Json>) {
        let Some(Json::Arr(mut nodes)) = doc.get("nodes").cloned() else { unreachable!() };
        let Json::Obj(node) = &mut nodes[i] else { unreachable!() };
        match v {
            Some(v) => node.iter_mut().find(|(k, _)| k == key).unwrap().1 = v,
            None => node.retain(|(k, _)| k != key),
        }
        set(doc, "nodes", Json::Arr(nodes));
    }

    #[test]
    fn a_defective_node_claim_is_reported_at_that_claim() {
        let fresh = fig1_cert_json();
        let Some(Json::Arr(nodes)) = fresh.get("nodes") else { unreachable!() };
        let i = 1;
        let group = nodes[i].get("min_group").and_then(Json::as_u64).unwrap();
        let tampers = [
            ("min_group", Some(Json::num((group + 1) as f64)), "min_group Some("),
            ("demand_bytes", Some(Json::num(0.0)), "below its own working set"),
            ("demand_bytes", None, "missing numeric \"demand_bytes\""),
            ("min_group", None, "missing \"min_group\""),
        ];
        for (key, v, says) in tampers {
            let mut doc = fresh.clone();
            set_node(&mut doc, i, key, v.clone());
            let err = check_certificate(&doc).unwrap_err();
            assert!(matches!(err.defect, CertDefect::Memory(_)), "{key} {v:?}: {err}");
            assert_eq!(err.node, Some(i), "{key} {v:?}: {err}");
            let Some(Json::Arr(tampered)) = doc.get("nodes") else { unreachable!() };
            assert_eq!(err.claim.as_ref(), Some(&tampered[i]), "the claim is the counterexample");
            let text = err.to_string();
            assert!(text.contains(&format!("REJECTED at node claim {i}: ")), "{text}");
            assert!(text.contains(says), "{key} {v:?}: {text}");
        }
    }

    #[test]
    fn tampered_feasibility_verdict_is_caught() {
        let mut doc = fig1_cert_json();
        set(&mut doc, "feasible", Json::Bool(false));
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Memory(_)), "{err}");
        assert!(err.to_string().contains("feasible"), "{err}");
    }

    #[test]
    fn tampered_comm_volume_is_caught() {
        let mut doc = fig1_cert_json();
        let Some(Json::Num(v)) = doc.get("total_comm_bytes").cloned() else { unreachable!() };
        set(&mut doc, "total_comm_bytes", Json::num(v * 2.0));
        let err = check_certificate(&doc).unwrap_err();
        assert!(matches!(err.defect, CertDefect::Memory(_)), "{err}");
        assert!(err.to_string().contains("total_comm_bytes"), "{err}");
    }

    #[test]
    fn certificate_round_trips_through_text() {
        let doc = fig1_cert_json();
        let reparsed = parse(&doc.render()).expect("rendered certificate parses");
        let a = check_certificate(&doc).expect("original verifies");
        assert_eq!(Ok(a), check_certificate(&reparsed));
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
    fn checker_parses_text_and_flags_garbage() {
        assert!(check_certificate_text(&fig1_cert_json().render()).is_ok());
        let err = check_certificate_text("{not json").unwrap_err();
        assert!(matches!(err.defect, CertDefect::Document(_)), "{err}");
    }
}
