//! Sampled re-verification of served solve results.
//!
//! The serving layer answers from a cache and a degraded fallback, so a
//! single bad entry — a stale schedule, a corrupted fallback, a solver
//! regression — can be replayed to many clients. [`audit_solve_output`]
//! re-checks one [`SolveOutput`] from first principles using
//! [`paradigm_analyze::ScheduleAuditor`]: node and edge weights are
//! re-derived from the graph, machine, and rounded allocation, the
//! completion recurrence is re-run, machine-wide capacity is swept, and
//! the reported `Phi`/`T_psa` are checked against the schedule itself.
//! Nothing the solver computed is trusted.
//!
//! [`crate::ServeConfig::audit_rate`] samples this check over live
//! traffic (every `N`th completed response, including cache hits and
//! degraded-tier answers); results land in the `audit_pass` /
//! `audit_fail` metrics and the first failure is kept verbatim for
//! post-mortems.

use paradigm_analyze::{AuditClaims, AuditReport, ScheduleAuditor};
use paradigm_core::{SolveOutput, SolveSpec};
use paradigm_cost::Allocation;
use paradigm_mdg::Mdg;

/// Re-verify one pipeline output against the graph and spec that
/// produced it. Returns the full audit report; [`AuditReport::is_clean`]
/// is the pass/fail signal.
pub fn audit_solve_output(g: &Mdg, spec: &SolveSpec, out: &SolveOutput) -> AuditReport {
    // Rebuild the rounded allocation the schedule claims to realize.
    // `SolveOutput::alloc` lists compute nodes in node-index order —
    // the same order `g.nodes()` yields them — and structural nodes
    // always run on one processor.
    let mut alloc = Allocation::uniform(g, 1.0);
    for ((id, _), entry) in g.nodes().filter(|(_, n)| !n.is_structural()).zip(&out.alloc) {
        alloc.set(id, f64::from(entry.procs.max(1)));
    }
    let claims = AuditClaims { phi: out.phi, t_psa: out.t_psa, tier: out.degraded };
    ScheduleAuditor::new().audit(g, &spec.machine, &alloc, &out.schedule, &claims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_core::{gallery_graph, solve_pipeline_degraded, try_solve_pipeline};
    use paradigm_cost::Machine;

    #[test]
    fn primary_pipeline_output_audits_clean() {
        let g = gallery_graph("fig1").unwrap();
        let spec = SolveSpec::new(Machine::cm5(4));
        let out = try_solve_pipeline(&g, &spec).unwrap();
        let rep = audit_solve_output(&g, &spec, &out);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn degraded_pipeline_output_audits_clean() {
        let g = gallery_graph("fig1").unwrap();
        let spec = SolveSpec::new(Machine::cm5(4));
        let out = solve_pipeline_degraded(&g, &spec);
        let rep = audit_solve_output(&g, &spec, &out);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn corrupted_output_fails_the_audit() {
        let g = gallery_graph("fig1").unwrap();
        let spec = SolveSpec::new(Machine::cm5(4));
        let mut out = try_solve_pipeline(&g, &spec).unwrap();
        out.t_psa *= 2.0; // claim no longer matches the schedule
        let rep = audit_solve_output(&g, &spec, &out);
        assert!(!rep.is_clean());
    }
}
