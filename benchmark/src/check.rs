//! Output checks behind `failed`: every distinct instance's result is
//! re-verified independently of the solver that produced it.

use crate::workload::Instance;
use paradigm_core::SolveOutput;
use paradigm_mdg::{parse_json, Json};
use paradigm_serve::audit::audit_solve_output;
use paradigm_solver::FallbackTier;

/// `T_psa` of the paper's Figure 1 example on 4 processors.
const FIG1_T_PSA: f64 = 14.3;

/// Everything wrong with one instance's pipeline output; empty = pass.
pub fn check_output(inst: &Instance, out: &SolveOutput) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut fail = |msg: String| wrong.push(format!("{}: {msg}", inst.label));

    // Independent precedence / capacity / memory / claims re-verification.
    let report = audit_solve_output(&inst.graph, &inst.spec, out);
    if !report.is_clean() {
        fail(format!("audit failed:\n{}", report.render()));
    }
    if !(out.phi.is_finite() && out.phi > 0.0 && out.t_psa.is_finite() && out.t_psa > 0.0) {
        fail(format!("non-positive or non-finite phi {} / t_psa {}", out.phi, out.t_psa));
    }
    // Phi is a lower bound on every schedule, up to solver slack.
    if out.phi > out.t_psa * (1.0 + 1e-2) {
        fail(format!("phi {} exceeds t_psa {} by more than 1%", out.phi, out.t_psa));
    }
    if inst.spec.admm {
        match &out.admm {
            Some(stats) if out.degraded == FallbackTier::Admm => {
                if !stats.converged {
                    fail(format!(
                        "ADMM did not converge (r={}, s={}, {} rounds)",
                        stats.primal_residual, stats.dual_residual, stats.outer_iters
                    ));
                }
                // The default partitioner must split the graph itself.
                if stats.blocks < 2 || (inst.admm_blocks > 0 && stats.blocks != inst.admm_blocks) {
                    fail(format!("{} blocks, wanted {}", stats.blocks, inst.admm_blocks.max(2)));
                }
            }
            _ => fail(format!("tier `{}` without ADMM stats, wanted admm", out.degraded)),
        }
    } else if out.degraded != FallbackTier::Primary {
        fail(format!("solver tier `{}`, wanted the primary tier", out.degraded));
    }
    if inst.spec.simulate && !out.sim_makespan.is_some_and(|m| m.is_finite() && m > 0.0) {
        fail(format!("simulation requested but makespan is {:?}", out.sim_makespan));
    }
    if inst.label == "fig1@p4" && (out.t_psa - FIG1_T_PSA).abs() > 1e-9 {
        fail(format!("t_psa {} is not the paper's {FIG1_T_PSA}", out.t_psa));
    }
    wrong
}

/// Two results for the same instance must agree bit for bit.
pub fn check_repeat(inst: &Instance, first: &SolveOutput, again: &SolveOutput) -> Vec<String> {
    if first.phi.to_bits() == again.phi.to_bits() && first.t_psa.to_bits() == again.t_psa.to_bits()
    {
        Vec::new()
    } else {
        vec![format!(
            "{}: not deterministic: phi {} vs {}, t_psa {} vs {}",
            inst.label, first.phi, again.phi, first.t_psa, again.t_psa
        )]
    }
}

/// A served line must parse, say `"ok":true`, and carry exactly the Φ
/// and `T_psa` of the output the service holds for that key.
pub fn check_response(inst: &Instance, line: &str, out: &SolveOutput) -> Vec<String> {
    let fail = |msg: String| vec![format!("{}: {msg}", inst.label)];
    let doc = match parse_json(line) {
        Ok(doc) => doc,
        Err(e) => return fail(format!("response is not JSON: {e}")),
    };
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return fail(format!("response not ok: {}", &line[..line.len().min(200)]));
    }
    if doc.get("degraded").is_some() {
        return fail("served a degraded answer".into());
    }
    let field = |key: &str| doc.get(key).and_then(Json::as_f64).map(f64::to_bits);
    if field("phi") != Some(out.phi.to_bits()) || field("t_psa") != Some(out.t_psa.to_bits()) {
        return fail(format!(
            "served phi/t_psa {:?}/{:?} differ from the cached output's {}/{}",
            doc.get("phi").and_then(Json::as_f64),
            doc.get("t_psa").and_then(Json::as_f64),
            out.phi,
            out.t_psa
        ));
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::compile_op;
    use crate::workload::{build, find};

    #[test]
    fn a_correct_output_passes_and_a_corrupted_one_fails() {
        let inputs = build(find("compile-paper").unwrap(), 1);
        let fig1 = inputs.instances.iter().find(|i| i.label == "fig1@p4").unwrap();
        let out = compile_op(fig1).unwrap();
        assert_eq!(check_output(fig1, &out), Vec::<String>::new());

        let mut wrong = out.clone();
        wrong.t_psa *= 2.0;
        let found = check_output(fig1, &wrong);
        assert!(found.iter().any(|m| m.contains("audit failed")), "{found:?}");
        assert!(found.iter().any(|m| m.contains("paper's 14.3")), "{found:?}");
        assert!(!check_repeat(fig1, &out, &wrong).is_empty());
        assert!(check_repeat(fig1, &out, &out.clone()).is_empty());

        let mut degraded = out.clone();
        degraded.degraded = FallbackTier::EqualSplit;
        assert!(check_output(fig1, &degraded).iter().any(|m| m.contains("primary tier")));
    }

    #[test]
    fn served_lines_must_be_ok_and_carry_the_same_bits() {
        let inputs = build(find("compile-paper").unwrap(), 1);
        let fig1 = &inputs.instances[0];
        let out = compile_op(fig1).unwrap();
        let line = format!("{{\"ok\":true,\"phi\":{},\"t_psa\":{}}}", out.phi, out.t_psa);
        assert!(check_response(fig1, &line, &out).is_empty());
        let off = format!("{{\"ok\":true,\"phi\":{},\"t_psa\":{}}}", out.phi * 1.0001, out.t_psa);
        assert!(!check_response(fig1, &off, &out).is_empty());
        assert!(!check_response(fig1, "{\"ok\":false,\"error\":\"shed\"}", &out).is_empty());
        assert!(!check_response(fig1, "not json", &out).is_empty());
    }
}
