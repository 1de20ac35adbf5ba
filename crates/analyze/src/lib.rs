//! # paradigm-analyze — static analysis for the PARADIGM pipeline
//!
//! Four independent passes that check, rather than compute, the
//! pipeline's load-bearing claims:
//!
//! * [`posynomial`] — **symbolic convexity certification**. Walks the
//!   solver's expression IR and proves each expression is a monomial /
//!   posynomial / generalized posynomial (returning the derivation tree),
//!   or produces the minimal counterexample path. [`certify_objective`]
//!   extends this compositionally to the full `Phi = max(A_p, C_p)`
//!   objective through the completion recurrence, which is the paper's
//!   Section 2 convexity claim made machine-checkable.
//! * [`schedule_check`] — **schedule audits**. [`ScheduleAuditor`]
//!   re-derives a solve result's weights from the graph, machine and
//!   rounded allocation, runs [`paradigm_sched::analyze_schedule`] (races,
//!   precedence, the `y_i` recurrence bound) against them, and adds
//!   machine-wide capacity, per-processor memory and the reported
//!   `Phi`/`T_psa` claims.
//! * [`lint`] — **MDG lints**. Pluggable diagnostics over suspicious
//!   metadata of a valid graph (zero-cost nodes, transfers that disagree
//!   with their producer's dims, placeholder loop dims, ...) with
//!   compiler-style rendering and mechanical fixes.
//! * [`resources`] — **static resource analysis**. Sound interval bounds
//!   on per-processor peak resident memory and total communication
//!   volume, pre-schedule (over every allocation) and post-schedule
//!   (sweep-line over the PSA schedule), plus the memory lints
//!   (`memory-infeasible`, `oversubscribed-footprint`,
//!   `missing-footprint`).
//!
//! The passes are pure functions over the existing data structures; they
//! are wired into `paradigm serve`'s sampled audits and the `paradigm
//! analyze` CLI subcommand.

pub mod cert;
pub mod diff;
pub mod lint;
pub mod posynomial;
pub mod resources;
pub mod schedule_check;

pub use cert::{
    certificate_dot, certificate_json, certificate_json_with_tier, check_certificate,
    check_certificate_text, memory_json, CertDefect, CertFailure, CertPart, CertSummary,
    CERT_VERSION,
};
pub use diff::unified_diff;
pub use lint::{
    apply_fixes, has_errors, lint_mdg, render_diagnostics, Diagnostic, Fix, Lint, LintLocation,
    LintSet, Severity,
};
pub use posynomial::{
    certify, certify_in, certify_objective, Certificate, Defect, ExprClass, NonPosynomial,
    ObjectiveCertificate, ObjectiveCounterexample, ObjectivePart, Rule,
};
pub use resources::{
    analyze_resources, check_schedule_memory, memory_lint_set, MemorySweep, MemoryViolation,
    NodeResidency, ResourceAnalysis, MEM_RTOL,
};
pub use schedule_check::{AuditClaims, AuditReport, AuditViolation, ScheduleAuditor};
