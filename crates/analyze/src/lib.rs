//! # paradigm-analyze — static analysis for the PARADIGM pipeline
//!
//! Three independent passes that check, rather than compute, the
//! pipeline's load-bearing claims:
//!
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
//!   `missing-footprint`). [`cert`] renders the analysis as a versioned
//!   memory certificate and re-checks one without the graph or solver.
//!
//! The paper's Section 2 convexity claim needs no pass here: every
//! `paradigm_solver::Expr` is a generalized posynomial by construction.
//!
//! The passes are pure functions over the existing data structures; they
//! are wired into `paradigm serve`'s sampled audits and the `paradigm
//! analyze` CLI subcommand.

pub mod cert;
pub mod diff;
pub mod lint;
pub mod resources;
pub mod schedule_check;

pub use cert::{
    check_certificate, check_certificate_text, memory_certificate, CertDefect, CertFailure,
    CertSummary, CERT_VERSION,
};
pub use diff::unified_diff;
pub use lint::{
    apply_fixes, has_errors, lint_mdg, render_diagnostics, Diagnostic, Fix, Lint, LintLocation,
    LintSet, Severity,
};
pub use resources::{
    analyze_resources, check_schedule_memory, memory_lint_set, MemorySweep, MemoryViolation,
    NodeResidency, ResourceAnalysis, MEM_RTOL,
};
pub use schedule_check::{AuditClaims, AuditReport, AuditViolation, ScheduleAuditor};
