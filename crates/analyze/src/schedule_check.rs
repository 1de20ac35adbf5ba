//! Sampled re-verification of a solve result's schedule.
//!
//! [`ScheduleAuditor`] trusts nothing the solver computed: it re-derives
//! the node and edge weights from the graph, machine and rounded
//! allocation, runs [`paradigm_sched::analyze_schedule`] against them
//! (races, precedence, the `y_i` recurrence bound), and adds what a
//! schedule and its weights alone cannot show — machine-wide capacity,
//! per-processor memory, and the reported `Phi`/`T_psa` claims.

use paradigm_cost::{Allocation, Machine, MdgWeights};
use paradigm_mdg::Mdg;
use paradigm_sched::{analyze_schedule, idle_profile, Schedule, ScheduleReport};
use paradigm_solver::FallbackTier;
use std::fmt;

/// Relative tolerance for the `T_psa` claim (the schedule checker's).
const TOL: f64 = 1e-9;

/// What a solve result claims about its schedule, for [`ScheduleAuditor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditClaims {
    /// The continuous optimum `Phi` the solver reported.
    pub phi: f64,
    /// The reported PSA makespan `T_psa`.
    pub t_psa: f64,
    /// Which fallback tier produced the result. Degraded tiers keep
    /// their precedence/capacity obligations but are exempt from the
    /// `Phi <= T_psa` lower-bound check: the rounded allocation they
    /// schedule can legitimately undercut their continuous `Phi`.
    pub tier: FallbackTier,
}

/// One problem found by the audit on top of [`analyze_schedule`]'s checks.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// More processors busy at one instant than the machine has
    /// (`Σ p_i <= p` violated), independent of processor ids.
    Oversubscribed {
        /// The instant of peak over-use.
        at: f64,
        /// Processors busy at that instant.
        used: usize,
        /// Processors the machine has.
        available: u32,
    },
    /// The schedule was built for a different machine size than audited.
    MachineSizeMismatch {
        /// `machine_procs` recorded in the schedule.
        schedule: u32,
        /// Processors of the machine under audit.
        machine: u32,
    },
    /// The allocation has a different node count than the graph, so
    /// weights cannot even be re-derived.
    AllocationShapeMismatch {
        /// Entries in the allocation.
        alloc: usize,
        /// Nodes in the graph.
        graph: usize,
    },
    /// A processor's resident set exceeds its memory capacity under the
    /// even block-distribution model ([`crate::resources`]).
    MemoryOverCapacity {
        /// The offending processor.
        proc: u32,
        /// The instant the resident set first exceeded capacity.
        at: f64,
        /// Model resident bytes at that instant.
        resident_bytes: f64,
        /// The per-processor capacity.
        capacity_bytes: u64,
    },
    /// The reported `T_psa` differs from the schedule's makespan.
    MakespanClaimMismatch {
        /// The claimed `T_psa`.
        claimed: f64,
        /// The schedule's actual makespan.
        actual: f64,
    },
    /// The reported `Phi` is NaN, infinite, or non-positive.
    PhiClaimNotFinite {
        /// The claimed value.
        phi: f64,
    },
    /// A primary-tier `Phi` exceeds the realized makespan: `Phi` is a
    /// lower bound on every schedule of the optimal allocation, so the
    /// claim and the schedule cannot both be right.
    PhiExceedsMakespan {
        /// The claimed `Phi`.
        phi: f64,
        /// The schedule's makespan.
        makespan: f64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AuditViolation::*;
        match self {
            Oversubscribed { at, used, available } => {
                write!(f, "{used} processors busy at t = {at}, machine has {available}")
            }
            MachineSizeMismatch { schedule, machine } => {
                write!(f, "schedule built for {schedule} processors, audited against {machine}")
            }
            AllocationShapeMismatch { alloc, graph } => {
                write!(f, "allocation covers {alloc} nodes, graph has {graph}")
            }
            MemoryOverCapacity { proc, at, resident_bytes, capacity_bytes } => write!(
                f,
                "processor {proc} holds {resident_bytes:.0} resident bytes at t = {at}, \
                 capacity is {capacity_bytes}"
            ),
            MakespanClaimMismatch { claimed, actual } => {
                write!(f, "claimed T_psa {claimed} != schedule makespan {actual}")
            }
            PhiClaimNotFinite { phi } => write!(f, "claimed Phi {phi} is not a positive number"),
            PhiExceedsMakespan { phi, makespan } => {
                write!(f, "claimed Phi {phi} exceeds the realized makespan {makespan}")
            }
        }
    }
}

/// Everything one [`ScheduleAuditor::audit`] run found.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The full sweep-line/precedence/recurrence report.
    pub schedule: ScheduleReport,
    /// Capacity and claim checks on top of it.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when neither layer found a problem.
    pub fn is_clean(&self) -> bool {
        self.schedule.is_clean() && self.violations.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = self.schedule.render();
        if self.violations.is_empty() {
            out.push_str("audit: capacity and Phi claims consistent\n");
        } else {
            out.push_str(&format!("{} audit violation(s):\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  - {v}\n"));
            }
        }
        out
    }
}

/// Independent re-verification of a solve result's schedule.
///
/// The auditor trusts *nothing* the solver computed: node and edge
/// weights are re-derived from the graph, machine, and rounded
/// allocation via [`MdgWeights::compute`], the completion recurrence is
/// re-run, precedence and per-processor races re-checked
/// ([`analyze_schedule`]), and two properties [`analyze_schedule`]
/// cannot see are added — machine-wide capacity (`Σ p_i <= p` at every
/// instant, immune to forged processor ids) and consistency of the
/// reported `Phi`/`T_psa` claims with the schedule itself.
#[derive(Debug, Clone, Default)]
pub struct ScheduleAuditor;

/// Headroom allowed on the primary-tier `Phi <= T_psa` bound, as a
/// fraction of the makespan. Covers the fast solver's documented
/// convergence slack (about 1%).
const PHI_SLACK: f64 = 0.05;

/// *Additional* headroom on the same bound for results produced by the
/// consensus-ADMM tier ([`FallbackTier::Admm`]). ADMM stops on residuals
/// rather than at a proven optimum, so its `Phi` sits within the
/// consensus tolerance of the dense optimum (the convergence tests pin
/// this at 1%).
const ADMM_PHI_SLACK: f64 = 0.05;

impl ScheduleAuditor {
    /// An auditor with the fixed `Phi` slack.
    pub fn new() -> Self {
        ScheduleAuditor
    }

    /// Audit `s` as a schedule of `g` on `machine` under the rounded
    /// allocation `alloc`, against the solver's `claims`.
    pub fn audit(
        &self,
        g: &Mdg,
        machine: &Machine,
        alloc: &Allocation,
        s: &Schedule,
        claims: &AuditClaims,
    ) -> AuditReport {
        let mut violations = Vec::new();

        // An allocation for the wrong graph makes weight re-derivation
        // meaningless; report that one fact instead of panicking.
        if alloc.len() != g.node_count() {
            violations.push(AuditViolation::AllocationShapeMismatch {
                alloc: alloc.len(),
                graph: g.node_count(),
            });
            return AuditReport {
                schedule: ScheduleReport {
                    violations: Vec::new(),
                    recomputed_cp: f64::NAN,
                    reported_makespan: s.makespan,
                },
                violations,
            };
        }
        // Widening the machine for weight purposes is sound: node and
        // edge weights depend on the allocation and transfer constants,
        // not on `p` — only the capacity check below uses `p`, and that
        // still audits against the real machine.
        let eff_machine = if alloc.max() > f64::from(machine.procs) {
            Machine {
                procs: alloc.max().ceil() as u32,
                xfer: machine.xfer,
                mem_bytes: machine.mem_bytes,
            }
        } else {
            *machine
        };
        let w = MdgWeights::compute(g, &eff_machine, alloc);
        let schedule = analyze_schedule(g, &w, s);

        if s.machine_procs != machine.procs {
            violations.push(AuditViolation::MachineSizeMismatch {
                schedule: s.machine_procs,
                machine: machine.procs,
            });
        }

        // Machine-wide capacity: the idle profile's busy-processor sweep
        // (a task with a non-finite start or finish occupies nothing).
        let busy = idle_profile(s, machine.procs);
        if busy.peak_busy > machine.procs as usize {
            violations.push(AuditViolation::Oversubscribed {
                at: busy.peak_at,
                used: busy.peak_busy,
                available: machine.procs,
            });
        }

        // Memory sweep: per-processor resident sets under the even
        // block-distribution model must fit `machine.mem_bytes`.
        for v in crate::resources::check_schedule_memory(g, machine, s).violations {
            violations.push(AuditViolation::MemoryOverCapacity {
                proc: v.proc,
                at: v.at,
                resident_bytes: v.resident_bytes,
                capacity_bytes: v.capacity_bytes,
            });
        }

        // Claim checks.
        if (claims.t_psa - s.makespan).abs() > TOL * s.makespan.abs().max(1.0) {
            violations.push(AuditViolation::MakespanClaimMismatch {
                claimed: claims.t_psa,
                actual: s.makespan,
            });
        }
        if !claims.phi.is_finite() || claims.phi <= 0.0 {
            violations.push(AuditViolation::PhiClaimNotFinite { phi: claims.phi });
        } else if !claims.tier.is_degraded() {
            // Primary and ADMM results both claim a (near-)optimal Phi,
            // so `Phi <= T_psa` must hold up to convergence slack; ADMM
            // gets extra headroom for its residual-based stopping rule.
            // The degraded tier (equal-split) makes no
            // optimality claim, so the bound does not apply to them.
            let slack = match claims.tier {
                FallbackTier::Admm => PHI_SLACK + ADMM_PHI_SLACK,
                _ => PHI_SLACK,
            };
            if claims.phi > s.makespan * (1.0 + slack) {
                violations.push(AuditViolation::PhiExceedsMakespan {
                    phi: claims.phi,
                    makespan: s.makespan,
                });
            }
        }

        AuditReport { schedule, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_mdg::{example_fig1_mdg, AmdahlParams, ArrayTransfer, MdgBuilder, NodeId};
    use paradigm_sched::{psa_schedule, PsaConfig, ScheduleViolation};

    fn fig1_psa() -> (Mdg, MdgWeights, Schedule) {
        let g = example_fig1_mdg();
        let mut alloc = Allocation::uniform(&g, 1.0);
        alloc.set(NodeId(1), 4.0);
        alloc.set(NodeId(2), 2.0);
        alloc.set(NodeId(3), 2.0);
        let res = psa_schedule(&g, Machine::cm5(4), &alloc, &PsaConfig::default());
        (g, res.weights, res.schedule)
    }

    fn fig1_claims(s: &Schedule, tier: FallbackTier) -> AuditClaims {
        AuditClaims { phi: s.makespan * 0.95, t_psa: s.makespan, tier }
    }

    fn fig1_alloc(g: &Mdg) -> Allocation {
        let mut alloc = Allocation::uniform(g, 1.0);
        alloc.set(NodeId(1), 4.0);
        alloc.set(NodeId(2), 2.0);
        alloc.set(NodeId(3), 2.0);
        alloc
    }

    #[test]
    fn auditor_passes_a_clean_psa_schedule() {
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(4);
        for tier in [FallbackTier::Primary, FallbackTier::EqualSplit] {
            let rep = ScheduleAuditor::new().audit(&g, &m, &alloc, &s, &fig1_claims(&s, tier));
            assert!(rep.is_clean(), "{}", rep.render());
            assert!(rep.render().contains("audit: capacity and Phi claims consistent"));
        }
    }

    #[test]
    fn auditor_flags_memory_over_capacity() {
        // A 256x256 producer/consumer pair moves 512 KiB arrays; a
        // machine with 64 KiB nodes cannot hold them however the tasks
        // are spread over its 4 processors.
        let mut b = MdgBuilder::new("mem-audit");
        let a = b.compute_with_meta(
            "a",
            AmdahlParams::new(0.05, 1.0),
            paradigm_mdg::LoopMeta::square(paradigm_mdg::LoopClass::MatrixInit, 256),
        );
        let c = b.compute_with_meta(
            "c",
            AmdahlParams::new(0.05, 1.0),
            paradigm_mdg::LoopMeta::square(paradigm_mdg::LoopClass::MatrixAdd, 256),
        );
        b.edge(a, c, vec![ArrayTransfer::matrix_1d(256, 256)]);
        let g = b.finish().unwrap();
        let alloc = Allocation::uniform(&g, 2.0);
        let big = Machine::cm5(4);
        let res = psa_schedule(&g, big, &alloc, &PsaConfig::default());
        let claims = fig1_claims(&res.schedule, FallbackTier::Primary);
        let auditor = ScheduleAuditor::new();

        // Plenty of memory: clean.
        let rep = auditor.audit(&g, &big, &alloc, &res.schedule, &claims);
        assert!(rep.is_clean(), "{}", rep.render());

        // Starved machine: the same schedule is rejected for memory.
        let tiny = Machine::cm5(4).with_mem_bytes(64 * 1024);
        let rep = auditor.audit(&g, &tiny, &alloc, &res.schedule, &claims);
        assert!(!rep.is_clean());
        assert!(
            rep.violations.iter().any(|v| matches!(v, AuditViolation::MemoryOverCapacity { .. })),
            "{}",
            rep.render()
        );
        assert!(rep.render().contains("resident bytes"), "{}", rep.render());
    }

    #[test]
    fn swapped_start_times_are_caught_under_every_tier() {
        // The corruption from the acceptance criteria: swap two tasks'
        // start times so exactly one precedence edge is violated.
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(4);
        let mut bad = s.clone();
        let i1 = bad.tasks.iter().position(|t| t.node == NodeId(1)).unwrap();
        let i2 = bad.tasks.iter().position(|t| t.node == NodeId(2)).unwrap();
        let (s1, s2) = (bad.tasks[i1].start, bad.tasks[i2].start);
        let (d1, d2) = (bad.tasks[i1].duration(), bad.tasks[i2].duration());
        bad.tasks[i1].start = s2;
        bad.tasks[i1].finish = s2 + d1;
        bad.tasks[i2].start = s1;
        bad.tasks[i2].finish = s1 + d2;
        for tier in [FallbackTier::Primary, FallbackTier::EqualSplit] {
            let rep = ScheduleAuditor::new().audit(&g, &m, &alloc, &bad, &fig1_claims(&s, tier));
            assert!(!rep.is_clean(), "corruption must be caught under {tier:?}");
            assert!(
                rep.schedule
                    .violations
                    .iter()
                    .any(|v| matches!(v, ScheduleViolation::PrecedenceViolation { .. })),
                "{}",
                rep.render()
            );
        }
    }

    #[test]
    fn oversubscription_is_caught_against_a_smaller_machine() {
        // fig1's PSA on cm5(4) runs 4 processors concurrently; audited
        // against a 2-processor machine the capacity sweep must fire
        // even though per-processor interval checks see no overlap.
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(2);
        let rep = ScheduleAuditor::new().audit(
            &g,
            &m,
            &alloc,
            &s,
            &fig1_claims(&s, FallbackTier::Primary),
        );
        assert!(
            rep.violations.iter().any(|v| matches!(
                v,
                AuditViolation::Oversubscribed { at, used: 4, available: 2 } if *at == 0.0
            )),
            "{}",
            rep.render()
        );
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::MachineSizeMismatch { .. })));
    }

    #[test]
    fn makespan_and_phi_claim_lies_are_caught() {
        let (g, _, s) = fig1_psa();
        let alloc = fig1_alloc(&g);
        let m = Machine::cm5(4);
        let auditor = ScheduleAuditor::new();

        let lie =
            AuditClaims { phi: s.makespan, t_psa: s.makespan * 2.0, tier: FallbackTier::Primary };
        let rep = auditor.audit(&g, &m, &alloc, &s, &lie);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::MakespanClaimMismatch { .. })));

        let phi_lie =
            AuditClaims { phi: s.makespan * 2.0, t_psa: s.makespan, tier: FallbackTier::Primary };
        let rep = auditor.audit(&g, &m, &alloc, &s, &phi_lie);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::PhiExceedsMakespan { .. })));

        // The ADMM tier claims near-optimality, so a wildly inflated
        // Phi is still caught there...
        let admm_lie =
            AuditClaims { phi: s.makespan * 2.0, t_psa: s.makespan, tier: FallbackTier::Admm };
        let rep = auditor.audit(&g, &m, &alloc, &s, &admm_lie);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::PhiExceedsMakespan { .. })));

        // ...while a Phi inside the combined primary + consensus slack
        // passes under ADMM but would fail under the primary tier.
        let admm_slack = AuditClaims {
            phi: s.makespan * (1.0 + PHI_SLACK + ADMM_PHI_SLACK * 0.5),
            t_psa: s.makespan,
            tier: FallbackTier::Admm,
        };
        assert!(auditor.audit(&g, &m, &alloc, &s, &admm_slack).is_clean());
        let primary_same = AuditClaims { tier: FallbackTier::Primary, ..admm_slack };
        assert!(!auditor.audit(&g, &m, &alloc, &s, &primary_same).is_clean());

        // Degraded tiers are exempt from the lower-bound check...
        let degraded = AuditClaims {
            phi: s.makespan * 2.0,
            t_psa: s.makespan,
            tier: FallbackTier::EqualSplit,
        };
        assert!(auditor.audit(&g, &m, &alloc, &s, &degraded).is_clean());

        // ...but never from basic sanity.
        let nan = AuditClaims { phi: f64::NAN, t_psa: s.makespan, tier: FallbackTier::EqualSplit };
        let rep = auditor.audit(&g, &m, &alloc, &s, &nan);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::PhiClaimNotFinite { .. })));
    }

    #[test]
    fn mismatched_allocation_is_reported_not_a_panic() {
        let (g, _, s) = fig1_psa();
        // An allocation sized for a different graph.
        let alloc = Allocation::new(vec![1.0; g.node_count() + 3]);
        let m = Machine::cm5(4);
        let rep = ScheduleAuditor::new().audit(
            &g,
            &m,
            &alloc,
            &s,
            &fig1_claims(&s, FallbackTier::Primary),
        );
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, AuditViolation::AllocationShapeMismatch { .. })),
            "{}",
            rep.render()
        );
    }
}
