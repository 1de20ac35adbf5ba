//! # paradigm-sched — Prioritized Scheduling Algorithm (PSA)
//!
//! Implements Section 3 of the paper (scheduling) and Section 5
//! (optimality analysis):
//!
//! 1. **Rounding** — the convex program's continuous allocation is
//!    rounded to the nearest power of two ([`rounding`]), changing each
//!    `p_i` by at most a factor `[2/3, 4/3]`.
//! 2. **Bounding** — allocations are clamped to the processor bound `PB`
//!    chosen by Corollary 1 ([`bounds::optimal_pb`]).
//! 3. **PSA** — a prioritized list scheduler: repeatedly pick the ready
//!    node with the lowest Earliest Start Time and place it at
//!    `max(EST, PST)` where PST is when its processor demand can be met
//!    ([`psa`]).
//!
//! [`baselines`] provides the SPMD (pure data parallelism) and
//! task-parallel comparison schedules used for the paper's Figure 8, and
//! [`bounds`] the Theorem 1–3 worst-case factors that the test-suite
//! asserts against every produced schedule.
//!
//! [`schedule_check`] is the one schedule checker: precedence with
//! network delays, processor exclusivity, durations, allocations and the
//! `y_i` recurrence bound, every violation reported together;
//! [`Schedule::validate`] is its `Result` view.

pub mod analysis;
pub mod baselines;
pub mod bounds;
pub mod psa;
pub mod refine;
pub mod rounding;
pub mod schedule;
pub mod schedule_check;

pub use analysis::{gantt_svg, idle_profile, to_csv, IdleProfile};
pub use baselines::{serial_schedule, spmd_schedule, task_parallel_schedule};
pub use bounds::{optimal_pb, theorem1_factor, theorem2_factor, theorem3_factor};
pub use psa::{psa_schedule, PsaConfig, PsaResult, SchedPolicy};
pub use refine::{refine_allocation, RefineResult};
pub use rounding::{bound_allocation, round_allocation, round_pow2};
pub use schedule::{Schedule, Task, TasksByNode};
pub use schedule_check::{analyze_schedule, ScheduleReport, ScheduleViolation};
