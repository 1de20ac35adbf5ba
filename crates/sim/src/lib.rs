//! # paradigm-sim — a simulated distributed-memory multicomputer
//!
//! The paper's testbed is a 64-node Thinking Machines CM-5; this crate is
//! its stand-in (see DESIGN.md §2 for the substitution argument). It
//! executes *task programs* — MPMD or SPMD lowerings of a scheduled MDG —
//! at the **individual message** level:
//!
//! * every point-to-point message pays a startup plus per-byte cost on
//!   both the sending and the receiving processor;
//! * like the CM-5's receive-side transfer semantics, network bytes are
//!   charged on the receive call (`t_n = 0` stands);
//! * kernel compute times follow the ground-truth machine of [`truth`],
//!   which deliberately deviates from the fitted Amdahl/transfer model by
//!   small systematic perturbations and deterministic noise — so model
//!   fits (paper Tables 1–2), prediction error (Figure 9), and the
//!   MPMD/SPMD comparison (Figure 8) are all non-trivial, exactly as on
//!   real hardware.
//!
//! Module map:
//! * [`truth`] — the ground-truth machine (what "really" happens);
//! * [`program`] — task program representation (tasks and transfers;
//!   the per-pair messages derived from the transfers in a fixed order);
//! * [`codegen`] — lowering a PSA schedule (MPMD) or an SPMD execution
//!   to a task program;
//! * [`engine`] — the deterministic program-order sweep that executes a
//!   task program and reports times and per-processor utilization;
//! * [`engine_event`] — an event-driven reference engine that must agree
//!   with the sweep to the bit;
//! * [`trace`] — per-task comparison of a schedule against its run;
//! * [`measure`] — measurement campaigns that drive the regression fits.

pub mod codegen;
pub mod engine;
pub mod engine_event;
pub mod measure;
pub mod program;
pub mod trace;
pub mod truth;

pub use codegen::{lower_mpmd, lower_spmd};
pub use engine::{simulate, SimResult};
pub use engine_event::simulate_event_driven;
pub use program::{
    for_each_transfer_message, ComputeSpec, SimMessage, SimTask, SimTransfer, TaskProgram,
    ValidProgram,
};
pub use trace::{compare_schedule_vs_sim, render_trace, TaskDiff};
pub use truth::TrueMachine;
