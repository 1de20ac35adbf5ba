//! Property-based tests of the simulator: program validity after
//! lowering, timing sanity, conservation of message bytes, and
//! SPMD/MPMD relationships, over random MDGs.

use paradigm_cost::{Allocation, Machine};
use paradigm_mdg::{random_layered_mdg, RandomMdgConfig};
use paradigm_sched::{psa_schedule, PsaConfig};
use paradigm_sim::{
    for_each_transfer_message, lower_mpmd, lower_spmd, simulate, SimResult, TrueMachine,
};
use proptest::prelude::*;

/// Every time a run recorded, by field, as bits; the involvement windows
/// keep their per-task shape.
fn time_bits(r: &SimResult) -> Vec<(&'static str, Vec<u64>)> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let windows = |w: &[(f64, f64)]| w.iter().flat_map(|&(s, e)| [s, e]).collect::<Vec<f64>>();
    let mut out = vec![
        ("makespan", bits(&[r.makespan])),
        ("task_start", bits(&r.task_start)),
        ("task_finish", bits(&r.task_finish)),
        ("proc_busy", bits(&r.proc_busy)),
        ("msg_avail", bits(&r.msg_avail)),
    ];
    out.extend(r.involvement.iter().map(|w| ("involvement", bits(&windows(w)))));
    out
}

fn arb_cfg() -> impl Strategy<Value = RandomMdgConfig> {
    (1usize..=4, 1usize..=4, 0.0f64..0.8, 0.0f64..1.0).prop_map(
        |(layers, width, edge_prob, two_d_prob)| RandomMdgConfig {
            layers,
            width_min: 1,
            width_max: width,
            edge_prob,
            two_d_prob,
            ..RandomMdgConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn transfer_synthesis_conserves_bytes(
        bytes in 1u64..5_000_000,
        pi in 1usize..33,
        pj in 1usize..33,
        two_d in any::<bool>(),
    ) {
        let kind = if two_d {
            paradigm_mdg::TransferKind::TwoD
        } else {
            paradigm_mdg::TransferKind::OneD
        };
        let mut msgs = Vec::new();
        for_each_transfer_message(bytes, kind, pi, pj, |s, d, b| msgs.push((s, d, b)));
        let total: u64 = msgs.iter().map(|m| m.2).sum();
        prop_assert_eq!(total, bytes);
        for &(s, d, b) in &msgs {
            prop_assert!((s as usize) < pi && (d as usize) < pj);
            prop_assert!(b > 0);
        }
        if two_d {
            prop_assert!(msgs.len() <= pi * pj);
        } else {
            prop_assert!(msgs.len() < pi + pj);
        }
    }

    #[test]
    fn lowered_programs_always_validate(cfg in arb_cfg(), seed in 0u64..3000, pk in 0u32..=6, q in 1.0f64..32.0) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let m = Machine::cm5(p);
        let alloc = Allocation::uniform(&g, q.min(p as f64));
        let res = psa_schedule(&g, m, &alloc, &PsaConfig::default());
        let mpmd = lower_mpmd(&g, &res.schedule);
        prop_assert!(mpmd.validate().is_ok());
        let spmd = lower_spmd(&g, p);
        prop_assert!(spmd.validate().is_ok());
    }

    #[test]
    fn simulation_is_deterministic(cfg in arb_cfg(), seed in 0u64..3000) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 8u32;
        let res = psa_schedule(&g, Machine::cm5(p), &Allocation::uniform(&g, 2.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let truth = TrueMachine::cm5(p);
        let a = simulate(&prog, &truth);
        let b = simulate(&prog, &truth);
        prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        prop_assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    fn noise_free_mpmd_close_to_schedule(cfg in arb_cfg(), seed in 0u64..3000) {
        // On the ideal machine (no noise/wobble), differences between
        // the simulated run and the schedule prediction come only from
        // message-level granularity, local-copy discounts, and token
        // messages — all bounded effects.
        let g = random_layered_mdg(&cfg, seed);
        let p = 8u32;
        let m = Machine::cm5(p);
        let res = psa_schedule(&g, m, &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let sim = simulate(&prog, &TrueMachine::ideal(p));
        let ratio = sim.makespan / res.t_psa;
        prop_assert!((0.4..=1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn task_finishes_monotone_with_messages(cfg in arb_cfg(), seed in 0u64..3000) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 8u32;
        let res = psa_schedule(&g, Machine::cm5(p), &Allocation::uniform(&g, 2.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let sim = simulate(&prog, &TrueMachine::cm5(p));
        for tr in &prog.transfers {
            // A consumer's compute start can never precede its producer's
            // compute start (transitively enforced by the transfer).
            prop_assert!(
                sim.task_start[tr.to_task] >= sim.task_start[tr.from_task] - 1e-12
            );
        }
    }

    /// Every recorded time, as bits, and both counts: MPMD and SPMD
    /// lowerings, on the CM-5 and on a mesh with network delays.
    #[test]
    fn sweep_and_event_engines_agree_bit_exactly(
        cfg in arb_cfg(),
        seed in 0u64..3000,
        pk in 0u32..=5,
        spmd in any::<bool>(),
        mesh in any::<bool>(),
    ) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 1u32 << pk;
        let prog = if spmd {
            lower_spmd(&g, p)
        } else {
            let m = Machine::cm5(p);
            let alloc = Allocation::uniform(&g, (p as f64 / 2.0).max(1.0));
            lower_mpmd(&g, &psa_schedule(&g, m, &alloc, &PsaConfig::default()).schedule)
        };
        let truth = if mesh { TrueMachine::mesh(p) } else { TrueMachine::cm5(p) };
        let a = simulate(&prog, &truth);
        let b = paradigm_sim::simulate_event_driven(&prog, &truth);
        prop_assert_eq!(a.messages_sent, b.messages_sent);
        prop_assert_eq!(a.local_copies, b.local_copies);
        prop_assert_eq!(time_bits(&a), time_bits(&b));
    }

    #[test]
    fn makespan_bounds_all_task_finishes(cfg in arb_cfg(), seed in 0u64..3000) {
        let g = random_layered_mdg(&cfg, seed);
        let p = 16u32;
        let res = psa_schedule(&g, Machine::cm5(p), &Allocation::uniform(&g, 4.0), &PsaConfig::default());
        let prog = lower_mpmd(&g, &res.schedule);
        let sim = simulate(&prog, &TrueMachine::cm5(p));
        for &f in &sim.task_finish {
            prop_assert!(f <= sim.makespan + 1e-12);
        }
    }
}
