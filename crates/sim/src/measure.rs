//! Measurement campaigns — the "training sets" runs of the paper's
//! Section 4, executed against the simulated machine.
//!
//! * [`measure_processing`] runs a kernel at a sweep of processor counts
//!   and records wall times (feeds `paradigm_cost::regression::fit_amdahl`
//!   — Table 1 / Figure 3);
//! * [`measure_transfers`] executes single redistribution operations
//!   between disjoint processor groups and records the per-component
//!   times (feeds `fit_transfer` — Table 2 / Figure 5).

use crate::program::for_each_transfer_message;
use crate::truth::TrueMachine;
use paradigm_cost::regression::{ProcessingSample, TransferSample};
use paradigm_mdg::{LoopClass, TransferKind};

/// Measure a kernel's execution time at each processor count in `qs`,
/// `reps` times each (distinct noise sites per repetition).
pub fn measure_processing(
    truth: &TrueMachine,
    class: &LoopClass,
    n: usize,
    qs: &[u32],
    reps: usize,
) -> Vec<ProcessingSample> {
    assert!(reps >= 1);
    let mut out = Vec::with_capacity(qs.len() * reps);
    for (qi, &q) in qs.iter().enumerate() {
        for r in 0..reps {
            let site = (qi * 1009 + r) as u64 ^ 0xBEEF;
            let time = truth.kernel_time(class, n, n, q, site);
            out.push(ProcessingSample { q: q as f64, time });
        }
    }
    out
}

/// Execute one redistribution of `bytes` bytes between a `pi`-processor
/// sending group and a disjoint `pj`-processor receiving group and
/// measure the three cost components, each as the maximum over the
/// processors of its side (the model's per-processor view).
pub fn measure_one_transfer(
    truth: &TrueMachine,
    kind: TransferKind,
    bytes: u64,
    pi: usize,
    pj: usize,
    site: u64,
) -> TransferSample {
    let mut send_per = vec![0.0_f64; pi];
    let mut recv_per = vec![0.0_f64; pj];
    let mut net_max = 0.0_f64;
    let mut k = 0u64;
    for_each_transfer_message(bytes, kind, pi, pj, |sr, dr, b| {
        let key = site.wrapping_mul(6364136223846793005).wrapping_add(k);
        send_per[sr as usize] += truth.send_time(b, key);
        recv_per[dr as usize] += truth.recv_time(b, key);
        net_max = net_max.max(truth.net_delay(b));
        k += 1;
    });
    TransferSample {
        kind,
        bytes,
        pi: pi as f64,
        pj: pj as f64,
        send_time: send_per.iter().copied().fold(0.0, f64::max),
        net_time: net_max,
        recv_time: recv_per.iter().copied().fold(0.0, f64::max),
    }
}

/// A full Table-2 style campaign: both transfer kinds, a size sweep, and
/// a grid of group sizes.
pub fn measure_transfers(
    truth: &TrueMachine,
    sizes: &[u64],
    group_sizes: &[usize],
) -> Vec<TransferSample> {
    let mut out = Vec::new();
    let mut site = 1u64;
    for &kind in &[TransferKind::OneD, TransferKind::TwoD] {
        for &bytes in sizes {
            for &pi in group_sizes {
                for &pj in group_sizes {
                    out.push(measure_one_transfer(truth, kind, bytes, pi, pj, site));
                    site += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradigm_cost::regression::{fit_amdahl, fit_transfer};
    use paradigm_cost::TransferParams;
    use paradigm_mdg::KernelCostTable;

    #[test]
    fn processing_fit_recovers_table1_within_tolerance() {
        let truth = TrueMachine::cm5(64);
        let qs = [1u32, 2, 4, 8, 16, 32, 64];
        for (class, nominal) in [
            (LoopClass::MatrixAdd, KernelCostTable::cm5().add),
            (LoopClass::MatrixMultiply, KernelCostTable::cm5().mul),
        ] {
            let samples = measure_processing(&truth, &class, 64, &qs, 3);
            let fit = fit_amdahl(&samples);
            let alpha_err = (fit.params.alpha - nominal.alpha).abs();
            let tau_rel = (fit.params.tau - nominal.tau).abs() / nominal.tau;
            assert!(alpha_err < 0.03, "{class:?}: alpha {} vs {}", fit.params.alpha, nominal.alpha);
            assert!(tau_rel < 0.05, "{class:?}: tau {} vs {}", fit.params.tau, nominal.tau);
            assert!(fit.r2 > 0.98, "{class:?}: r2 = {}", fit.r2);
        }
    }

    #[test]
    fn transfer_fit_recovers_table2_within_tolerance() {
        let truth = TrueMachine::cm5(64);
        let sizes = [4096u64, 16384, 65536, 262144];
        let groups = [1usize, 2, 4, 8, 16];
        let samples = measure_transfers(&truth, &sizes, &groups);
        let fit = fit_transfer(&samples);
        let nominal = TransferParams::cm5();
        assert!(
            (fit.params.t_ss - nominal.t_ss).abs() / nominal.t_ss < 0.1,
            "t_ss {} vs {}",
            fit.params.t_ss,
            nominal.t_ss
        );
        assert!(
            (fit.params.t_ps - nominal.t_ps).abs() / nominal.t_ps < 0.1,
            "t_ps {} vs {}",
            fit.params.t_ps,
            nominal.t_ps
        );
        assert!(
            (fit.params.t_sr - nominal.t_sr).abs() / nominal.t_sr < 0.1,
            "t_sr {} vs {}",
            fit.params.t_sr,
            nominal.t_sr
        );
        assert!(
            (fit.params.t_pr - nominal.t_pr).abs() / nominal.t_pr < 0.1,
            "t_pr {} vs {}",
            fit.params.t_pr,
            nominal.t_pr
        );
        assert!(fit.params.t_n.abs() < 1e-12, "CM-5 t_n must fit to ~0");
        assert!(fit.r2_send > 0.95 && fit.r2_recv > 0.95);
    }

    #[test]
    fn measured_send_component_close_to_model_eq2() {
        // Noise-free machine: measured max-over-senders send time should
        // match Eq. 2 up to block-partition granularity.
        let truth = TrueMachine::ideal(64);
        let x = TransferParams::cm5();
        let (bytes, pi, pj) = (32768u64, 2usize, 8usize);
        let s = measure_one_transfer(&truth, TransferKind::OneD, bytes, pi, pj, 0);
        let model = (pj as f64 / pi as f64) * x.t_ss + (bytes as f64 / pi as f64) * x.t_ps;
        assert!(
            (s.send_time - model).abs() / model < 0.02,
            "measured {} vs model {}",
            s.send_time,
            model
        );
    }

    #[test]
    fn measured_recv_component_close_to_model_eq3() {
        let truth = TrueMachine::ideal(64);
        let x = TransferParams::cm5();
        let (bytes, pi, pj) = (65536u64, 4usize, 8usize);
        let s = measure_one_transfer(&truth, TransferKind::TwoD, bytes, pi, pj, 0);
        let model = pi as f64 * x.t_sr + (bytes as f64 / pj as f64) * x.t_pr;
        assert!(
            (s.recv_time - model).abs() / model < 0.02,
            "measured {} vs model {}",
            s.recv_time,
            model
        );
    }

    #[test]
    fn repetitions_differ_by_noise_only() {
        let truth = TrueMachine::cm5(64);
        let samples = measure_processing(&truth, &LoopClass::MatrixMultiply, 64, &[8], 5);
        assert_eq!(samples.len(), 5);
        let mean: f64 = samples.iter().map(|s| s.time).sum::<f64>() / 5.0;
        for s in &samples {
            assert!((s.time - mean).abs() / mean < 0.02);
        }
        // Not all identical (noise present).
        assert!(samples.windows(2).any(|w| w[0].time != w[1].time));
    }
}
