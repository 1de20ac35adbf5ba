//! Step 2 of the pipeline: determine the cost-model parameters by
//! running training-set measurements on the target machine and fitting
//! by regression (paper Section 4; methodology after Balasundaram et
//! al.'s Training Sets approach).

use paradigm_cost::regression::{fit_amdahl, fit_transfer, FittedAmdahl, FittedTransfer};
use paradigm_cost::Machine;
use paradigm_mdg::{KernelCostTable, LoopClass};
use paradigm_sim::measure::{measure_processing, measure_transfers};
use paradigm_sim::TrueMachine;

/// The fitted cost model, ready to drive allocation and scheduling.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Fitted per-class Amdahl parameters (Table 1).
    pub kernel_table: KernelCostTable,
    /// Fitted machine (Table 2 constants at the truth's size).
    pub machine: Machine,
    /// Raw fit diagnostics for the three kernel classes.
    pub kernel_fits: Vec<(LoopClass, FittedAmdahl)>,
    /// Raw fit diagnostics for the transfer constants.
    pub transfer_fit: FittedTransfer,
}

/// Measurement-sweep settings.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Processor counts for the kernel sweeps.
    pub qs: Vec<u32>,
    /// Repetitions per kernel configuration.
    pub reps: usize,
    /// Array sizes (bytes) for the transfer sweeps.
    pub sizes: Vec<u64>,
    /// Group sizes for the transfer sweeps.
    pub groups: Vec<usize>,
    /// Reference matrix dimension for the kernel measurements.
    pub ref_n: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            qs: vec![1, 2, 4, 8, 16, 32, 64],
            reps: 3,
            sizes: vec![4096, 16384, 65536, 262144],
            groups: vec![1, 2, 4, 8, 16],
            ref_n: 64,
        }
    }
}

/// Run the full calibration campaign against `truth`.
pub fn calibrate(truth: &TrueMachine, cfg: &CalibrationConfig) -> Calibration {
    let qs: Vec<u32> = cfg.qs.iter().copied().filter(|&q| q <= truth.machine.procs).collect();
    let mut kernel_fits = Vec::new();
    let mut fitted = KernelCostTable { ref_n: cfg.ref_n, ..KernelCostTable::cm5() };
    for class in [LoopClass::MatrixInit, LoopClass::MatrixAdd, LoopClass::MatrixMultiply] {
        let samples = measure_processing(truth, &class, cfg.ref_n, &qs, cfg.reps);
        let fit = fit_amdahl(&samples);
        match class {
            LoopClass::MatrixInit => fitted.init = fit.params,
            LoopClass::MatrixAdd => fitted.add = fit.params,
            LoopClass::MatrixMultiply => fitted.mul = fit.params,
            LoopClass::Synthetic | LoopClass::Custom(_) => unreachable!(),
        }
        kernel_fits.push((class, fit));
    }
    let groups: Vec<usize> =
        cfg.groups.iter().copied().filter(|&g| g <= truth.machine.procs as usize).collect();
    let transfer_samples = measure_transfers(truth, &cfg.sizes, &groups);
    let transfer_fit = fit_transfer(&transfer_samples);
    let machine = Machine::new(truth.machine.procs, transfer_fit.params);
    Calibration { kernel_table: fitted, machine, kernel_fits, transfer_fit }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_close_to_nominal_cm5() {
        let truth = TrueMachine::cm5(64);
        let cal = calibrate(&truth, &CalibrationConfig::default());
        let nominal = KernelCostTable::cm5();
        assert!((cal.kernel_table.mul.alpha - nominal.mul.alpha).abs() < 0.03);
        assert!((cal.kernel_table.mul.tau - nominal.mul.tau).abs() / nominal.mul.tau < 0.05);
        assert!((cal.kernel_table.add.alpha - nominal.add.alpha).abs() < 0.03);
        let x = cal.machine.xfer;
        let nx = paradigm_cost::TransferParams::cm5();
        assert!((x.t_ss - nx.t_ss).abs() / nx.t_ss < 0.1);
        assert!((x.t_pr - nx.t_pr).abs() / nx.t_pr < 0.1);
        assert!(x.t_n.abs() < 1e-12);
    }

    #[test]
    fn calibration_respects_machine_size() {
        let truth = TrueMachine::cm5(8);
        let cal = calibrate(&truth, &CalibrationConfig::default());
        assert_eq!(cal.machine.procs, 8);
        // Fit quality should still be good with the smaller sweep.
        for (_, f) in &cal.kernel_fits {
            assert!(f.r2 > 0.95);
        }
    }

    #[test]
    fn fits_are_reported_for_all_classes() {
        let truth = TrueMachine::cm5(16);
        let cal = calibrate(&truth, &CalibrationConfig::default());
        assert_eq!(cal.kernel_fits.len(), 3);
    }
}
