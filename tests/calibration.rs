//! Integration tests of the measure-fit-compile loop: the compiler
//! never sees the ground-truth constants, only regression fits of
//! simulated measurements — and still predicts execution well.

use paradigm_core::calibrate::{calibrate, CalibrationConfig};
use paradigm_core::prelude::*;

#[test]
fn fitted_model_predicts_execution_within_band() {
    let truth = TrueMachine::cm5(64);
    let cal = calibrate(&truth, &CalibrationConfig::default());
    // Build the MDG *from the fitted table* — exactly what the PARADIGM
    // compiler does with its training-set measurements.
    let g = complex_matmul_mdg(64, &cal.kernel_table);
    let machine = Machine::new(64, cal.machine.xfer);
    let compiled = compile(&g, &SolveSpec::new(machine)).unwrap();
    let run = run_mpmd(&g, &compiled, &truth);
    let ratio = compiled.t_psa / run.makespan;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "fitted-model prediction off: predicted/actual = {ratio}"
    );
}

#[test]
fn fitted_and_nominal_models_agree_on_allocation_shape() {
    let truth = TrueMachine::cm5(64);
    let cal = calibrate(&truth, &CalibrationConfig::default());
    let g_fit = complex_matmul_mdg(64, &cal.kernel_table);
    let g_nom = complex_matmul_mdg(64, &KernelCostTable::cm5());
    let c_fit = compile(&g_fit, &SolveSpec::new(Machine::new(64, cal.machine.xfer))).unwrap();
    let c_nom = compile(&g_nom, &SolveSpec::new(Machine::cm5(64))).unwrap();
    // The bounded power-of-two allocations should agree on most nodes —
    // the fits are within a few percent of nominal.
    let mut agree = 0;
    let mut total = 0;
    for (id, n) in g_fit.nodes() {
        if n.is_structural() {
            continue;
        }
        total += 1;
        if c_fit.psa.bounded.as_u32(id) == c_nom.psa.bounded.as_u32(id) {
            agree += 1;
        }
    }
    assert!(agree * 10 >= total * 8, "allocations diverged: only {agree}/{total} nodes agree");
}

#[test]
fn calibration_r2_values_are_high() {
    let truth = TrueMachine::cm5(64);
    let cal = calibrate(&truth, &CalibrationConfig::default());
    for (class, fit) in &cal.kernel_fits {
        assert!(fit.r2 > 0.98, "{class:?}: R^2 = {}", fit.r2);
    }
    assert!(cal.transfer_fit.r2_send > 0.95);
    assert!(cal.transfer_fit.r2_recv > 0.95);
}

#[test]
fn calibration_reproduces_table2_tn_zero() {
    let truth = TrueMachine::cm5(64);
    let cal = calibrate(&truth, &CalibrationConfig::default());
    assert!(cal.machine.xfer.t_n.abs() < 1e-12, "CM-5 t_n must fit to zero");
}

#[test]
fn noisier_machine_still_calibrates() {
    let mut truth = TrueMachine::cm5(64);
    truth.noise = 0.05;
    truth.wobble = 0.04;
    let cal = calibrate(&truth, &CalibrationConfig::default());
    let nominal = KernelCostTable::cm5();
    assert!(
        (cal.kernel_table.mul.tau - nominal.mul.tau).abs() / nominal.mul.tau < 0.15,
        "tau fit degraded too far under 5 % noise"
    );
}
