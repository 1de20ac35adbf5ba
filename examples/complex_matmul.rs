//! The paper's first test program end to end: calibrate the cost model
//! against the simulated CM-5 (training sets), build the Complex Matrix
//! Multiply MDG from the *fitted* parameters, compile and execute both
//! the MPMD and SPMD versions, and verify the algorithm's numerics with
//! the real kernels.
//!
//! Run with: `cargo run --release --example complex_matmul`

use paradigm_core::calibrate::{calibrate, CalibrationConfig};
use paradigm_core::prelude::*;
use paradigm_core::report::render_calibration;
use paradigm_kernels::ComplexMatrix;

fn main() -> Result<(), PipelineError> {
    let n = 64;
    let sizes = [16u32, 32, 64];

    // Step 0: numeric sanity — the 4-multiply/2-add complex product the
    // MDG encodes really computes a complex matrix product.
    let a = ComplexMatrix::random(n, n, 1);
    let b = ComplexMatrix::random(n, n, 2);
    let fast = a.mul_4m2a(&b);
    let reference = a.mul_reference(&b);
    println!(
        "numeric check: 4M+2A complex product vs reference, max |diff| = {:.2e}",
        fast.max_abs_diff(&reference)
    );
    assert!(fast.max_abs_diff(&reference) < 1e-9);

    // Step 1: calibrate the cost model on the largest machine.
    let truth64 = TrueMachine::cm5(64);
    let cal = calibrate(&truth64, &CalibrationConfig::default());
    println!("\n{}", render_calibration(&cal));

    // Step 2-5: build the MDG from the fitted table, compile, execute.
    let g = complex_matmul_mdg(n, &cal.kernel_table);
    println!("program: {} ({} compute nodes)\n", g.name(), g.compute_node_count());
    println!("  procs |    Phi (s) |  T_psa (s) | MPMD run (s) | SPMD run (s) | MPMD gain");
    println!("  ------+------------+------------+--------------+--------------+----------");
    for &p in &sizes {
        let machine = Machine::new(p, cal.machine.xfer);
        let compiled = compile(&g, &SolveSpec { fast_solver: false, ..SolveSpec::new(machine) })?;
        let truth = TrueMachine::cm5(p);
        let mpmd = run_mpmd(&g, &compiled, &truth);
        let spmd = run_spmd(&g, &truth);
        println!(
            "  {:>5} | {:>10.4} | {:>10.4} | {:>12.4} | {:>12.4} | {:>8.2}x",
            p,
            compiled.phi.phi,
            compiled.t_psa,
            mpmd.makespan,
            spmd.makespan,
            spmd.makespan / mpmd.makespan
        );
    }
    println!("\n(the MPMD gain column is the paper's Figure-8 claim in one number)");
    Ok(())
}
