//! The paper's second test program: one-level Strassen matrix multiply
//! (128x128). Verifies the algorithm numerically, then walks the full
//! allocation/scheduling pipeline and prints how the seven independent
//! multiplies get spread across the machine.
//!
//! Run with: `cargo run --release --example strassen`

use paradigm_core::prelude::*;
use paradigm_kernels::{strassen_one_level, Matrix};

fn main() -> Result<(), PipelineError> {
    let n = 128;

    // Numeric check: the one-level Strassen decomposition (exactly the
    // computation the MDG encodes) equals the naive product.
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    let strassen = strassen_one_level(&a, &b);
    let naive = a.mul(&b);
    println!(
        "numeric check: one-level Strassen vs naive product, max |diff| = {:.2e}",
        strassen.max_abs_diff(&naive)
    );
    assert!(strassen.approx_eq(&naive, 1e-8));

    let g = strassen_mdg(n, &KernelCostTable::cm5());
    println!(
        "\nMDG: {} compute nodes ({} multiplies, the rest init/add loops), {} edges",
        g.compute_node_count(),
        g.nodes().filter(|(_, nd)| nd.name.starts_with('M')).count(),
        g.edge_count()
    );

    for &p in &[16u32, 32, 64] {
        let spec = SolveSpec { fast_solver: false, ..SolveSpec::new(Machine::cm5(p)) };
        let compiled = compile(&g, &spec)?;
        println!("\n=== {p} processors (PB = {}) ===", compiled.psa.pb);
        // How are the seven multiplies placed?
        let mut mul_rows: Vec<String> = Vec::new();
        for (id, node) in g.nodes() {
            if node.name.starts_with("M") && node.name.contains('*') {
                let task = compiled.psa.schedule.task_for(id).expect("scheduled");
                mul_rows.push(format!(
                    "  {:<12} {:>2} procs  [{:.4}, {:.4}) s",
                    node.name.split(' ').next().unwrap_or("?"),
                    task.procs.len(),
                    task.start,
                    task.finish
                ));
            }
        }
        mul_rows.sort();
        for r in &mul_rows {
            println!("{r}");
        }
        let truth = TrueMachine::cm5(p);
        let mpmd = run_mpmd(&g, &compiled, &truth);
        let spmd = run_spmd(&g, &truth);
        println!(
            "  Phi {:.4} s | T_psa {:.4} s | simulated MPMD {:.4} s | SPMD {:.4} s | gain {:.2}x",
            compiled.phi.phi,
            compiled.t_psa,
            mpmd.makespan,
            spmd.makespan,
            spmd.makespan / mpmd.makespan
        );
    }
    Ok(())
}
