//! Quickstart: build your own Macro Dataflow Graph, compile it
//! (convex allocation + PSA scheduling), inspect the schedule, and
//! execute it on the simulated machine.
//!
//! Run with: `cargo run --release --example quickstart`

use paradigm_core::prelude::*;

fn main() -> Result<(), PipelineError> {
    // 1. Describe the program as an MDG: nodes are loop nests with
    //    Amdahl-law costs, edges are precedence constraints carrying the
    //    arrays that must be redistributed.
    let mut b = MdgBuilder::new("quickstart");
    let prep = b.compute("prepare", AmdahlParams::new(0.05, 2.0));
    let left = b.compute("left solve", AmdahlParams::new(0.10, 4.0));
    let right = b.compute("right solve", AmdahlParams::new(0.10, 4.0));
    let merge = b.compute("merge", AmdahlParams::new(0.08, 1.5));
    let xfer = || vec![ArrayTransfer::matrix_1d(256, 256)];
    b.edge(prep, left, xfer());
    b.edge(prep, right, xfer());
    b.edge(left, merge, xfer());
    b.edge(right, merge, xfer());
    let g = b.finish().expect("valid DAG");

    // 2. Pick a machine (CM-5 cost constants at 16 processors) and
    //    compile on the full solver ladder: convex-programming
    //    allocation, then PSA scheduling.
    let spec = SolveSpec { fast_solver: false, ..SolveSpec::new(Machine::cm5(16)) };
    let compiled = compile(&g, &spec)?;

    println!("allocation (processors per node):");
    for (id, node) in g.nodes() {
        if !node.is_structural() {
            println!(
                "  {:<12} continuous {:.2}  ->  scheduled {}",
                node.name,
                compiled.solve.alloc.get(id),
                compiled.psa.bounded.as_u32(id)
            );
        }
    }
    println!();
    println!("{}", compiled.psa.schedule.gantt(&g, 60));
    println!(
        "lower bound Phi = {:.3} s, predicted finish T_psa = {:.3} s ({:+.1}% above Phi)",
        compiled.phi.phi,
        compiled.t_psa,
        compiled.deviation_percent()
    );

    // 3. Execute the generated MPMD program on the simulated machine.
    let truth = TrueMachine::cm5(16);
    let run = run_mpmd(&g, &compiled, &truth);
    println!(
        "simulated execution: {:.3} s (prediction off by {:+.1}%), utilization {:.0}%",
        run.makespan,
        100.0 * (compiled.t_psa - run.makespan) / run.makespan,
        100.0 * run.utilization()
    );

    // 4. Compare with the pure data-parallel (SPMD) execution.
    let spmd = run_spmd(&g, &truth);
    println!(
        "SPMD execution:      {:.3} s  ->  mixed parallelism wins by {:.2}x",
        spmd.makespan,
        spmd.makespan / run.makespan
    );
    Ok(())
}
