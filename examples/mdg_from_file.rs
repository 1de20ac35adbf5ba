//! Author an MDG in the plain-text interchange format, load it, and run
//! the whole pipeline on it — the workflow a front-end (or a human
//! studying a program, as the paper's authors did) would use.
//!
//! Run with: `cargo run --release --example mdg_from_file`

use paradigm_core::prelude::*;
use paradigm_mdg::{from_text, to_text};

const PROGRAM: &str = r#"
mdg jacobi-step
# One step of a blocked iterative solver: assemble, two independent
# half-domain sweeps, then a residual reduction.
node 0 "assemble"     alpha=0.04 tau=0.8  class=init rows=128 cols=128
node 1 "sweep north"  alpha=0.09 tau=2.4  class=mul  rows=128 cols=128
node 2 "sweep south"  alpha=0.09 tau=2.4  class=mul  rows=128 cols=128
node 3 "residual"     alpha=0.12 tau=0.6  class=add  rows=128 cols=128

edge 0 1 xfer 131072 1d
edge 0 2 xfer 131072 1d
edge 1 3 xfer 131072 1d
edge 2 3 xfer 131072 2d     # the south sweep hands back transposed data
"#;

fn main() -> Result<(), PipelineError> {
    let g = from_text(PROGRAM).expect("the embedded program must parse");
    println!(
        "loaded `{}`: {} compute nodes, {} edges",
        g.name(),
        g.compute_node_count(),
        g.edge_count()
    );

    // Round-trip check: print the canonical form.
    println!("\ncanonical form:\n{}", to_text(&g));

    let machine = Machine::cm5(16);
    let compiled = compile(&g, &SolveSpec { fast_solver: false, ..SolveSpec::new(machine) })?;
    println!("{}", compiled.psa.schedule.gantt(&g, 60));
    println!(
        "Phi = {:.3} s, T_psa = {:.3} s; the two sweeps run {}",
        compiled.phi.phi,
        compiled.t_psa,
        {
            let t1 = compiled.psa.schedule.task_for(NodeId(2)).expect("scheduled");
            let t2 = compiled.psa.schedule.task_for(NodeId(3)).expect("scheduled");
            if t1.start < t2.finish && t2.start < t1.finish {
                "concurrently (functional parallelism exploited)"
            } else {
                "serially"
            }
        }
    );

    let truth = TrueMachine::cm5(16);
    let run = run_mpmd(&g, &compiled, &truth);
    let spmd = run_spmd(&g, &truth);
    println!(
        "simulated: MPMD {:.3} s vs SPMD {:.3} s ({:.2}x)",
        run.makespan,
        spmd.makespan,
        spmd.makespan / run.makespan
    );
    Ok(())
}
