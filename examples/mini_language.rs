//! The complete pipeline from *source code*: write a matrix program in
//! the mini language, let the front end extract the MDG (the paper's
//! Step 1, which its authors left as future work), then allocate,
//! schedule, and execute it.
//!
//! Run with: `cargo run --release --example mini_language`

use paradigm_core::prelude::*;
use paradigm_front::compile_source;

// Two iterations of a damped normal-equations update — a program with a
// transposed use (2D transfer), reductions, and enough independent
// multiplies for functional parallelism to matter.
const SOURCE: &str = "\
program gauss_newton_step
matrix A(128,128), G(128,128), R(128,128), P(128,128)
matrix S1(128,128), S2(128,128), X(128,128)

A  = init()
R  = init()
P  = init()
G  = A' * A        # Gram matrix: transposed use -> 2D transfer
S1 = G * P         # two independent multiplies...
S2 = A * R         # ...that a mixed schedule can overlap
X  = S1 + S2
X  = X - P         # damping update, redefines X
";

fn main() -> Result<(), PipelineError> {
    let table = KernelCostTable::cm5();
    let g = compile_source(SOURCE, &table).expect("the embedded program compiles");
    println!(
        "front end extracted `{}`: {} loops, {} dependence edges",
        g.name(),
        g.compute_node_count(),
        g.edges().filter(|(_, e)| !e.transfers.is_empty()).count()
    );
    let two_d = g
        .edges()
        .flat_map(|(_, e)| e.transfers.iter())
        .filter(|t| t.kind == TransferKind::TwoD)
        .count();
    println!("transfers needing a distribution flip (2D): {two_d}\n");

    let p = 32u32;
    let compiled =
        compile(&g, &SolveSpec { fast_solver: false, ..SolveSpec::new(Machine::cm5(p)) })?;
    println!("{}", compiled.psa.schedule.gantt(&g, 64));
    println!(
        "Phi = {:.4} s, T_psa = {:.4} s ({:+.1}%)",
        compiled.phi.phi,
        compiled.t_psa,
        compiled.deviation_percent()
    );

    let truth = TrueMachine::cm5(p);
    let mpmd = run_mpmd(&g, &compiled, &truth);
    let spmd = run_spmd(&g, &truth);
    println!(
        "simulated: MPMD {:.4} s vs SPMD {:.4} s — mixed parallelism wins {:.2}x",
        mpmd.makespan,
        spmd.makespan,
        spmd.makespan / mpmd.makespan
    );
    Ok(())
}
