//! The pipeline on realistic workloads beyond the paper: 2D FFT (with a
//! genuine 2D-transfer transpose), blocked LU factorization, and
//! iterated stencil sweeps. For each, compare mixed parallelism against
//! pure data parallelism on the simulated 64-node machine.
//!
//! Run with: `cargo run --release --example workload_gallery`

use paradigm_core::prelude::*;
use paradigm_mdg::stats::MdgStats;
use paradigm_mdg::{block_lu_mdg, fft_2d_mdg, stencil_mdg};
use paradigm_sim::lower_mpmd;

fn main() -> Result<(), PipelineError> {
    let p = 64u32;
    let spec = SolveSpec::new(Machine::cm5(p));
    let truth = TrueMachine::cm5(p);
    let table = KernelCostTable::cm5();

    let workloads: Vec<(&str, Mdg)> = vec![
        ("2D FFT 256, 8 bands", fft_2d_mdg(256, 8, &table)),
        ("block LU 4x4 @ 64", block_lu_mdg(4, 64, &table)),
        ("block LU 6x6 @ 64", block_lu_mdg(6, 64, &table)),
        ("stencil 512, 8 bands x 6", stencil_mdg(512, 8, 6, &table)),
    ];

    println!("workload gallery on a {p}-processor simulated CM-5\n");
    println!("  workload               | nodes | inh.par |  Phi (s) | T_psa (s) | MPMD run | SPMD run | gain");
    println!("  -----------------------+-------+---------+----------+-----------+----------+----------+------");
    for (name, g) in &workloads {
        let stats = MdgStats::of(g);
        let compiled = compile(g, &spec)?;
        let mpmd = simulate(&lower_mpmd(g, &compiled.psa.schedule), &truth);
        let spmd = run_spmd(g, &truth);
        println!(
            "  {:<22} | {:>5} | {:>7.2} | {:>8.4} | {:>9.4} | {:>8.4} | {:>8.4} | {:>4.2}x",
            name,
            g.compute_node_count(),
            stats.inherent_parallelism(),
            compiled.phi.phi,
            compiled.t_psa,
            mpmd.makespan,
            spmd.makespan,
            spmd.makespan / mpmd.makespan
        );
    }
    println!(
        "\nReading: the FFT's independent bands and LU's trailing updates profit most\n\
         from mixed parallelism. The stencil shows that inherent parallelism alone is\n\
         not the whole story: its bands are independent within a sweep (inh.par = 8)\n\
         but each sweep's work is tiny relative to the per-message startup costs, so\n\
         SPMD is already close to the communication floor and the gain is small."
    );
    Ok(())
}
