//! Shared helpers for the reproduction harnesses.
//!
//! Every `repro_*` bench target regenerates one table or figure of the
//! paper; every `ablation_*` target probes one design choice called out
//! in DESIGN.md. Run them all with `cargo bench --workspace`. Timing
//! lives in the repo benchmark (`benchmark/`), not here.

/// Print the standard harness banner: what paper artifact this target
/// reproduces and what to compare against.
pub fn banner(target: &str, artifact: &str, paper_says: &str) {
    println!("{}", "=".repeat(78));
    println!("{target} — reproduces {artifact}");
    println!("paper reference: {paper_says}");
    println!("{}", "=".repeat(78));
}

/// The paper's evaluated system sizes.
pub const PAPER_SIZES: [u32; 3] = [16, 32, 64];

/// Simple fixed-point table separator.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
