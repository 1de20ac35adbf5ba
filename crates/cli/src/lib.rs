//! # paradigm-cli — command-line driver
//!
//! A small std-only CLI over the pipeline, for working with MDG files in
//! the `paradigm-mdg` text format:
//!
//! ```text
//! paradigm info <file.mdg>                     graph statistics
//! paradigm compile <file.mdg> -p N [options]   allocate + schedule
//! paradigm simulate <file.mdg> -p N [options]  compile, lower, execute
//! paradigm calibrate [-p N]                    fit Tables 1-2 on the sim
//! paradigm demo <fig1|cmm|strassen>            emit a built-in graph
//! ```
//!
//! The argument parser and command implementations live here in the
//! library so they are unit-testable; `main.rs` is a thin shim.

pub mod args;
pub mod bench_admm;
pub mod bench_solve;
pub mod commands;
pub mod harness;

pub use args::{parse_args, Command, ParsedArgs, UsageError};
pub use commands::run;
