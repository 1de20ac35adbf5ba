//! `paradigm` — thin shim over the testable library commands.
//!
//! Exit codes: 0 = clean, 1 = findings (lint/certificate/schedule
//! failures), 2 = usage or internal error.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match paradigm_cli::parse_args(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", paradigm_cli::args::USAGE);
            std::process::exit(2);
        }
    };
    match paradigm_cli::run(&parsed.command) {
        Ok(out) => {
            print!("{}", out.text);
            if out.failed {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
