//! The `experiments` binary: regenerates every figure/claim of the paper
//! and runs the acceptance gates.
//!
//! ```text
//! cargo run -p pdb-bench --release -- all          # everything, full sweeps
//! cargo run -p pdb-bench --release -- e1 e5        # selected experiments
//! cargo run -p pdb-bench --release -- e15 e16      # selected gates
//! cargo run -p pdb-bench --release -- --quick all  # CI-sized sweeps
//! ```
//!
//! A failed assertion (a reproduction mismatch or a gate's bound) panics,
//! so the process exits non-zero.

use pdb_bench::{experiments, Effort};

const KNOWN: &str = "e1 … e9, e11, e12, e15, e16, all";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let effort = if quick { Effort::Quick } else { Effort::Full };
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if selected.is_empty() {
        eprintln!("usage: experiments [--quick] ({KNOWN})…");
        std::process::exit(2);
    }
    let registry = experiments();
    for want in &selected {
        if want == "all" {
            for (name, f) in &registry {
                println!("\n################ {name} ################");
                f(effort);
            }
            continue;
        }
        match registry
            .iter()
            .find(|(name, _)| name.starts_with(want.as_str()))
        {
            Some((name, f)) => {
                println!("\n################ {name} ################");
                f(effort);
            }
            None => {
                eprintln!("unknown experiment {want}; known: {KNOWN}");
                std::process::exit(2);
            }
        }
    }
}
