//! Prints the paper's result tables: every experiment in paper order
//! (Table I, Figs. 2–15, validation, ablation), or only the ones named on
//! the command line, in the order given.
//!
//! ```sh
//! cargo run --release -p ecochip-bench --bin run_all               # every table
//! cargo run --release -p ecochip-bench --bin run_all -- fig7 fig11 # two figures
//! ```
//!
//! An unknown name exits with status 2 and lists the valid names.

use ecochip_bench::experiments::{Experiment, EXPERIMENTS};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<Experiment> = if names.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        names
            .iter()
            .map(|name| {
                EXPERIMENTS
                    .into_iter()
                    .find(|(known, _)| known == name)
                    .unwrap_or_else(|| {
                        let valid: Vec<&str> =
                            EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                        eprintln!(
                            "unknown experiment {name:?}; valid names: {}",
                            valid.join(", ")
                        );
                        std::process::exit(2);
                    })
            })
            .collect()
    };
    for (name, generator) in selected {
        match generator() {
            Ok(tables) => {
                for table in tables {
                    println!("{table}");
                }
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
