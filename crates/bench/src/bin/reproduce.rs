//! `reproduce <figure>` prints one of the paper's evaluation artifacts
//! (see `nocsyn_bench::figures`). EXPERIMENTS.md quotes every figure's
//! text verbatim, and `tests/reproduce.rs` holds each block to it.
//!
//! Run in release mode: their synthesis portfolios and flit-level
//! simulations take several figures to minutes in a debug build.

use std::io::Write as _;
use std::process::ExitCode;

use nocsyn_bench::figures::Figure;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figure = match args.as_slice() {
        [name] => Figure::from_name(name),
        _ => None,
    };
    let Some(figure) = figure else {
        let names: Vec<&str> = Figure::ALL.iter().map(|f| f.name()).collect();
        let _ = writeln!(std::io::stderr(), "usage: reproduce <{}>", names.join("|"));
        return ExitCode::from(2);
    };
    match figure.render() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "reproduce {}: {e}", figure.name());
            ExitCode::FAILURE
        }
    }
}
