//! `nocsyn` — command-line front end for the interconnect synthesizer.
//!
//! All logic lives in [`nocsyn::cli`]; this wrapper only maps the result
//! onto the process exit code.

use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match nocsyn::cli::run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            // A closed or full stderr must not turn the exit code into a
            // panic's.
            let _ = writeln!(
                std::io::stderr(),
                "error: {msg}\nrun `nocsyn help` for usage"
            );
            ExitCode::FAILURE
        }
    }
}
