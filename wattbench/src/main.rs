//! The benchmark's one command.
//!
//! ```text
//! wattbench --workload <study-24d|fleet-1000|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs its timed loop for `S`
//! seconds, checks every output, and prints one JSON line as the last line
//! of stdout: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits non-zero
//! when a check fails or the arguments are wrong.

use std::process::ExitCode;
use wattbench::measure::{cores, Outcome};
use wattbench::{fleet, serve, study, RunArgs};

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse(args: &[String]) -> Result<(String, RunArgs), String> {
    let workload = flag(args, "--workload")?.to_string();
    let seed = flag(args, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let traced = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok((workload, RunArgs { seed, seconds, traced, cores: cores() }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run_args) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("wattbench: {e}");
            eprintln!("usage: wattbench --workload <study-24d|fleet-1000|serve-mixed> --seed N --seconds S --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run: fn(&RunArgs, &mut Outcome) = match workload.as_str() {
        "study-24d" => study::run,
        "fleet-1000" => fleet::run,
        "serve-mixed" => serve::run,
        other => {
            eprintln!("wattbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "wattbench: {workload} seed {} for {}s, trace {}, {} cores",
        run_args.seed, run_args.seconds, run_args.traced, run_args.cores
    );
    let mut out = Outcome::default();
    out.set("env.cores", run_args.cores as f64);
    run(&run_args, &mut out);
    println!("{}", out.to_json(run_args.traced));
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
