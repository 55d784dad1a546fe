//! Steady-state solver-step benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path stepbench/Cargo.toml -- \
//!     --workload slab_rk2_n64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One invocation runs one workload in its own process. `--trace 0` builds
//! the solver outside the timed region (several times, for `setup_s`),
//! times every warm step separately and prints the end-to-end metrics.
//! `--trace 1` attaches a tracer and prints the per-layer attribution
//! instead. `--workload all` runs every workload both ways, each in a child
//! process, and prints the tables. `--compare BASE NEW` compares two files
//! of result lines (the last line of each run of one workload, collected
//! with `| tail -1 >> base.jsonl`) metric by metric against the bounds in
//! `BENCHMARK.json`, and exits 1 on a regression. Every run
//! checks the physics between steps, outside the timed interval, and the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod attrib;
mod compare;
mod json;
mod timed;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--compare" => a.compare = Some((val()?, val()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() && a.compare.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stepbench: {e}");
            eprintln!(
                "usage: stepbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n       stepbench --compare BASE.jsonl NEW.jsonl",
                workload::names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return workload::compare_files(base, new);
    }
    if args.workload == "all" {
        return workload::run_all(args.seed, args.seconds);
    }
    let Some(w) = workload::find(&args.workload) else {
        eprintln!(
            "stepbench: unknown workload {}; known: {}",
            args.workload,
            workload::names().join(", ")
        );
        return ExitCode::from(2);
    };
    let result = workload::run(w, args.seed, args.seconds, args.trace);
    result.print();
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
