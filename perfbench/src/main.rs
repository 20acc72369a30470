//! The repository benchmark: open-loop workloads over TCP loopback through
//! the public `Stub`/`ElasticPool` API.
//!
//! ```text
//! perfbench --workload <echo-tcp|dcs-keyed|elastic-step> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --benchmark-json   # BENCHMARK.json from the catalogue
//! perfbench --catalogue        # every metric and what it should move
//! ```
//!
//! Prints a report with every metric, its unit and sample count, then as
//! the last line one JSON object: end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`). Exits 1 on any correctness violation.

mod alloc;
mod generator;
mod layers;
mod report;
mod run;
mod schedule;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;

use report::Kind;
use run::Args;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <echo-tcp|dcs-keyed|elastic-step> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>] | --benchmark-json | --catalogue";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = std::path::PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--out" => out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--catalogue") {
        print!("{}", report::catalogue_table());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("--benchmark-json") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&args);
    print!("{}", report.render());
    if !report.violations.is_empty() {
        eprintln!(
            "perfbench: run voided by {} violation(s)",
            report.violations.len()
        );
        return ExitCode::from(1);
    }
    match report.json(if args.trace { Kind::Layer } else { Kind::Gated }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot report: {e}");
            ExitCode::from(1)
        }
    }
}
