//! The repository benchmark: four workloads against the public API, every
//! answer checked, one JSON result line.
//!
//! ```text
//! perfbench --workload <serve_mixed|cold_scene|edit_eco|boundary_dq> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every flag is required, so a run cannot silently differ from the gated
//! ones (`BENCHMARK.json` gives the seconds).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every layer call and prints the per-layer
//! metrics.  The last line of standard output is the result object; the
//! lines before it (each starting with `#`) are the human-readable report.
//! A run record and the traced spans are written under the cargo target
//! directory (`perfbench/` inside it).  Any wrong answer makes the exit
//! code 1.

mod cold;
mod common;
mod dq;
mod edit;
mod probe;
mod report;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;

use common::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["serve_mixed", "cold_scene", "edit_eco", "boundary_dq"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let seed = seed.ok_or("--seed is required")?;
    let traced = trace.ok_or("--trace is required")?;
    Ok(Args { workload, ctx: Ctx { seed, seconds, traced } })
}

/// Where run records and spans go: `$CARGO_TARGET_DIR/perfbench`, else
/// `perfbench/target/perfbench`.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = args.ctx;
    // Read before the workload runs: `serve_mixed` pins itself to one CPU.
    let nproc = sys::nproc();
    let mut outcome = match args.workload.as_str() {
        "serve_mixed" => serve::run(&ctx),
        "cold_scene" => cold::run(&ctx),
        "edit_eco" => edit::run(&ctx),
        _ => dq::run(&ctx),
    };
    let sizes: Vec<String> = outcome.sizes.iter().map(|n| n.to_string()).collect();
    outcome.config("seed", ctx.seed);
    outcome.config("seconds", ctx.seconds);
    outcome.config("n", sizes.join(","));
    outcome.config("threads", rayon::current_num_threads());
    outcome.config("nproc", nproc);
    outcome.config("git_rev", sys::git_rev());

    let tag = format!("{}-seed{}-trace{}", args.workload, ctx.seed, u8::from(ctx.traced));
    let dir = out_dir();
    let record = report::record_json(&args.workload, ctx.seed, ctx.traced, &outcome);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(format!("{tag}.json")), record));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    if let Some(tracer) = &outcome.tracer {
        if let Err(e) = tracer.write_jsonl(&dir.join(format!("{tag}.spans.jsonl"))) {
            eprintln!("perfbench: cannot write the spans: {e}");
        }
    }
    for line in report::human_lines(&args.workload, &outcome, ctx.traced) {
        println!("{line}");
    }
    println!("{}", report::result_line(&outcome, ctx.traced));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
