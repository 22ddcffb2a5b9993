//! The ForkGraph-rs benchmark. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sssp-social|sssp-road|ppr-ncp|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones and writes its spans to `.bench_out/`.

mod batch;
mod check;
mod report;
mod serve;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = ["sssp-social", "sssp-road", "ppr-ncp", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let (steal_before, total_before) = util::cpu_ticks();
    let (mut report, spans) = match args.workload.as_str() {
        "sssp-social" => {
            batch::run(batch::Workload::SsspSocial, args.seed, args.seconds, args.trace)
        }
        "sssp-road" => batch::run(batch::Workload::SsspRoad, args.seed, args.seconds, args.trace),
        "ppr-ncp" => batch::run(batch::Workload::PprNcp, args.seed, args.seconds, args.trace),
        _ => match serve::run(args.seed, args.seconds, args.trace) {
            Ok(out) => out,
            Err(why) => {
                eprintln!("perfbench: serve-mixed run is invalid: {why}");
                return ExitCode::from(3);
            }
        },
    };
    report.set("peak_rss_mb", util::peak_rss_mb());
    report.describe("l2_kib", util::cache_kib(2));
    report.describe("l3_kib", util::cache_kib(3));
    report.describe("nproc", util::nproc());
    let (steal_after, total_after) = util::cpu_ticks();
    let stolen = (steal_after - steal_before) as f64 / (total_after - total_before).max(1) as f64;
    report.describe("cpu_steal_frac", format!("{stolen:.3}"));

    if args.trace {
        let path = format!(".bench_out/spans-{}-seed{}.json", args.workload, args.seed);
        if let Err(e) = spans.write(std::path::Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    match render(&args, &report) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(1)
        }
    }
}

/// Print the human-readable lines and return the final JSON line.
fn render(args: &Args, report: &Report) -> Result<String, String> {
    for (key, value) in &report.descriptors {
        println!("descriptor {key} = {value}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, &(name, unit)) in catalogue.iter().enumerate() {
        let value = report.get(name).ok_or_else(|| format!("workload did not report {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        println!("{name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    for (name, why) in &report.unmeasured {
        println!("unmeasured {name}: {why}");
    }
    let tally = &report.tally;
    if tally.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!(
        "fail_frac {} ratio ({} of {} operations)",
        tally.fail_frac(),
        tally.failed,
        tally.attempted
    );
    if let Some(why) = &tally.first_failure {
        println!("first failure: {why}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    ))
}
