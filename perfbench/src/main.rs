//! End-to-end benchmark of the cross-modal workspace.
//!
//! ```sh
//! perfbench --workload <curate_1m|adapt_e2e|serve_ticks> --seed <n> \
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Builds the workload's inputs from the seed, sizes the run to about
//! `--seconds`, checks every output, and prints one JSON object as the last
//! stdout line: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). A traced run also writes its spans as Chrome trace-event
//! JSON into the work directory. `CM_THREADS` sets the thread count.

mod adapt_e2e;
mod common;
mod curate_1m;
mod serve_ticks;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use cm_par::ParConfig;

use crate::common::{Outcome, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

/// The last stdout line: exactly the metrics of the run's mode.
fn result_line(out: &Outcome, traced: bool) -> String {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut finite = true;
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = out.get(name).unwrap_or(0.0);
            finite &= value.is_finite();
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = finite && out.failed == 0 && out.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: work dir {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    // The one place the thread count is read; every layer gets it passed in.
    let par = ParConfig::from_env();
    println!(
        "CM_THREADS={} on {} hardware threads",
        std::env::var("CM_THREADS").unwrap_or_else(|_| "unset".into()),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut tr = Tracer::new(args.trace);
    let (seed, seconds, work) = (args.seed, args.seconds, args.work_dir.as_path());
    let out = match (args.workload.as_str(), args.trace) {
        ("curate_1m", false) => curate_1m::run(seed, seconds, &par),
        ("curate_1m", true) => curate_1m::run_traced(seed, &par, &mut tr),
        ("adapt_e2e", false) => adapt_e2e::run(seed, seconds, &par),
        ("adapt_e2e", true) => adapt_e2e::run_traced(seed, &par, &mut tr),
        ("serve_ticks", false) => serve_ticks::run(seed, seconds, &par, work),
        ("serve_ticks", true) => serve_ticks::run_traced(seed, &par, &mut tr, work),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = work.join(format!("trace-{}-{seed}.json", args.workload));
        if let Err(e) = std::fs::write(&path, tr.to_chrome_json().to_string_compact()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("{} spans written to {}", tr.spans().len(), path.display());
    }
    for (name, value) in &out.metrics {
        println!("{name:<32} {value}");
    }
    println!("{}", result_line(&out, args.trace));
    ExitCode::SUCCESS
}
