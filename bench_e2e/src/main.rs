//! `rbx-bench-e2e --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and every metric by name and unit, then, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when the correctness gate
//! or the replay-determinism check fails (after printing the result), and
//! 2 when the run could not be measured at all. `--workload all` runs each
//! workload in turn and exits with the worst of their codes.

use rbx_bench_e2e::{report, run, state, Options, Scale, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: rbx-bench-e2e --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--work-dir DIR]";

struct Args {
    workload: Option<Workload>,
    prepare: bool,
    raw: Vec<String>,
    opts: Options,
}

fn parse() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut all = false;
    let mut prepare = false;
    let mut opts = Options {
        workload: Workload::BoxSerial,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" if val == "all" => all = true,
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!(
                        "unknown workload (one of all, {})",
                        names.join(", ")
                    ))
                })?)
            }
            "--seed" => opts.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--work-dir" => opts.work_dir = PathBuf::from(val),
            // Internal: the child process that generates the developed state.
            "--prepare" => prepare = val == "1",
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if workload.is_none() && !all {
        return Err(USAGE.to_string());
    }
    Ok(Args {
        workload,
        prepare,
        raw,
        opts,
    })
}

/// Generate the developed state if it is not cached yet, in a child
/// process, so that neither its time nor its memory peak lands in this
/// run's metrics.
fn prepare(raw: &[String], opts: &Options) -> Result<(), String> {
    if state::state_path(&opts.workload.case(opts.scale), &opts.work_dir).exists() {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .args(raw)
        .args(["--prepare", "1"])
        .status()
        .map_err(|e| format!("cannot start generation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("developed-state generation failed ({status})"))
    }
}

fn run_one(mut opts: Options, workload: Workload, raw: &[String]) -> ExitCode {
    opts.workload = workload;
    if let Err(e) = prepare(raw, &opts) {
        eprintln!("rbx-bench-e2e: {}: {e}", workload.name());
        return ExitCode::from(2);
    }
    let result = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rbx-bench-e2e: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for n in &result.notes {
        println!("{n}");
    }
    for m in &result.metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for p in &result.verdict.problems {
        eprintln!("rbx-bench-e2e: {p}");
    }
    println!("{}", report::json_line(&result.verdict, &result.metrics));
    if result.verdict.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload, each in its own process so that peak memory and
/// host counters stay per workload; fails when any of them fails.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rbx-bench-e2e: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for w in Workload::ALL {
        let mut args: Vec<&str> = raw.iter().map(String::as_str).collect();
        for pair in args.chunks_exact_mut(2) {
            if pair[0] == "--workload" {
                pair[1] = w.name();
            }
        }
        let code = match Command::new(&exe).args(&args).status() {
            Ok(s) => s.code().map_or(2, |c| c.clamp(0, 255) as u8),
            Err(e) => {
                eprintln!("rbx-bench-e2e: cannot run {}: {e}", w.name());
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) if args.prepare => {
            let spec = w.case(args.opts.scale);
            match state::developed_state(&spec, &args.opts.work_dir) {
                Ok((_, Some(s))) => {
                    println!(
                        "developed state generated in {s:.2} s ({} steps, counted in no metric)",
                        spec.base_steps
                    );
                    ExitCode::SUCCESS
                }
                Ok((_, None)) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("rbx-bench-e2e: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some(w) => run_one(args.opts, w, &args.raw),
        None => run_all(&args.raw),
    }
}
