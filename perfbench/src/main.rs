//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --describe
//! ```
//!
//! The last line of standard output is the JSON result. The `pilfill`
//! binary is taken from `PILFILL_BIN` (set by `run.sh`).

use perfbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workloads::{self, Opts};
use std::path::PathBuf;
use std::time::Duration;

/// A run that has not finished by then is stopped, daemons included.
const WATCHDOG: Duration = Duration::from_secs(170);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn describe() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<12} {why}");
    }
    println!("end-to-end metrics (tracing off; bound = allowed worsening):");
    for m in END_TO_END {
        println!(
            "  {:<20} {:<6} {:<6} bound {:<5} {}",
            m.name, m.unit, m.better, m.bound, m.meaning
        );
    }
    println!(
        "per-layer metrics (traced run; -> the end-to-end metric and workload it should move):"
    );
    for m in PER_LAYER {
        println!(
            "  {:<20} {:<6} {:<6} {}",
            m.name, m.unit, m.better, m.meaning
        );
    }
}

fn parse() -> Result<Option<Opts>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        if flag == "--describe" {
            describe();
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number of seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    let pilfill = PathBuf::from(
        std::env::var_os("PILFILL_BIN").ok_or("PILFILL_BIN is not set (use run.sh)")?,
    );
    if !pilfill.is_file() {
        return Err(format!("pilfill binary {} not found", pilfill.display()));
    }
    Ok(Some(Opts {
        workload,
        seed,
        seconds,
        trace,
        pilfill,
        work: workloads::WORK_DIR.into(),
    }))
}

fn main() {
    let opts = match parse() {
        Ok(Some(opts)) => opts,
        Ok(None) => return,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog fired after {WATCHDOG:?}; stopping daemons");
        for pid in perfbench::daemon::live_pids() {
            // SAFETY: `kill` has no memory-safety preconditions; the pid
            // is a daemon this process spawned and has not yet reaped.
            unsafe { kill(i32::try_from(pid).unwrap_or(i32::MAX), 9) };
        }
        std::process::exit(3);
    });
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    let line = workloads::run(&opts).and_then(|report| {
        if !report.correct() {
            eprintln!(
                "perfbench: incorrect run: {:?} {:?}",
                report.tally.reasons, report.check_failures
            );
        }
        report.to_json(expected)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
