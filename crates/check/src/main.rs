//! `pilfill-check` CLI: run the worker-pool model suite and write
//! `check-report.json`.
//!
//! ```text
//! cargo run -p pilfill-check --release -- \
//!     [--seed N] [--budget N] [--random-budget N] \
//!     [--min-distinct N] [--out PATH] [--model NAME]
//! ```
//!
//! Exits non-zero if any model reports a violation or the suite explored
//! fewer than `--min-distinct` interleavings (default 10,000 — the
//! acceptance floor; pass `--min-distinct 0` for quick smoke runs).

use pilfill_check::models;
use pilfill_check::report::render_report;
use std::process::ExitCode;

struct Args {
    seed: u64,
    budget: usize,
    random_budget: usize,
    min_distinct: u64,
    out: String,
    model: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: 0xC0FF_EE00,
            budget: 2_000,
            random_budget: 5_000,
            min_distinct: 10_000,
            out: "check-report.json".to_owned(),
            model: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => args.seed = parse_num(&take("--seed")?)?,
            "--budget" => args.budget = parse_num(&take("--budget")?)?,
            "--random-budget" => args.random_budget = parse_num(&take("--random-budget")?)?,
            "--min-distinct" => args.min_distinct = parse_num(&take("--min-distinct")?)?,
            "--out" => args.out = take("--out")?,
            "--model" => args.model = Some(take("--model")?),
            "--help" | "-h" => {
                return Err(
                    "usage: pilfill-check [--seed N] [--budget N] [--random-budget N] \
                     [--min-distinct N] [--out PATH] [--model NAME]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid numeric argument: {s}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let specs = models::all_models();
    if let Some(name) = &args.model {
        if !specs.iter().any(|s| s.name == *name) {
            eprintln!("unknown model: {name}");
            eprintln!(
                "available: {}",
                specs.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
            );
            return ExitCode::FAILURE;
        }
    }

    let mut reports = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if args.model.as_deref().is_some_and(|m| m != spec.name) {
            continue;
        }
        let model_seed = args
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        let r = models::check_model(spec, model_seed, args.budget, args.random_budget);
        let status = match &r.violation {
            Some(v) => format!("VIOLATION: {v}"),
            None => "ok".to_owned(),
        };
        println!(
            "{:<14} {:>7} exhaustive ({}{}) + {:>6} random = {:>7} distinct  [{}]",
            r.name,
            r.exhaustive.distinct,
            if r.exhaustive.complete {
                "complete"
            } else {
                "budget"
            },
            if r.exhaustive.pruned > 0 {
                format!(", {} pruned", r.exhaustive.pruned)
            } else {
                String::new()
            },
            r.random.distinct,
            r.distinct(),
            status
        );
        reports.push(r);
    }

    let total: u64 = reports.iter().map(models::ModelReport::distinct).sum();
    let failed = reports.iter().any(|r| r.violation.is_some());
    let json = render_report(args.seed, &reports);
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "total: {total} distinct interleavings across {} model(s); report: {}",
        reports.len(),
        args.out
    );

    if failed {
        eprintln!("model violations found");
        return ExitCode::FAILURE;
    }
    if args.model.is_none() && total < args.min_distinct {
        eprintln!(
            "explored {total} distinct interleavings, below the floor of {}",
            args.min_distinct
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
