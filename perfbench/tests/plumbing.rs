//! Plumbing checks: a tiny run of every workload, traced and untraced,
//! negative checks that wrong outputs are counted as failed, and the
//! registry matching `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root; the `pilfill` binary is built on demand.

use perfbench::daemon::Daemon;
use perfbench::designs::{self, GridPoint};
use perfbench::fillcli;
use perfbench::load::{self, ClientModel, Intent, Kind};
use perfbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workloads::{self, Opts};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, OnceLock};

/// The repository root (the benchmark's parent directory).
fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The `pilfill` binary: `PILFILL_BIN`, else a release build of the CLI.
fn pilfill() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(p) = std::env::var_os("PILFILL_BIN") {
            return PathBuf::from(p);
        }
        // A relative target directory is taken from the repository root,
        // where the build below runs.
        let target = repo().join(
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from),
        );
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "-q", "-p", "pilfill-cli"])
            .current_dir(repo())
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building pilfill failed");
        target.join("release").join("pilfill")
    })
    .clone()
}

/// Daemon runs share socket names per workload: run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn opts(workload: &str, trace: bool) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed: 3,
        seconds: 1.0,
        trace,
        pilfill: pilfill(),
        // Relative, so unix socket paths stay short.
        work: PathBuf::from(".bench_work").join(format!("test-{workload}-{trace}")),
    }
}

#[test]
fn tiny_untraced_runs_report_every_end_to_end_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (w, _) in WORKLOADS {
        let report = workloads::run(&opts(w, false)).expect("run");
        assert!(report.correct(), "{w}: {:?}", report.tally.reasons);
        assert_eq!(report.tally.failed, 0, "{w}: {:?}", report.tally.reasons);
        let line = report.to_json(END_TO_END).expect("every metric measured");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn tiny_traced_runs_report_every_per_layer_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (w, _) in WORKLOADS {
        let report = workloads::run(&opts(w, true)).expect("run");
        assert!(
            report.correct(),
            "{w}: {:?} {:?}",
            report.tally.reasons,
            report.check_failures
        );
        report.to_json(PER_LAYER).expect("every metric measured");
        assert!(report.values["trace.coverage_pct"] >= 90.0);
    }
}

#[test]
fn a_corrupted_reply_blob_is_counted_as_failed() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut slots = designs::t2_slots(5, 9, 1, "neg", (1, 0), 1).expect("slots");
    let o = opts("negative", false);
    std::fs::create_dir_all(&o.work).expect("work dir");
    let daemon = Daemon::start(&o.pilfill, &o.work.join("neg.sock")).expect("daemon");
    let plan = [
        Intent {
            slot: 0,
            variant: 0,
            kind: Kind::Upload,
        },
        Intent {
            slot: 0,
            variant: 0,
            kind: Kind::Repeat,
        },
        Intent {
            slot: 0,
            variant: 1,
            kind: Kind::DupSink,
        },
    ];
    let good =
        load::sequential(&daemon, &slots, &plan, &Mutex::new(ClientModel::new())).expect("load");
    assert_eq!((good.tally.attempted, good.tally.failed), (3, 0));

    // The daemon's replies are unchanged; the expected blobs are not.
    for v in &mut slots[0].variants {
        let last = v.blob.len() - 1;
        v.blob[last] ^= 1;
    }
    let bad =
        load::sequential(&daemon, &slots, &plan, &Mutex::new(ClientModel::new())).expect("load");
    assert_eq!(
        (bad.tally.attempted, bad.tally.failed, bad.tally.wrong),
        (3, 3, 3)
    );
    assert_eq!(bad.tally.reasons.get("blob mismatch"), Some(&3));
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_wrong_cli_report_is_counted_as_failed() {
    let design = designs::preset(false, 11, "neg-cli".into());
    let point = GridPoint {
        window: 32_000,
        r: 2,
    };
    let dir = PathBuf::from(".bench_work").join("test-cli");
    std::fs::create_dir_all(&dir).expect("work dir");
    let path = dir.join("neg.pfl");
    std::fs::write(&path, design.to_text()).expect("write design");
    let expected = designs::report_key(
        &designs::reference(&design, &designs::config(32_000, 2)).expect("reference"),
    );
    let (_, out) = fillcli::run(&pilfill(), &path, &point).expect("fill");
    assert!(fillcli::check_report(&out, &expected).is_ok());
    let mut wrong = expected.clone();
    wrong.0 += 1;
    assert!(fillcli::check_report(&out, &wrong).is_err());
    let tampered = out.replace(&expected.3, "0.0000");
    assert!(fillcli::check_report(&tampered, &expected).is_err());
}

#[test]
fn benchmark_json_matches_the_registry() {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let names = text.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    for (w, _) in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        );
        assert!(text.contains(&entry), "missing {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        );
        assert!(text.contains(&entry), "missing {entry}");
    }
}
