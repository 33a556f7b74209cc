//! Driving `pilfill fill` as a user would, and checking what it prints.

use crate::designs::GridPoint;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What a fill report must show: placed, budgeted and shortfall feature
/// counts and the total delay impact as printed (fs, 4 decimals).
pub type ReportKey = (u64, u64, u64, String);

/// Runs one `pilfill fill --method ilp2 --def 3` of `design` at a grid
/// point and returns its wall time and standard output.
///
/// # Errors
///
/// A spawn failure or a non-zero exit.
pub fn run(pilfill: &Path, design: &Path, point: &GridPoint) -> Result<(Duration, String), String> {
    let t = Instant::now();
    let out = Command::new(pilfill)
        .arg("fill")
        .arg(design)
        .args(["--method", "ilp2", "--def", "3"])
        .args([
            "--window",
            &point.window.to_string(),
            "--r",
            &point.r.to_string(),
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn pilfill: {e}"))?;
    let wall = t.elapsed();
    if !out.status.success() {
        return Err(format!("pilfill fill exited with {}", out.status));
    }
    String::from_utf8(out.stdout)
        .map(|s| (wall, s))
        .map_err(|_| "non-UTF-8 fill report".to_string())
}

/// Parses the `fill` and `delay impact` lines of a fill report.
pub fn parse_report(stdout: &str) -> Option<ReportKey> {
    let fill = stdout.lines().find_map(|l| l.strip_prefix("fill "))?;
    // "5728 of 5728 budgeted features placed (0 shortfall)"
    let words: Vec<&str> = fill.split_whitespace().collect();
    let placed = words.first()?.parse().ok()?;
    let budget = words.get(2)?.parse().ok()?;
    let shortfall = words.get(6)?.trim_start_matches('(').parse().ok()?;
    let delay = stdout
        .lines()
        .find_map(|l| l.strip_prefix("delay impact "))?;
    let delay = delay.split_whitespace().next()?.to_string();
    Some((placed, budget, shortfall, delay))
}

/// Checks a fill report against the in-process reference.
///
/// # Errors
///
/// Names the first field that differs, or an unreadable report.
pub fn check_report(stdout: &str, expected: &ReportKey) -> Result<(), String> {
    let got = parse_report(stdout).ok_or_else(|| "unreadable fill report".to_string())?;
    if got == *expected {
        Ok(())
    } else {
        Err(format!(
            "fill report {got:?} differs from reference {expected:?}"
        ))
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size in kB of the largest child process this
/// process has waited for (`getrusage(RUSAGE_CHILDREN)`), or `None`
/// when the call fails.
pub fn peak_child_rss_kb() -> Option<u64> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` on 64-bit
    // Linux (two `timeval`s of two longs, then 14 longs), which is all
    // `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.maxrss).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "method           ILP-II\n\
fill             5728 of 5730 budgeted features placed (2 shortfall)\n\
density          min window 0.0110 -> 0.2009\n\
delay impact     13.2512 fs total, 17.2063 fs weighted\n\
solve time       5.86ms\n";

    #[test]
    fn parses_the_fill_report() {
        assert_eq!(
            parse_report(REPORT),
            Some((5728, 5730, 2, "13.2512".to_string()))
        );
    }

    #[test]
    fn a_wrong_report_fails_the_check() {
        let expected = (5728, 5730, 2, "13.2512".to_string());
        assert!(check_report(REPORT, &expected).is_ok());
        let wrong_delay = REPORT.replace("13.2512", "13.2513");
        assert!(check_report(&wrong_delay, &expected).is_err());
        let wrong_count = REPORT.replace("5728 of", "5727 of");
        assert!(check_report(&wrong_count, &expected).is_err());
        assert!(check_report("garbage", &expected).is_err());
    }
}
