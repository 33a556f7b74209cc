//! The metric registry, order statistics and the result line.
//!
//! `BENCHMARK.json` at the repository root must list exactly the metrics
//! of [`END_TO_END`] and [`PER_LAYER`] (a test checks this), so the
//! registry here is the one place a metric is named.

use std::collections::BTreeMap;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// What the metric measures, and for a per-layer metric which
    /// end-to-end metric on which workload it should move.
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        meaning,
    }
}

/// Metrics a user of the CLI or the daemon sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25, "launch to first timed operation: synth, references, daemon start, priming (median of 3 set-ups)"),
    e2e("fills_per_s", "1/s", "higher", 0.25, "fills completed per second, upper quartile over the run's slices (fill_paper: grid passes; serve_eco: circles of the working set through every design)"),
    e2e("p50_ms", "ms", "lower", 0.25, "median latency per operation, lower quartile over the run's slices"),
    e2e("p90_ms", "ms", "lower", 0.25, "90th-percentile latency per operation, lower quartile over the run's slices"),
    e2e("rss_mb", "MB", "lower", 0.2, "resident memory (serve_eco: median daemon VmRSS sampled every 250 ms under the measured load; fill_paper: peak of the largest CLI fill process)"),
    e2e("delay_fs", "fs", "lower", 0.25, "quality: mean ILP-II total delay impact per fill (fill_paper: over the grid pass; serve_eco: over 96 seeded T2 designs)"),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("layout.parse_ms", "ms", "lower", "Design::from_text per design -> p50_ms on fill_paper; none on serve_eco"),
    layer("core.extract_ms", "ms", "lower", "net and obstruction line extraction per fill -> p50_ms on fill_paper; serve_eco only via widen edits"),
    layer("core.scan_ms", "ms", "lower", "slack-column scan per fill -> p50_ms on fill_paper; serve_eco only via widen edits"),
    layer("core.def3_ms", "ms", "lower", "definition-III tile capacities per fill -> p50_ms on fill_paper; serve_eco only via widen edits"),
    layer("density.map_ms", "ms", "lower", "density map and analysis per fill -> p50_ms on fill_paper; serve_eco only via widen edits"),
    layer("density.budget_ms", "ms", "lower", "montecarlo_budget per fill -> fills_per_s and p90_ms on fill_paper (r=8 rows)"),
    layer("core.tile_build_ms", "ms", "lower", "build_tile_problems_pool per fill -> p50_ms on fill_paper; serve_eco only through edits"),
    layer("core.solve_ms", "ms", "lower", "sum of ILP-II tile solves per fill -> p50_ms on fill_paper (r=2 rows), p90_ms on serve_eco (via edits)"),
    layer("core.evaluate_ms", "ms", "lower", "placement assembly and delay evaluation per fill -> p50_ms on fill_paper"),
    layer("core.tiles", "count", "lower", "tiles per grid pass (input size; nothing should move it)"),
    layer("core.columns", "count", "lower", "slack columns per grid pass (input size; nothing should move it)"),
    layer("solver.pivots", "count", "lower", "simplex pivots per grid pass -> p50_ms on fill_paper, p90_ms on serve_eco"),
    layer("solver.refactors", "count", "lower", "LU refactorizations per grid pass -> p50_ms on fill_paper, p90_ms on serve_eco"),
    layer("solver.bb_nodes", "count", "lower", "branch-and-bound nodes per grid pass -> p50_ms on fill_paper, p90_ms on serve_eco"),
    layer("core.build_ms", "ms", "lower", "FlowContext::build_pool per cold served fill -> the p99 of serve_eco printed on stderr (one new, cold design every 50 requests)"),
    layer("core.assemble_ms", "ms", "lower", "finish_run per served fill -> p50_ms on serve_eco"),
    layer("core.rebuild_ms", "ms", "lower", "rebuild_owned per served edit -> p90_ms on serve_eco"),
    layer("core.dirty_tiles", "count", "lower", "median tiles re-solved per served edit -> p90_ms on serve_eco"),
    layer("core.budget_reused", "count", "higher", "served edits that reused the cached budget -> p90_ms on serve_eco"),
    layer("exec.speedup_2", "ratio", "higher", "1-lane build+run time over 2-lane run_flow_streamed time -> fills_per_s on fill_paper"),
    layer("cli.overhead_ms", "ms", "lower", "CLI wall time minus in-process parse and streamed flow -> p50_ms on fill_paper"),
    layer("serve.warm_ms", "ms", "lower", "median server_ns of Warm replies under load -> p50_ms on serve_eco"),
    layer("serve.edit_ms", "ms", "lower", "median server_ns of rebuild replies under load -> p90_ms on serve_eco"),
    layer("serve.cold_ms", "ms", "lower", "median server_ns of Cold replies under load -> the p99 of serve_eco printed on stderr"),
    layer("serve.transport_ms", "ms", "lower", "median round trip minus server_ns -> p50_ms on serve_eco"),
    layer("serve.codec_ms", "ms", "lower", "encode_outcome_blob + encode_reply + decode_reply per reply -> p50_ms on serve_eco"),
    layer("serve.sha_ms", "ms", "lower", "design_hash per inline design -> p90_ms on serve_eco (uploads and store-miss recoveries)"),
    layer("serve.contention_ms", "ms", "lower", "server_ns under load minus server_ns of an unloaded probe, weighted over statuses -> serve.max_rps and p90_ms on serve_eco"),
    layer("serve.busy", "count", "lower", "Busy replies under load -> serve.max_rps on serve_eco"),
    layer("serve.warm_ratio", "ratio", "higher", "share of Warm replies -> p50_ms on serve_eco"),
    layer("serve.incr_ratio", "ratio", "higher", "share of incremental-rebuild replies -> p50_ms and p90_ms on serve_eco"),
    layer("serve.full_ratio", "ratio", "lower", "share of full-rebuild replies -> p90_ms on serve_eco"),
    layer("serve.cold_ratio", "ratio", "lower", "share of Cold replies -> rss_mb and the stderr p99 on serve_eco"),
    layer("serve.cold_extra", "count", "lower", "Cold replies for contexts a client-side LRU model holds resident (checkout race) -> serve.max_rps and the stderr p99 on serve_eco"),
    layer("serve.store_miss", "count", "lower", "unknown-design replies recovered by an inline upload -> p90_ms on serve_eco"),
    layer("serve.max_rps", "1/s", "higher", "rate sustained at the highest ladder rung whose p99 stays <= 50 ms with no failure and no growing lateness -> p90_ms on serve_eco"),
    layer("serve.lateness_ms", "ms", "lower", "p99 of the generator's own send lateness at the fixed rate (generator health, not the program)"),
    layer("trace.coverage_pct", "%", "higher", "share of the traced replay's wall time covered by layer spans (must be >= 90)"),
    layer("trace.overhead_pct", "%", "lower", "traced replay wall time over the same replay untraced, minus 100"),
];

/// The workloads and why each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("fill_paper", "the paper's Table-1 grid as CLI fills: every flow layer runs cold and r moves work between solver, tile build and budget"),
    ("serve_eco", "one client's closed edit-then-refill loop against the daemon: warm replay, incremental rebuild and dirty-tile re-solves dominate"),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `q`-quantile of `values` (nearest rank on the sorted samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency figures of one slice of a measured phase: one full grid pass
/// of fill_paper, or an equal share of serve_eco's requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// Completed operations per second.
    pub per_s: f64,
}

impl Slice {
    /// The figures of `latency_ms` (a failed operation is infinite)
    /// completed in `wall_s` seconds.
    pub fn of(latency_ms: &[f64], wall_s: f64) -> Slice {
        let done = latency_ms.iter().filter(|x| x.is_finite()).count();
        Slice {
            p50_ms: median(latency_ms),
            p90_ms: quantile(latency_ms, 0.9),
            per_s: done as f64 / wall_s,
        }
    }

    /// The figures of the less disturbed slices: the lower quartile of
    /// p50 and of p90 and the upper quartile of the rate over `slices`,
    /// each taken on its own (the second best of five to eight). On a
    /// shared host other tenants slow every layer alike for seconds to
    /// minutes at a time; a change to the program moves every slice,
    /// contention only some.
    pub fn best(slices: &[Slice]) -> Slice {
        let all = |f: fn(&Slice) -> f64| slices.iter().map(f).collect::<Vec<f64>>();
        Slice {
            p50_ms: quantile(&all(|s| s.p50_ms), 0.25),
            p90_ms: quantile(&all(|s| s.p90_ms), 0.25),
            per_s: quantile(&all(|s| s.per_s), 0.75),
        }
    }
}

impl std::fmt::Display for Slice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}/{:.3}/{:.2}", self.p50_ms, self.p90_ms, self.per_s)
    }
}

/// Operations attempted and failed, with failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, refusal past retries, timeout or
    /// wrong output).
    pub failed: u64,
    /// Failures whose output was wrong: any one makes the run incorrect.
    pub wrong: u64,
    /// Failure count per reason.
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one failed operation. `wrong` marks a wrong output rather
    /// than a refused or timed-out one.
    pub fn fail(&mut self, reason: impl Into<String>, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        *self.reasons.entry(reason.into()).or_default() += 1;
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for (k, v) in &other.reasons {
            *self.reasons.entry(k.clone()).or_default() += v;
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Attempted / failed operations.
    pub tally: Tally,
    /// Checks beyond per-operation output equality (traced-run
    /// equality and coverage); any failure makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric value; the name must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// `true` when every output matched and every check passed.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0 && self.check_failures.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// `expected` metrics with their units.
    ///
    /// # Errors
    ///
    /// A missing or non-finite metric.
    pub fn to_json(&self, expected: &[Metric]) -> Result<String, String> {
        if self.tally.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let mut fields = Vec::with_capacity(expected.len());
        for m in expected {
            let v = *self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", m.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn best_takes_the_second_best_slice_per_figure() {
        let slice = |p50_ms, p90_ms, per_s| Slice {
            p50_ms,
            p90_ms,
            per_s,
        };
        let slices = [
            slice(3.0, 30.0, 10.0),
            slice(1.0, 50.0, 30.0),
            slice(2.0, 20.0, 40.0),
            slice(9.0, 10.0, 20.0),
            slice(5.0, 90.0, 50.0),
            slice(4.0, 60.0, 5.0),
        ];
        assert_eq!(Slice::best(&slices), slice(2.0, 20.0, 40.0));
        assert_eq!(Slice::best(&slices[..1]), slices[0]);
    }

    #[test]
    fn report_refuses_missing_metrics() {
        let mut r = Report::default();
        r.tally.attempted = 1;
        r.set("p50_ms", 1.5);
        assert!(r.to_json(&END_TO_END[2..3]).is_ok());
        assert!(r.to_json(END_TO_END).is_err());
    }

    #[test]
    fn wrong_output_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tally.fail("busy", false);
        assert!(r.correct());
        r.tally.fail("blob mismatch", true);
        assert!(!r.correct());
        assert_eq!(r.tally.failed, 2);
    }
}
