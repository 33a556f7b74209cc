//! The span recorder and the in-process replays the traced run times.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; the program itself is not changed.
//! A span has a name, start, end, parent and request id; spans stay in
//! memory and are written out as JSON lines when the run ends.

use crate::designs::Slot;
use pilfill_core::methods::IlpTwo;
use pilfill_core::{
    build_tile_problems_pool, def_three_capacities, evaluate_placement, extract_net_lines_with,
    extract_obstruction_lines, scan_slack_columns_into, ExtractScratch, FillFeature, FlowConfig,
    FlowContext, FlowOutcome, RebuildDirt, ScanScratch, WorkerPool,
};
use pilfill_density::{montecarlo_budget, DensityMap, FixedDissection};
use pilfill_geom::units;
use pilfill_layout::{Design, NetId};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::SeedableRng;
use pilfill_serve::protocol::{
    apply_edits, decode_reply, design_hash, encode_outcome_blob, encode_reply, FillStatus, Reply,
};
use pilfill_solver::BranchBoundStats;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`layer.step`, or a root name).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by every span of one replayed request.
    pub req: u64,
}

/// An in-memory span recorder; when off, `span` only runs the closure.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. A span opened with no
    /// enclosing span starts a new request.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.req += 1;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in ns: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times in ms of spans named `name` whose root is one of
    /// `roots` (all roots when empty).
    pub fn self_ms(&self, name: &str, roots: &[&str]) -> Vec<f64> {
        let own = self.self_ns();
        (0..self.spans.len())
            .filter(|&i| {
                self.spans[i].name == name && (roots.is_empty() || roots.contains(&self.root_of(i)))
            })
            .map(|i| own[i] as f64 / 1e6)
            .collect()
    }

    fn root_of(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Share of the root spans' wall time covered by the self time of
    /// layer spans, in percent.
    pub fn coverage_pct(&self) -> f64 {
        let own = self.self_ns();
        let (mut layer, mut wall) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                wall += s.end_ns - s.start_ns;
            } else {
                layer += own[i];
            }
        }
        if wall == 0 {
            return 0.0;
        }
        100.0 * layer as f64 / wall as f64
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Solver effort summed over replayed tile solves.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverCounts {
    /// Simplex pivots.
    pub pivots: usize,
    /// LU refactorizations.
    pub refactors: usize,
    /// Branch-and-bound nodes.
    pub bb_nodes: usize,
    /// Tiles solved.
    pub tiles: usize,
    /// Global slack columns scanned.
    pub columns: usize,
}

/// Replays one cold fill stage by stage through the layers' public
/// functions (the steps `run_flow` takes for a horizontal target layer)
/// and returns the outcome, which must equal `run_flow`'s.
///
/// # Errors
///
/// A failing stage, or a vertical target layer (not replayed).
pub fn replay_fill(
    t: &mut Tracer,
    text: &str,
    cfg: &FlowConfig,
    pool: &WorkerPool,
    counts: &mut SolverCounts,
) -> Result<FlowOutcome, String> {
    t.span("fill", |t| {
        let design = t
            .span("layout.parse", |_| Design::from_text(text))
            .map_err(|e| e.to_string())?;
        if design
            .layers
            .get(cfg.layer.0)
            .is_none_or(|l| l.dir.is_vertical())
        {
            return Err("replay covers horizontal target layers only".to_string());
        }
        let (dissection, lines) = t.span("core.extract", |_| -> Result<_, String> {
            let dissection =
                FixedDissection::new(design.die, cfg.window, cfg.r).map_err(|e| e.to_string())?;
            let mut lines = Vec::new();
            let mut scratch = ExtractScratch::default();
            for ni in 0..design.nets.len() {
                extract_net_lines_with(&design, cfg.layer, NetId(ni), &mut scratch, &mut lines)
                    .map_err(|e| e.to_string())?;
            }
            extract_obstruction_lines(&design, cfg.layer, &mut lines);
            Ok((dissection, lines))
        })?;
        let columns = t.span("core.scan", |_| {
            let mut columns = Vec::new();
            scan_slack_columns_into(
                &lines,
                design.die,
                design.rules,
                &mut ScanScratch::default(),
                &mut columns,
            );
            columns
        });
        let slack: Vec<u32> = t.span("core.def3", |_| {
            def_three_capacities(&columns, &dissection, design.rules)
                .into_iter()
                .map(units::saturating_count)
                .collect()
        });
        let (map, before) = t.span("density.map", |_| {
            let map = DensityMap::compute(&design, cfg.layer, &dissection);
            let before = map.analyze();
            (map, before)
        });
        let feature_area = design.rules.feature_area();
        let budget = t
            .span("density.budget", |_| {
                montecarlo_budget(&map, &slack, feature_area, cfg.max_density)
            })
            .map_err(|e| e.to_string())?;
        let problems = t.span("core.tile_build", |_| {
            build_tile_problems_pool(
                &lines,
                &columns,
                &dissection,
                &design.tech,
                design.rules,
                cfg.def,
                pool,
            )
        });
        let per_tile = t.span("core.solve", |_| -> Result<Vec<Vec<u32>>, String> {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            problems
                .iter()
                .map(|p| {
                    let want = u64::from(budget.features(p.cell)).min(p.capacity());
                    let (c, stats): (Vec<u32>, BranchBoundStats) = IlpTwo
                        .place_with_stats(p, units::saturating_count(want), cfg.weighted, &mut rng)
                        .map_err(|e| e.to_string())?;
                    counts.pivots += stats.pivots;
                    counts.refactors += stats.refactorizations;
                    counts.bb_nodes += stats.nodes;
                    Ok(c)
                })
                .collect()
        })?;
        counts.tiles += problems.len();
        counts.columns += columns.len();
        let outcome = t.span("core.evaluate", |_| {
            let mut features = Vec::new();
            let (mut placed, mut shortfall) = (0u64, 0u64);
            let mut deltas = Vec::with_capacity(problems.len());
            for (p, c) in problems.iter().zip(&per_tile) {
                let tile_placed: u64 = c.iter().map(|&m| u64::from(m)).sum();
                shortfall += u64::from(budget.features(p.cell)).saturating_sub(tile_placed);
                for (col, &m) in p.columns.iter().zip(c) {
                    for y in col.slots.iter().take(m as usize) {
                        features.push(FillFeature {
                            x: col.feature_x,
                            y,
                        });
                    }
                }
                placed += tile_placed;
                deltas.push((p.cell, tile_placed as i64 * feature_area));
            }
            let mut after = map.clone();
            after.add_tile_areas(deltas);
            let impact = evaluate_placement(
                &features,
                &columns,
                &lines,
                design.die,
                &design.tech,
                design.rules,
                design.nets.len(),
            );
            FlowOutcome {
                method: "ILP-II",
                impact,
                budget_total: budget.total(),
                placed_features: placed,
                shortfall,
                density_before: before,
                density_after: after.analyze(),
                features,
                solve_time: Duration::ZERO,
                tiles: dissection.num_tiles(),
            }
        });
        Ok(outcome)
    })
}

/// Per-edit rebuild facts of a served-request replay.
#[derive(Debug, Default, Clone)]
pub struct EditCounts {
    /// Tiles re-solved per edit.
    pub dirty_tiles: Vec<f64>,
    /// Edits that reused the cached budget.
    pub budget_reused: u64,
}

/// Encodes, frames and decodes a fill reply as the daemon and a client
/// would; returns the decoded blob.
fn codec(
    outcome: &FlowOutcome,
    hash: pilfill_serve::protocol::DesignKey,
) -> Result<Vec<u8>, String> {
    let blob = encode_outcome_blob(outcome);
    let wire = encode_reply(&Reply::FillOk {
        status: FillStatus::Warm,
        server_ns: 0,
        design_hash: hash,
        blob,
    });
    match decode_reply(&wire).map_err(|e| e.to_string())? {
        Reply::FillOk { blob, .. } => Ok(blob),
        other => Err(format!("decoded {other:?}")),
    }
}

/// Replays the daemon's serving path for one slot in process: a cold
/// inline fill, a warm repeat, then each edit variant in turn (rebuilding
/// the context and re-solving its dirty tiles) with a warm repeat after
/// each. Returns, per replayed request, whether its blob equals the
/// slot's reference for that variant.
///
/// # Errors
///
/// A failing flow step.
pub fn replay_slot(
    t: &mut Tracer,
    slot: &Slot,
    pool: &WorkerPool,
    edits: &mut EditCounts,
) -> Result<Vec<bool>, String> {
    let cfg = slot.params.to_config()?;
    let method = &IlpTwo;
    let base_text = &slot.variants[0].text;
    let mut results = Vec::new();
    let solve = |t: &mut Tracer,
                 ctx: &FlowContext<'static>,
                 counts: &mut Vec<Option<Vec<u32>>>|
     -> Result<(), String> {
        t.span("core.solve", |_| {
            for (i, c) in counts.iter_mut().enumerate() {
                if c.is_none() {
                    *c = Some(
                        ctx.solve_tile(&cfg, method, i)
                            .map_err(|e| e.to_string())?
                            .0,
                    );
                }
            }
            Ok(())
        })
    };
    let finish = |t: &mut Tracer,
                  ctx: &FlowContext<'static>,
                  counts: &[Option<Vec<u32>>],
                  hash|
     -> Result<Vec<u8>, String> {
        let per_tile: Vec<(usize, Vec<u32>, Duration)> = counts
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.clone().expect("every tile solved"), Duration::ZERO))
            .collect();
        let outcome = t
            .span("core.assemble", |_| ctx.finish_run("ILP-II", per_tile))
            .map_err(|e| e.to_string())?;
        t.span("serve.codec", |_| codec(&outcome, hash))
    };

    let (base, mut ctx, mut counts) = t.span("serve.cold", |t| -> Result<_, String> {
        let design = t
            .span("layout.parse", |_| Design::from_text(base_text))
            .map_err(|e| e.to_string())?;
        let hash = t.span("serve.sha", |_| design_hash(&design));
        let ctx = t
            .span("core.build", |_| {
                FlowContext::build_pool(&design, &cfg, pool).map(FlowContext::into_owned)
            })
            .map_err(|e| e.to_string())?;
        let mut counts = vec![None; ctx.problems().len()];
        solve(t, &ctx, &mut counts)?;
        let blob = finish(t, &ctx, &counts, hash)?;
        results.push(blob == slot.variants[0].blob);
        Ok((design, ctx, counts))
    })?;
    for (k, v) in slot.variants.iter().enumerate() {
        if let Some(op) = v.op {
            t.span("serve.edit", |t| -> Result<(), String> {
                let edited = t.span("layout.edit", |_| {
                    let mut d = base.clone();
                    apply_edits(&mut d, &[op]).map(|()| d)
                })?;
                let (stats, dirt) = t
                    .span("core.rebuild", |_| ctx.rebuild_owned(&edited, &cfg, pool))
                    .map_err(|e| e.to_string())?;
                let dirty = match dirt {
                    RebuildDirt::All => {
                        counts = vec![None; ctx.problems().len()];
                        counts.len()
                    }
                    RebuildDirt::Tiles(tiles) => {
                        for &i in &tiles {
                            counts[i] = None;
                        }
                        tiles.len()
                    }
                };
                edits.dirty_tiles.push(dirty as f64);
                edits.budget_reused += u64::from(stats.budget_reused);
                solve(t, &ctx, &mut counts)?;
                let blob = finish(t, &ctx, &counts, v.key)?;
                results.push(blob == slot.variants[k].blob);
                Ok(())
            })?;
        }
        t.span("serve.warm", |t| -> Result<(), String> {
            let blob = finish(t, &ctx, &counts, v.key)?;
            results.push(blob == slot.variants[k].blob);
            Ok(())
        })?;
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_layers() {
        let mut t = Tracer::new(true);
        t.span("fill", |t| {
            t.span("a.x", |t| {
                busy(Duration::from_millis(4));
                t.span("b.y", |_| busy(Duration::from_millis(4)));
            });
        });
        let own = t.self_ns();
        assert_eq!(t.spans().len(), 3);
        assert!(own[0] < 1_000_000, "root self time {}", own[0]);
        assert!(own[1] >= 4_000_000 && own[1] < 8_000_000);
        assert!(t.coverage_pct() > 90.0);
        assert_eq!(t.spans()[2].req, 1);
        assert_eq!(t.self_ms("b.y", &["fill"]).len(), 1);
        assert!(t.self_ms("b.y", &["serve.warm"]).is_empty());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("fill", |t| t.span("a.x", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
