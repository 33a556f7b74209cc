//! Workload inputs: seeded preset designs, the fill grid, served slots
//! with their edit variants, and the in-process reference outcomes every
//! timed operation is checked against.

use pilfill_core::methods::IlpTwo;
use pilfill_core::{run_flow, FlowConfig, FlowOutcome};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::Design;
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};
use pilfill_serve::protocol::{
    apply_edits, design_hash, edit_hash, encode_outcome_blob, DesignKey, EditOp, FillParams,
};

/// Index of ILP-II in the wire method table.
pub const ILP2: u8 = 3;

/// A deterministic stream of sub-seeds for one workload run.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A preset design (`t1` when `big`, else `t2`) with a seeded layout and
/// a distinct name, since the daemon keys contexts by (name, config).
pub fn preset(big: bool, seed: u64, name: String) -> Design {
    let mut cfg = if big {
        SynthConfig::t1()
    } else {
        SynthConfig::t2()
    };
    cfg.seed = seed;
    cfg.name = name;
    synthesize(&cfg)
}

/// The ILP-II, definition-III flow config of a window and dissection.
pub fn config(window: i64, r: usize) -> FlowConfig {
    FlowConfig::new(window, r).expect("grid windows are divisible by r")
}

/// The in-process reference outcome of `design` under `config`.
pub fn reference(design: &Design, config: &FlowConfig) -> Result<FlowOutcome, String> {
    run_flow(design, config, &IlpTwo).map_err(|e| format!("reference flow of {}: {e}", design.name))
}

/// The fill-report line the CLI prints for an outcome: placed, budget,
/// shortfall and the delay impact as printed (4 decimals of fs).
pub fn report_key(outcome: &FlowOutcome) -> (u64, u64, u64, String) {
    (
        outcome.placed_features,
        outcome.budget_total,
        outcome.shortfall,
        format!("{:.4}", outcome.impact.total_delay * 1e15),
    )
}

/// One design variant a served slot can hold: the base or one edit of it.
#[derive(Debug, Clone)]
pub struct Variant {
    /// The store key a by-hash request names it by.
    pub key: DesignKey,
    /// The edit applied to the base, or `None` for the base itself.
    pub op: Option<EditOp>,
    /// Canonical text, for inline uploads and store-miss recovery.
    pub text: String,
    /// Reference outcome blob.
    pub blob: Vec<u8>,
}

/// One (design, config) pair the daemon caches a context for.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Wire parameters of every request for this slot.
    pub params: FillParams,
    /// Variant 0 is the base; the rest are single edits of it.
    pub variants: Vec<Variant>,
}

impl Slot {
    /// Builds a slot with `dup_sinks` dup-sink edits and `widens`
    /// widen-segment edits of `base`, drawn from `rng`, each with its
    /// reference outcome. Edits whose flow fails are skipped.
    pub fn new(
        base: &Design,
        config: &FlowConfig,
        dup_sinks: usize,
        widens: usize,
        rng: &mut StdRng,
    ) -> Result<Slot, String> {
        let base_key = design_hash(base);
        let outcome = reference(base, config)?;
        let mut variants = vec![Variant {
            key: base_key,
            op: None,
            text: base.to_text(),
            blob: encode_outcome_blob(&outcome),
        }];
        // Candidates ranked by a cost proxy (on-layer wirelength for a
        // dup-sink, length for a widened segment), so the edits of every
        // design sit at the same cost quantiles and a seed changes which
        // nets are edited but not how much re-solving the mix asks for.
        let on_layer_len = |n: &pilfill_layout::Net| -> i64 {
            n.segments
                .iter()
                .filter(|s| s.layer == config.layer)
                .map(pilfill_layout::Segment::length)
                .sum()
        };
        let mut with_sinks: Vec<(i64, u32)> = (0..base.nets.len())
            .filter(|&i| !base.nets[i].sinks.is_empty())
            .map(|i| {
                (
                    on_layer_len(&base.nets[i]),
                    u32::try_from(i).expect("net index fits u32"),
                )
            })
            .collect();
        with_sinks.sort_unstable();
        let mut on_layer: Vec<(i64, u32, u32)> = base
            .nets
            .iter()
            .enumerate()
            .flat_map(|(ni, n)| {
                n.segments
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.layer == config.layer)
                    .map(move |(si, s)| (s.length(), ni, si))
            })
            .map(|(len, ni, si)| {
                (
                    len,
                    u32::try_from(ni).expect("net index"),
                    u32::try_from(si).expect("segment index"),
                )
            })
            .collect();
        on_layer.sort_unstable();
        let mut ops = Vec::new();
        for k in 0..dup_sinks {
            if !with_sinks.is_empty() {
                let at = near_rank(
                    with_sinks.len(),
                    (k + 1) as f64 / (dup_sinks + 1) as f64,
                    rng,
                );
                ops.push(EditOp::DupSink {
                    net: with_sinks[at].1,
                });
            }
        }
        for k in 0..widens {
            if !on_layer.is_empty() {
                let at = near_rank(on_layer.len(), (k + 1) as f64 / (widens + 1) as f64, rng);
                let (_, net, seg) = on_layer[at];
                ops.push(EditOp::WidenSegment {
                    net,
                    seg,
                    delta: 40,
                });
            }
        }
        for op in ops {
            if variants.iter().any(|v| v.op == Some(op)) {
                continue;
            }
            let mut edited = base.clone();
            if apply_edits(&mut edited, &[op]).is_err() {
                continue;
            }
            let Ok(outcome) = reference(&edited, config) else {
                continue;
            };
            variants.push(Variant {
                key: edit_hash(base_key, &[op]),
                op: Some(op),
                text: edited.to_text(),
                blob: encode_outcome_blob(&outcome),
            });
        }
        Ok(Slot {
            params: FillParams::from_config(config, ILP2),
            variants,
        })
    }

    /// The base variant's store key.
    pub fn base_key(&self) -> DesignKey {
        self.variants[0].key
    }
}

/// An index into a ranked list of `len` candidates near quantile `q`,
/// drawn from `rng` within a twentieth of the list either side.
fn near_rank(len: usize, q: f64, rng: &mut StdRng) -> usize {
    let centre = (q * len as f64) as i64;
    let reach = (len / 20) as i64;
    let at = centre + rng.gen_range(-reach..=reach);
    at.clamp(0, len as i64 - 1) as usize
}

/// One point of the paper's Table-1 grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Density window in dbu.
    pub window: i64,
    /// Dissection parameter.
    pub r: usize,
}

/// Seeded designs per grid cell. One design's fill time at r=8 varies by
/// about a quarter from seed to seed, so each cell averages several.
pub const GRID_SEEDS: usize = 16;

/// The paper grid {T1, T2} x W in {32000, 20000} x r in {2, 4, 8}, with
/// [`GRID_SEEDS`] distinct seeded designs per cell: 96 fills per pass,
/// ordered so that every run of 12 consecutive fills covers all cells.
pub fn grid_points(seed: u64) -> Vec<(bool, u64, GridPoint)> {
    let mut rng = rng(seed, 1);
    let mut points = Vec::new();
    for _ in 0..GRID_SEEDS {
        for big in [true, false] {
            for window in [32_000, 20_000] {
                for r in [2, 4, 8] {
                    points.push((big, rng.gen(), GridPoint { window, r }));
                }
            }
        }
    }
    points
}

/// Maps `f` over `items` on up to `threads` threads, keeping order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let f = &f;
        let hs: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    part.iter()
                        .enumerate()
                        .map(|(i, x)| f(c * chunk + i, x))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// `n` served slots over T2-preset designs with distinct names and
/// seeds drawn from `seed`, at W=32000, r=2, each with `dup_sinks`
/// dup-sink and `widens` widen edits, built on `threads` threads.
///
/// # Errors
///
/// A failing reference flow.
pub fn t2_slots(
    seed: u64,
    salt: u64,
    n: usize,
    tag: &str,
    edits: (usize, usize),
    threads: usize,
) -> Result<Vec<Slot>, String> {
    let mut rng = rng(seed, salt);
    let seeds: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let cfg = config(32_000, 2);
    par_map(&seeds, threads, |i, &s| {
        let design = preset(false, s, format!("{tag}-{seed}-{i}"));
        Slot::new(
            &design,
            &cfg,
            edits.0,
            edits.1,
            &mut StdRng::seed_from_u64(s),
        )
    })
    .into_iter()
    .collect()
}

/// Designs in the quality probe behind `delay_fs`. One design's ILP-II
/// delay impact varies by about half its mean from seed to seed, so the
/// probe averages enough designs to keep the run-to-run spread near 7%.
pub const QUALITY_DESIGNS: usize = 96;

/// Mean ILP-II total delay impact per fill in fs over
/// [`QUALITY_DESIGNS`] seeded T2 designs at W=32000, r=2, computed on
/// `threads` threads.
///
/// # Errors
///
/// A failing reference flow.
pub fn quality_fs(seed: u64, threads: usize) -> Result<f64, String> {
    let mut rng = rng(seed, 7);
    let seeds: Vec<u64> = (0..QUALITY_DESIGNS).map(|_| rng.gen()).collect();
    let cfg = config(32_000, 2);
    let delays = par_map(&seeds, threads, |_, &s| {
        reference(&preset(false, s, format!("quality-{s}")), &cfg).map(|o| o.impact.total_delay)
    });
    let mut total = 0.0;
    for d in delays {
        total += d?;
    }
    Ok(total * 1e15 / QUALITY_DESIGNS as f64)
}
