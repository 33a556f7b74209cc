//! Golden guard for the assembled flow outcome: every [`FlowOutcome`]
//! field except `solve_time`, pinned as one FNV-1a checksum per case — the
//! method name, the tile count, the budget, placed and shortfall counts,
//! both window-density analyses (as f64 bits), every placed feature, and
//! the whole [`DelayImpact`] (totals as f64 bits, free and unlocated
//! counts, both per-net vectors as f64 bits).
//!
//! The pinned values were recorded from the evaluator that located every
//! feature with its own binary search plus a linear walk of the site
//! column; any change to them means assembly or evaluation is no longer
//! bit-identical to that one. The checksum is asserted for [`run_flow`]
//! and for [`run_flow_streamed`] on 1- and 2-lane pools.

use pil_fill::core::flow::{run_flow, run_flow_streamed, FlowConfig, FlowOutcome};
use pil_fill::core::methods::{FillMethod, GreedyFill, IlpTwo};
use pil_fill::core::{DelayImpact, SlackColumnDef, WorkerPool};
use pil_fill::density::DensityAnalysis;
use pil_fill::layout::synth::{synthesize, SynthConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn density(&mut self, a: &DensityAnalysis) {
        self.f64(a.min_window_density);
        self.f64(a.max_window_density);
        self.f64(a.variation);
        self.f64(a.mean_window_density);
    }

    fn impact(&mut self, i: &DelayImpact) {
        self.f64(i.total_delay);
        self.f64(i.weighted_delay);
        self.f64(i.total_cap);
        self.u64(i.free_features);
        self.u64(i.unlocated_features);
        self.f64s(&i.per_net_delay);
        self.f64s(&i.per_net_cap);
    }
}

fn checksum(o: &FlowOutcome) -> u64 {
    let mut h = Fnv::new();
    h.bytes(o.method.as_bytes());
    h.u64(o.tiles as u64);
    h.u64(o.budget_total);
    h.u64(o.placed_features);
    h.u64(o.shortfall);
    h.density(&o.density_before);
    h.density(&o.density_after);
    h.u64(o.features.len() as u64);
    for f in &o.features {
        h.i64(f.x);
        h.i64(f.y);
    }
    h.impact(&o.impact);
    h.0
}

#[test]
fn outcome_golden_t1_and_t2() {
    let ilp2: &(dyn FillMethod + Sync) = &IlpTwo;
    let greedy: &(dyn FillMethod + Sync) = &GreedyFill;
    let cases = [
        (
            SynthConfig::t2(),
            32_000,
            2,
            SlackColumnDef::Three,
            ilp2,
            0xd482_ba70_07c6_7ce0,
        ),
        (
            SynthConfig::t1(),
            20_000,
            8,
            SlackColumnDef::Three,
            ilp2,
            0x9768_272b_f76c_583f,
        ),
        (
            SynthConfig::t2(),
            32_000,
            2,
            SlackColumnDef::Two,
            greedy,
            0x0c0f_6570_0e4c_ed47,
        ),
    ];
    let pools: Vec<WorkerPool> = [1, 2].into_iter().map(WorkerPool::new).collect();
    for (preset, window, r, def, method, want) in cases {
        let design = synthesize(&preset);
        let mut config = FlowConfig::new(window, r).expect("config");
        config.def = def;
        let tag = format!("{} W={window} r={r} {def:?} {}", preset.name, method.name());
        let serial = run_flow(&design, &config, method).expect("flow");
        if def == SlackColumnDef::Three {
            assert_eq!(serial.impact.unlocated_features, 0, "{tag}: unlocated");
        }
        assert_eq!(checksum(&serial), want, "{tag}: run_flow");
        for pool in &pools {
            let (_, pooled) = run_flow_streamed(&design, &config, method, pool).expect("flow");
            assert_eq!(
                checksum(&pooled),
                want,
                "{tag}: run_flow_streamed @ {} lanes",
                pool.lanes()
            );
        }
    }
}
