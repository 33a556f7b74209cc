//! Golden guard for the density budgeter: the Monte-Carlo fill budget of
//! the T1 and T2 presets at the paper's largest (W=32000, r=2) and finest
//! (W=20000, r=8) dissections, pinned as the total feature count plus an
//! FNV-1a checksum of the row-major per-tile counts.
//!
//! The pinned values were recorded from the linear-adjacency budget loop
//! that preceded the O(r^2)-per-feature rewrite (blocked tiles, one heap
//! entry per window); any change to them means the budget is no longer
//! bit-identical to that loop.

use pil_fill::core::flow::{FlowConfig, FlowContext};
use pil_fill::density::FixedDissection;
use pil_fill::layout::synth::{synthesize, SynthConfig};

/// `(budget_total, FNV-1a over the per-tile counts as u32 LE bytes)`.
fn budget_fingerprint(preset: &SynthConfig, window: i64, r: usize) -> (u64, u64) {
    let design = synthesize(preset);
    let config = FlowConfig::new(window, r).expect("config");
    let ctx = FlowContext::build(&design, &config).expect("context");
    let dis = FixedDissection::new(ctx.frame_design().die, window, r).expect("dissection");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for cell in dis.tiles().indices() {
        for byte in ctx.budget_features(cell).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (ctx.budget_total(), hash)
}

#[test]
fn budget_golden_t1_and_t2() {
    let cases = [
        (SynthConfig::t1(), 20_000, 8, 4318, 0x3919_f0c1_8514_5b17),
        (SynthConfig::t1(), 32_000, 2, 3917, 0x7e35_22ee_43d1_8f3f),
        (SynthConfig::t2(), 20_000, 8, 4794, 0x5ea8_dd0c_50f0_b487),
        (SynthConfig::t2(), 32_000, 2, 4415, 0x7c23_1cd4_1492_bb7b),
    ];
    for (preset, window, r, total, checksum) in cases {
        let got = budget_fingerprint(&preset, window, r);
        assert_eq!(got, (total, checksum), "{} W={window} r={r}", preset.name);
    }
}
