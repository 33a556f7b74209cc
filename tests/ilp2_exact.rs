//! Exactness guard for ILP-II on the paper's presets: on every tile with
//! a non-zero budget, T2 at the largest dissection (W=32000, r=2) and T1
//! at the finest (W=20000, r=8), ILP-II's modeled cost must equal the
//! exact dynamic program's to 1e-12 relative and never exceed the
//! Figure-8 greedy's by more than that.

use pil_fill::core::flow::{FlowConfig, FlowContext};
use pil_fill::core::methods::{DpExact, FillMethod, GreedyFill, IlpTwo};
use pil_fill::layout::synth::{synthesize, SynthConfig};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::SeedableRng;

/// Checks every budgeted tile of one design and returns how many there
/// were.
fn check_preset(preset: &SynthConfig, window: i64, r: usize) -> usize {
    let design = synthesize(preset);
    let config = FlowConfig::new(window, r).expect("config");
    let ctx = FlowContext::build(&design, &config).expect("context");
    let mut checked = 0;
    for p in ctx.problems() {
        let want = u64::from(ctx.budget_features(p.cell)).min(p.capacity());
        let budget = u32::try_from(want).expect("tile budget fits u32");
        if budget == 0 {
            continue;
        }
        let cost = |m: &dyn FillMethod| {
            let counts = m
                .place(p, budget, config.weighted, &mut StdRng::seed_from_u64(1))
                .unwrap_or_else(|e| panic!("{} on tile {:?}: {e}", m.name(), p.cell));
            p.cost_of(&counts, config.weighted)
        };
        let (ilp2, dp, greedy) = (cost(&IlpTwo), cost(&DpExact), cost(&GreedyFill));
        let ctx_msg = format!("{} W={window} r={r} tile {:?}", preset.name, p.cell);
        assert!(
            (ilp2 - dp).abs() <= 1e-12 * dp.abs(),
            "{ctx_msg}: ILP-II {ilp2} vs exact DP {dp}"
        );
        // Same relative slack as above: equal-cost placements in other
        // columns may sum to a different last bit.
        assert!(
            ilp2 <= greedy + 1e-12 * greedy.abs(),
            "{ctx_msg}: ILP-II {ilp2} above Greedy {greedy}"
        );
        checked += 1;
    }
    checked
}

#[test]
fn ilp2_matches_exact_dp_on_every_budgeted_tile() {
    let t2 = check_preset(&SynthConfig::t2(), 32_000, 2);
    let t1 = check_preset(&SynthConfig::t1(), 20_000, 8);
    assert!(t2 > 0 && t1 > 0, "no budgeted tiles: t2 {t2}, t1 {t1}");
}
