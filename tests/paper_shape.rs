//! "Paper shape" integration tests: the qualitative claims of the paper's
//! evaluation must hold on small testcases — who wins, where the
//! crossovers fall — independent of absolute magnitudes.

use pil_fill::core::flow::{FlowConfig, FlowContext};
use pil_fill::core::methods::{FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pil_fill::core::{SlackColumnDef, TileProblem};
use pil_fill::layout::synth::{synthesize, SynthConfig};
use pil_fill::solver::{Model, Objective, Sense};
use std::time::{Duration, Instant};

fn medium_design() -> pil_fill::layout::Design {
    let mut cfg = SynthConfig::small_test(31);
    cfg.die_size = 48_000;
    cfg.num_buses = 3;
    cfg.bus_bits = 4;
    cfg.num_tree_nets = 14;
    cfg.num_local_nets = 30;
    synthesize(&cfg)
}

#[test]
fn ilp2_wins_and_normal_loses_across_dissections() {
    let d = medium_design();
    for (window, r) in [(16_000i64, 2usize), (16_000, 4), (12_000, 2)] {
        let cfg = FlowConfig::new(window, r).expect("config");
        let ctx = FlowContext::build(&d, &cfg).expect("context");
        let tau = |m: &dyn FillMethod| ctx.run(&cfg, m).expect("flow").impact.total_delay;
        let normal = tau(&NormalFill);
        let ilp1 = tau(&IlpOne);
        let ilp2 = tau(&IlpTwo);
        let greedy = tau(&GreedyFill);
        assert!(
            ilp2 <= ilp1 && ilp2 <= greedy && ilp2 <= normal,
            "W={window} r={r}: ILP-II must win ({ilp2} vs {ilp1}/{greedy}/{normal})"
        );
        assert!(
            normal >= greedy,
            "W={window} r={r}: Normal must not beat Greedy"
        );
    }
}

#[test]
fn improvement_shrinks_with_finer_dissection() {
    // Paper Sec. 6: fine-grained dissections split slack columns across
    // independently-solved tiles, eroding the optimizers' advantage.
    let d = medium_design();
    let mut reductions = Vec::new();
    for r in [1usize, 4, 8] {
        let cfg = FlowConfig::new(16_000, r).expect("config");
        let ctx = FlowContext::build(&d, &cfg).expect("context");
        let normal = ctx.run(&cfg, &NormalFill).expect("flow").impact.total_delay;
        let ilp2 = ctx.run(&cfg, &IlpTwo).expect("flow").impact.total_delay;
        reductions.push((normal - ilp2) / normal);
    }
    assert!(
        reductions[0] > reductions[2],
        "coarse dissection must benefit more: {reductions:?}"
    );
}

#[test]
fn slack_definition_quality_ordering() {
    // Paper Sec. 5.1: III most accurate, II places everything but
    // mis-attributes, I runs out of room.
    let d = medium_design();
    let mut outcomes = Vec::new();
    for def in [
        SlackColumnDef::One,
        SlackColumnDef::Two,
        SlackColumnDef::Three,
    ] {
        let mut cfg = FlowConfig::new(16_000, 2).expect("config");
        cfg.def = def;
        let ctx = FlowContext::build(&d, &cfg).expect("context");
        outcomes.push((def, ctx.run(&cfg, &IlpTwo).expect("flow")));
    }
    let (_, ref one) = outcomes[0];
    let (_, ref two) = outcomes[1];
    let (_, ref three) = outcomes[2];
    assert!(one.shortfall > 0, "definition I must run out of capacity");
    assert_eq!(two.shortfall, 0);
    assert_eq!(three.shortfall, 0);
    assert!(
        three.impact.total_delay <= two.impact.total_delay,
        "III ({}) must not lose to II ({})",
        three.impact.total_delay,
        two.impact.total_delay
    );
}

/// The paper's one-hot ILP-II program (Eqs. 15-23) for one tile, built
/// and solved through the in-repo MILP solver the way the paper handed it
/// to CPLEX: a binary `m_{k,n}` per column and count, one-of-n rows and
/// the budget row. Costs are divided by the tile's largest full-column
/// cost, as production scales them. Returns the optimum in ohm*F.
fn one_hot_optimum(p: &TileProblem, budget: u32, weighted: bool) -> f64 {
    let max_cost = p
        .columns
        .iter()
        .map(|c| c.cost_exact(c.capacity(), weighted))
        .fold(0.0f64, f64::max);
    let scale = if max_cost > 0.0 { max_cost } else { 1.0 };
    let mut model = Model::new(Objective::Minimize);
    let mut budget_terms = Vec::new();
    for col in &p.columns {
        let vars: Vec<_> = (0..=col.capacity().min(budget))
            .map(|n| model.add_binary_var(col.cost_exact(n, weighted) / scale))
            .collect();
        model.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
        budget_terms.extend(vars.iter().enumerate().map(|(n, &v)| (v, n as f64)));
    }
    model.add_constraint(budget_terms, Sense::Eq, f64::from(budget));
    model.solve().expect("one-hot model solvable").objective * scale
}

#[test]
fn ilp2_runtime_dominates_other_methods() {
    // Paper Tables 1-2: ILP-II has by far the largest CPU column. The
    // paper timed CPLEX on the one-hot program; production ILP-II solves
    // convex tiles by exact marginal selection instead, so the program
    // the paper timed is rebuilt and solved per tile here, and ILP-II's
    // counts must reach its optimum.
    let d = medium_design();
    let cfg = FlowConfig::new(16_000, 2).expect("config");
    let ctx = FlowContext::build(&d, &cfg).expect("context");
    let time = |m: &dyn FillMethod| ctx.run(&cfg, m).expect("flow").solve_time;
    let greedy = time(&GreedyFill);
    let normal = time(&NormalFill);
    let mut ilp2 = Duration::ZERO;
    for (i, p) in ctx.problems().iter().enumerate() {
        let want = u64::from(ctx.budget_features(p.cell)).min(p.capacity());
        let budget = u32::try_from(want).expect("tile budget fits u32");
        if budget == 0 {
            continue;
        }
        let t0 = Instant::now();
        let optimum = one_hot_optimum(p, budget, cfg.weighted);
        ilp2 += t0.elapsed();
        let (counts, _) = ctx.solve_tile(&cfg, &IlpTwo, i).expect("ilp2 tile");
        let cost = p.cost_of(&counts, cfg.weighted);
        assert!(
            (cost - optimum).abs() <= 1e-9 * optimum.abs(),
            "tile {:?}: ILP-II cost {cost} vs one-hot optimum {optimum}",
            p.cell
        );
    }
    assert!(
        ilp2 > greedy,
        "one-hot ILP-II ({ilp2:?}) not slower than Greedy ({greedy:?})"
    );
    assert!(
        ilp2 > normal,
        "one-hot ILP-II ({ilp2:?}) not slower than Normal ({normal:?})"
    );
}
