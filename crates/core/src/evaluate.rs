//! Method-independent delay-impact evaluation.
//!
//! Every placement — Normal, Greedy, ILP-I, ILP-II, any slack-column
//! definition — is scored by the same procedure: locate each fill feature
//! in the *global* slack columns, count features per column, compute the
//! exact incremental coupling capacitance `f(m, d)` of the column's line
//! pair, and charge the Elmore delay increment to both lines at the
//! column's position (Eqs. (9) and (13)). Methods that optimize an
//! approximation (ILP-I's linearization, definition II's mis-attribution)
//! are therefore judged by reality, which is how the paper's Table 1 can
//! show ILP-I losing to the Normal baseline.

use crate::{ActiveLine, FillFeature, SlackColumn};
use pilfill_geom::{Coord, Rect};
use pilfill_layout::{FillRules, NetId, Tech};
use pilfill_rc::CouplingModel;

/// Delay impact of a fill placement.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a delay evaluation is pure; dropping it discards the verdict"]
pub struct DelayImpact {
    /// Total unweighted delay increase over all wire segments, in seconds
    /// (the paper's Table 1 metric).
    pub total_delay: f64,
    /// Downstream-sink-weighted total (the paper's Table 2 metric).
    pub weighted_delay: f64,
    /// Total incremental coupling capacitance, in farads.
    pub total_cap: f64,
    /// Features that landed in zero-impact columns (no line pair).
    pub free_features: u64,
    /// Features that could not be located in any slack column (should be
    /// zero for placements produced by the flow).
    pub unlocated_features: u64,
    /// Per-net unweighted delay increase, indexed by net id.
    pub per_net_delay: Vec<f64>,
    /// Per-net incremental coupling capacitance, indexed by net id (the
    /// quantity the Section-7 capacitance budgets constrain).
    pub per_net_cap: Vec<f64>,
}

impl DelayImpact {
    /// The net with the largest incremental coupling capacitance, with its
    /// value in farads.
    pub fn worst_net_cap(&self) -> Option<(NetId, f64)> {
        self.per_net_cap
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &c)| (NetId(i), c))
    }

    /// The nets whose delay increased most, as `(net, delay)` sorted
    /// descending, truncated to `n`.
    pub fn worst_nets(&self, n: usize) -> Vec<(NetId, f64)> {
        let mut v: Vec<(NetId, f64)> = self
            .per_net_delay
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0.0)
            .map(|(i, &d)| (NetId(i), d))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(n);
        v
    }

    /// Charges one occupied slack column holding `m` located features:
    /// the exact `f(m, d)` of its line pair, and the Elmore delay increment
    /// to each adjacent line (below first, then above) at the column's
    /// position. A column with no line pair counts its features as free.
    fn charge_column(
        &mut self,
        col: &SlackColumn,
        m: u32,
        lines: &[ActiveLine],
        model: &CouplingModel,
        rules: FillRules,
    ) {
        let Some(d) = col.distance() else {
            self.free_features += u64::from(m);
            return;
        };
        // Defensive clamp: placements from per-tile scans may exceed the
        // global slot count by a feature or two near tile cuts; never let
        // the metal close the gap in the model.
        let max_m = pilfill_geom::units::saturating_count(
            u64::try_from((d - 1) / rules.feature_size).unwrap_or(0),
        );
        let m = m.min(max_m);
        if m == 0 {
            return;
        }
        let dcap = model.delta_cap_exact(m, d, rules.feature_size);
        self.total_cap += dcap;
        let x = col.feature_x(rules) + rules.feature_size / 2;
        for idx in [col.below, col.above].into_iter().flatten() {
            // u32 -> usize is widening on every supported target.
            let line = &lines[idx as usize]; // pilfill: allow(as-cast)
            let dtau = dcap * line.res_at(x);
            self.total_delay += dtau;
            self.weighted_delay += f64::from(line.weight) * dtau;
            if let Some(net) = line.net {
                self.per_net_delay[net.0] += dtau;
                self.per_net_cap[net.0] += dcap;
            }
        }
    }
}

/// `true` if `feature` lies in `col`'s site column and gap — the same
/// test [`locate_feature`](crate::scan::locate_feature) applies, without
/// the search (`col.x` is the left edge of site column `col.site_x`).
fn in_column(col: &SlackColumn, feature: FillFeature, pitch: Coord) -> bool {
    col.x <= feature.x && feature.x - col.x < pitch && col.gap.contains(feature.y)
}

/// Evaluates `features` against the global slack columns.
///
/// `num_nets` sizes the per-net vector; `bounds`/`rules` must match the
/// scan that produced `columns`.
///
/// Features are located once per run: a flow places each tile column's
/// features consecutively, so the column that held the previous feature
/// is tried before a search. The scan's gaps are disjoint within a site
/// column, so a hit there is the column the search would return, and the
/// per-column counts do not depend on the feature order. Columns are then
/// charged in ascending index order, which fixes the f64 addition
/// sequence.
pub fn evaluate_placement(
    features: &[FillFeature],
    columns: &[SlackColumn],
    lines: &[ActiveLine],
    bounds: Rect,
    tech: &Tech,
    rules: FillRules,
    num_nets: usize,
) -> DelayImpact {
    let pitch = rules.site_pitch();
    let mut counts = vec![0u32; columns.len()];
    let mut unlocated = 0u64;
    let mut last: Option<usize> = None;
    for &f in features {
        let hit = match last {
            Some(i) if in_column(&columns[i], f, pitch) => Some(i),
            _ => crate::scan::locate_feature(columns, bounds, rules, f),
        };
        match hit {
            Some(i) => counts[i] += 1,
            None => unlocated += 1,
        }
        last = hit.or(last);
    }

    let model = CouplingModel::new(tech);
    let mut impact = DelayImpact {
        total_delay: 0.0,
        weighted_delay: 0.0,
        total_cap: 0.0,
        free_features: 0,
        unlocated_features: unlocated,
        per_net_delay: vec![0.0; num_nets],
        per_net_cap: vec![0.0; num_nets],
    };
    for (col, &m) in columns.iter().zip(&counts) {
        if m > 0 {
            impact.charge_column(col, m, lines, &model, rules);
        }
    }
    impact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_active_lines, scan_slack_columns};
    use pilfill_geom::{Dir, Point};
    use pilfill_layout::{Design, DesignBuilder, LayerId};

    fn design() -> Design {
        DesignBuilder::new("d", Rect::new(0, 0, 9_000, 9_000))
            .layer("m3", Dir::Horizontal)
            .net("a", Point::new(300, 3_000))
            .segment("m3", Point::new(300, 3_000), Point::new(8_700, 3_000), 280)
            .sink(Point::new(8_700, 3_000))
            .net("b", Point::new(300, 5_000))
            .segment("m3", Point::new(300, 5_000), Point::new(8_700, 5_000), 280)
            .sink(Point::new(8_700, 5_000))
            .build()
            .expect("valid")
    }

    struct Setup {
        design: Design,
        lines: Vec<crate::ActiveLine>,
        columns: Vec<crate::SlackColumn>,
    }

    fn setup() -> Setup {
        let design = design();
        let lines = extract_active_lines(&design, LayerId(0)).expect("lines");
        let columns = scan_slack_columns(&lines, design.die, design.rules);
        Setup {
            design,
            lines,
            columns,
        }
    }

    fn eval(s: &Setup, features: &[FillFeature]) -> DelayImpact {
        evaluate_placement(
            features,
            &s.columns,
            &s.lines,
            s.design.die,
            &s.design.tech,
            s.design.rules,
            s.design.nets.len(),
        )
    }

    /// A feature in the middle of the gap between the two lines.
    fn feature_between(s: &Setup) -> FillFeature {
        let col = s
            .columns
            .iter()
            .find(|c| c.distance().is_some() && !c.slots.is_empty() && c.x >= 2_000)
            .expect("paired column");
        FillFeature {
            x: col.feature_x(s.design.rules),
            y: col.slots.get(col.slots.len() / 2).expect("slot"),
        }
    }

    #[test]
    fn empty_placement_has_zero_impact() {
        let s = setup();
        let impact = eval(&s, &[]);
        assert_eq!(impact.total_delay, 0.0);
        assert_eq!(impact.weighted_delay, 0.0);
        assert_eq!(impact.total_cap, 0.0);
        assert_eq!(impact.free_features, 0);
    }

    #[test]
    fn feature_between_lines_charges_both_nets() {
        let s = setup();
        let impact = eval(&s, &[feature_between(&s)]);
        assert!(impact.total_delay > 0.0);
        assert!(impact.total_cap > 0.0);
        assert!(impact.per_net_delay[0] > 0.0);
        assert!(impact.per_net_delay[1] > 0.0);
        assert_eq!(impact.free_features, 0);
        assert_eq!(impact.unlocated_features, 0);
        // Single-sink nets: weighted equals unweighted.
        assert!((impact.weighted_delay - impact.total_delay).abs() < 1e-30);
    }

    #[test]
    fn feature_far_from_lines_is_free() {
        let s = setup();
        // Top boundary gap: above = None.
        let col = s
            .columns
            .iter()
            .find(|c| c.above.is_none() && !c.slots.is_empty())
            .expect("boundary column");
        let f = FillFeature {
            x: col.feature_x(s.design.rules),
            y: col.slots.last().expect("slots"),
        };
        let impact = eval(&s, &[f]);
        assert_eq!(impact.total_delay, 0.0);
        assert_eq!(impact.free_features, 1);
    }

    #[test]
    fn more_features_in_gap_cost_superlinearly() {
        let s = setup();
        let col_idx = s
            .columns
            .iter()
            .position(|c| c.distance().is_some() && c.slots.len() >= 3 && c.x >= 2_000)
            .expect("column with 3 slots");
        let col = &s.columns[col_idx];
        let make = |k: usize| -> Vec<FillFeature> {
            col.slots
                .iter()
                .take(k)
                .map(|y| FillFeature {
                    x: col.feature_x(s.design.rules),
                    y,
                })
                .collect()
        };
        let d1 = eval(&s, &make(1)).total_delay;
        let d2 = eval(&s, &make(2)).total_delay;
        let d3 = eval(&s, &make(3)).total_delay;
        assert!(d2 > 2.0 * d1, "convexity: {d2} vs 2*{d1}");
        assert!(d3 - d2 > d2 - d1, "marginals increase");
    }

    #[test]
    fn delay_larger_far_from_driver() {
        let s = setup();
        let paired: Vec<&crate::SlackColumn> = s
            .columns
            .iter()
            .filter(|c| c.distance().is_some() && !c.slots.is_empty())
            .collect();
        let near = paired.first().expect("paired");
        let far = paired.last().expect("paired");
        assert!(far.x > near.x);
        let f = |c: &crate::SlackColumn| FillFeature {
            x: c.feature_x(s.design.rules),
            y: c.slots.first().expect("slot"),
        };
        let d_near = eval(&s, &[f(near)]).total_delay;
        let d_far = eval(&s, &[f(far)]).total_delay;
        assert!(
            d_far > d_near,
            "fill downstream must hurt more: {d_far} vs {d_near}"
        );
    }

    #[test]
    fn unlocated_features_are_counted() {
        let s = setup();
        // A position inside a line.
        let f = FillFeature { x: 1_000, y: 2_950 };
        let impact = eval(&s, &[f]);
        assert_eq!(impact.unlocated_features, 1);
    }

    #[test]
    fn feature_order_does_not_change_the_evaluation() {
        use crate::flow::{FlowConfig, FlowContext};
        use crate::methods::IlpTwo;
        use pilfill_layout::synth::{synthesize, SynthConfig};
        use pilfill_prng::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xE7A1);
        for seed in [3, 7, 11] {
            let d = synthesize(&SynthConfig::small_test(seed));
            let config = FlowConfig::new(8_000, 2).expect("config");
            let ctx = FlowContext::build(&d, &config).expect("context");
            let outcome = ctx.run(&config, &IlpTwo).expect("run");
            let frame = ctx.frame_design();
            let eval = |features: &[FillFeature]| {
                evaluate_placement(
                    features,
                    ctx.columns(),
                    ctx.lines(),
                    frame.die,
                    &frame.tech,
                    frame.rules,
                    frame.nets.len(),
                )
            };
            // The flow's tile-ordered list is what the run evaluated.
            let mut features = outcome.features.clone();
            assert!(features.len() > 50, "seed {seed}: too little fill");
            assert_eq!(eval(&features), outcome.impact, "seed {seed}");
            // Add features inside lines (unlocated), then shuffle
            // (Fisher-Yates) so almost no feature follows its column.
            let unlocated: Vec<FillFeature> = ctx
                .lines()
                .iter()
                .take(5)
                .map(|l| FillFeature {
                    x: l.rect.left,
                    y: l.rect.bottom,
                })
                .collect();
            features.extend(&unlocated);
            let ordered = eval(&features);
            assert_eq!(ordered.unlocated_features, unlocated.len() as u64);
            for i in (1..features.len()).rev() {
                features.swap(i, rng.gen_range(0..=i));
            }
            assert_eq!(eval(&features), ordered, "seed {seed}: shuffled");
        }
    }

    #[test]
    fn worst_nets_sorted_descending() {
        let s = setup();
        let impact = eval(&s, &[feature_between(&s)]);
        let worst = impact.worst_nets(5);
        assert_eq!(worst.len(), 2);
        assert!(worst[0].1 >= worst[1].1);
    }
}
