//! ILP-II (paper Section 5.3): the lookup-table integer program over the
//! exact incremental capacitances `f(n, d_k)` of the pre-built
//! [`CapTable`] (Eqs. 15-23), so the optimizer sees the true convex cost
//! curve instead of ILP-I's linearization.
//!
//! The program is separable — `sum_k cost_k(m_k)` under the single budget
//! row `sum_k m_k = F` — and is solved without a solver whenever it can
//! be. Zero-cost columns (no line pair, or zero delay coefficient) take as
//! much of the budget as they hold. When every costed column's scaled
//! marginals `f(n) - f(n-1)` are nondecreasing — the physical case, since
//! [`CapTable`] marginals grow with crowding — the remaining features go
//! to the smallest marginals across all columns, taken by a k-way merge
//! over the column heads with ties broken by `(marginal, column index)`.
//! This is exact by the standard exchange argument: a selection that
//! skips a smaller marginal for a larger one can swap the two without
//! raising the cost, and with nondecreasing marginals each column's
//! selection is a prefix whose sum telescopes to the table cost. Such
//! tiles build no model and report default [`BranchBoundStats`].
//!
//! A non-convex table (possible only through rounding at the scale floor)
//! falls back to the paper's one-hot MILP, which stays exact
//! unconditionally. Its branch-and-bound is warm-started from the greedy
//! placement: the greedy counts are feasible, and their exact objective
//! seeds the search's pruning level
//! ([`pilfill_solver::MilpOptions::cutoff`]). When nothing beats the
//! cutoff the greedy counts are returned as-is (optimal to within the
//! pruning tolerance).

use super::{check_budget, FillMethod, GreedyFill, MethodError};
use crate::{TileColumn, TileProblem};
use pilfill_geom::units;
use pilfill_prng::rngs::StdRng;
use pilfill_solver::{BranchBoundStats, MilpOptions, Model, Objective, Sense, SolveError};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

/// The Section-5.3 lookup-table ILP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpTwo;

impl FillMethod for IlpTwo {
    fn name(&self) -> &'static str {
        "ILP-II"
    }

    fn place(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, MethodError> {
        self.place_with_stats(problem, budget, weighted, rng)
            .map(|(counts, _)| counts)
    }
}

impl IlpTwo {
    /// Like [`FillMethod::place`], but also reports the branch-and-bound
    /// search statistics (nodes, pivots, LU refactorizations, cuts) — the
    /// benchmark harness records these as solver-effort observability
    /// counters. Convex tiles never reach the solver and report
    /// [`BranchBoundStats::default`]; the stats count the one-hot
    /// fallback alone, and are reported even when the greedy incumbent
    /// survives its cutoff search.
    ///
    /// # Errors
    ///
    /// Same contract as [`FillMethod::place`].
    pub fn place_with_stats(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<(Vec<u32>, BranchBoundStats), MethodError> {
        check_budget(problem, budget)?;
        if budget == 0 {
            return Ok((vec![0; problem.columns.len()], BranchBoundStats::default()));
        }
        // Zero-cost columns (no line pair, or zero delay coefficient) are
        // interchangeable: any distribution of their share is optimal.
        // Exact zero is the sentinel for "no adjacent line charged", set —
        // never computed — upstream; an epsilon would misclassify real
        // low-resistance columns. pilfill: allow(float-eq)
        let is_free = |c: &TileColumn| c.table.is_none() || c.alpha(weighted) == 0.0;
        let free_cap: u64 = problem
            .columns
            .iter()
            .filter(|c| is_free(c))
            .map(|c| u64::from(c.capacity()))
            .sum();

        // Objective scaling (costs are in ohm*farad ~ 1e-18).
        let max_cost = problem
            .columns
            .iter()
            .filter(|c| c.capacity() > 0 && !is_free(c))
            .map(|c| c.cost_exact(c.capacity(), weighted))
            .fold(0.0f64, f64::max);
        let scale = if max_cost > 0.0 { max_cost } else { 1.0 };

        // Scaled marginal costs of every costed column, flat:
        // `marginals[spans[k]]` holds `m_n = (f(n) - f(n-1)) / scale` for
        // n = 1..=C_k (an empty span for free columns). Selecting the
        // smallest marginals is exact iff they are nondecreasing within
        // every column (convexity).
        let mut marginals = Vec::new();
        let spans: Vec<Range<usize>> = problem
            .columns
            .iter()
            .map(|col| {
                let start = marginals.len();
                if let (Some(t), false) = (&col.table, is_free(col)) {
                    let alpha = col.alpha(weighted);
                    marginals.extend((1..=col.capacity()).map(|n| alpha * t.marginal(n) / scale));
                }
                start..marginals.len()
            })
            .collect();
        // Tolerance in scaled space (all costs are in [0, 1] there): a
        // marginal may dip below its predecessor by round-off without
        // breaking the exchange argument in any measurable way.
        const CONVEX_EPS: f64 = 1e-12;
        let convex = spans.iter().all(|s| {
            let ms = &marginals[s.clone()];
            ms.windows(2).all(|w| w[1] + CONVEX_EPS >= w[0]) && ms.iter().all(|&m| m >= -CONVEX_EPS)
        });
        if !convex {
            return one_hot_milp(problem, budget, weighted, rng, scale, &is_free, free_cap);
        }

        let mut counts = vec![0u32; problem.columns.len()];
        let free_share = u64::from(budget).min(free_cap);
        fill_free_columns(problem, &mut counts, free_share, &is_free);
        // The rest goes to the smallest marginals. Each column is a sorted
        // run, so a min-heap of column heads yields them in global
        // `(marginal, column)` order; a popped column advances its head in
        // place.
        let mut rest = u64::from(budget) - free_share;
        let mut heads: BinaryHeap<Reverse<Head>> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(col, s)| {
                Reverse(Head {
                    marginal: marginals[s.start],
                    col,
                })
            })
            .collect();
        while rest > 0 {
            let Some(mut top) = heads.peek_mut() else {
                break;
            };
            let col = top.0.col;
            counts[col] += 1;
            rest -= 1;
            let next = spans[col].start + units::index(i64::from(counts[col]));
            if next < spans[col].end {
                top.0.marginal = marginals[next];
            } else {
                PeekMut::pop(top);
            }
        }
        debug_assert_eq!(
            rest, 0,
            "check_budget bounds the rest by the costed capacity"
        );
        Ok((counts, BranchBoundStats::default()))
    }
}

/// A column's next unselected scaled marginal, totally ordered by
/// `(marginal, column index)` so the selection is deterministic on ties.
#[derive(Debug, Clone, Copy)]
struct Head {
    marginal: f64,
    col: usize,
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        self.marginal
            .total_cmp(&other.marginal)
            .then(self.col.cmp(&other.col))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

/// Spreads `share` features over the free columns in column order, each
/// filled to capacity before the next.
fn fill_free_columns(
    problem: &TileProblem,
    counts: &mut [u32],
    mut share: u64,
    is_free: &dyn Fn(&TileColumn) -> bool,
) {
    for (count, col) in counts.iter_mut().zip(&problem.columns) {
        if share == 0 {
            break;
        }
        if is_free(col) {
            let take = units::saturating_count(u64::from(col.capacity()).min(share));
            *count = take;
            share -= u64::from(take);
        }
    }
}

/// The paper's one-hot MILP (Eqs. 15-23) for tiles whose scaled cost
/// tables are not convex: binaries `m_{k,n}` per costed column and count,
/// one aggregate variable for the free columns, branch-and-bound
/// warm-started from the greedy placement.
fn one_hot_milp(
    problem: &TileProblem,
    budget: u32,
    weighted: bool,
    rng: &mut StdRng,
    scale: f64,
    is_free: &dyn Fn(&TileColumn) -> bool,
    free_cap: u64,
) -> Result<(Vec<u32>, BranchBoundStats), MethodError> {
    let mut model = Model::new(Objective::Minimize);
    let mut vars: Vec<Option<Vec<pilfill_solver::VarId>>> =
        Vec::with_capacity(problem.columns.len());
    let mut budget_terms: Vec<(pilfill_solver::VarId, f64)> = Vec::new();
    for col in &problem.columns {
        let table = match &col.table {
            Some(t) if !is_free(col) => t,
            _ => {
                vars.push(None);
                continue;
            }
        };
        // One-hot binaries m_{k,n} (Eq. 15/23), n = 0..=C_k; cost from the
        // table (Eq. 20 folded into Eq. 16 through Eq. 21).
        let col_vars: Vec<_> = (0..=col.capacity())
            .map(|n| model.add_binary_var(col.alpha(weighted) * table.delta_cap(n) / scale))
            .collect();
        // Eq. (19) with the n = 0 entry included: exactly one count is
        // chosen per column.
        model.add_constraint(col_vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
        budget_terms.extend(col_vars.iter().enumerate().map(|(n, &v)| (v, n as f64)));
        vars.push(Some(col_vars));
    }
    // The aggregate free variable (continuous: the budget row forces an
    // integral value given integral binaries).
    let free_var = model.add_var(0.0, free_cap as f64, 0.0);
    budget_terms.push((free_var, 1.0));
    // Eqs. (17)+(18) folded: sum_k sum_n n * m_{k,n} + free = F.
    model.add_constraint(budget_terms, Sense::Eq, f64::from(budget));

    // Incumbent warm start: greedy is deterministic, feasible for the same
    // budget row (it places exactly `budget` features within column
    // capacities), and usually optimal on sparse tiles. Its exact
    // objective — evaluated by the same tables the model costs with, in
    // the same `scale` — seeds branch-and-bound's pruning level.
    let greedy_counts = GreedyFill.place(problem, budget, weighted, rng)?;
    let greedy_cost = problem.cost_of(&greedy_counts, weighted) / scale;

    let options = MilpOptions {
        cutoff: Some(greedy_cost),
        ..MilpOptions::default()
    };
    let (result, stats) = model.solve_with_stats(&options);
    let sol = match result {
        Ok(sol) => sol,
        // Nothing beats the greedy incumbent (Cutoff), or the node budget
        // ran out before anything did (NodeLimit): keep the greedy counts,
        // which are optimal to within the pruning tolerance
        // `gap_tol * scale`.
        Err(SolveError::Cutoff | SolveError::NodeLimit) => return Ok((greedy_counts, stats)),
        Err(e) => return Err(e.into()),
    };
    let mut counts: Vec<u32> = vars
        .iter()
        .map(|col_vars| {
            col_vars
                .as_ref()
                .and_then(|cv| cv.iter().position(|&v| sol.value(v) > 0.5))
                .map_or(0, |n| units::saturating_count(n as u64))
        })
        .collect();
    let free_share = sol.value(free_var).round().max(0.0) as u64;
    fill_free_columns(problem, &mut counts, free_share, is_free);
    // Numerical safety: if rounding left a residual against the exact
    // budget, top up / trim in free columns first.
    reconcile_budget(problem, &mut counts, budget, is_free);
    Ok((counts, stats))
}
/// Adjusts `counts` so they sum exactly to `budget`, preferring free
/// columns for any correction (costed columns only as a last resort, which
/// only triggers on solver round-off).
fn reconcile_budget(
    problem: &TileProblem,
    counts: &mut [u32],
    budget: u32,
    is_free: &dyn Fn(&TileColumn) -> bool,
) {
    let mut total: i64 = counts.iter().map(|&m| m as i64).sum();
    let order: Vec<usize> = {
        let mut free: Vec<usize> = (0..counts.len())
            .filter(|&i| is_free(&problem.columns[i]))
            .collect();
        let costed: Vec<usize> = (0..counts.len())
            .filter(|&i| !is_free(&problem.columns[i]))
            .collect();
        free.extend(costed);
        free
    };
    for &i in &order {
        if total == budget as i64 {
            break;
        }
        let cap = problem.columns[i].capacity();
        if total < i64::from(budget) {
            let missing =
                units::saturating_count(u64::try_from(i64::from(budget) - total).unwrap_or(0));
            let add = missing.min(cap - counts[i]);
            counts[i] += add;
            total += i64::from(add);
        } else {
            let excess =
                units::saturating_count(u64::try_from(total - i64::from(budget)).unwrap_or(0));
            let sub = excess.min(counts[i]);
            counts[i] -= sub;
            total -= i64::from(sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{assert_valid_assignment, synthetic_tile};
    use crate::methods::{DpExact, GreedyFill, IlpOne};
    use pilfill_prng::{Rng, SeedableRng};
    use pilfill_rc::CapTable;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    /// ILP-II's counts and stats after checking that they are a valid
    /// assignment whose cost matches [`DpExact`] to 1e-12 relative.
    fn place_matching_dp(
        tile: &TileProblem,
        budget: u32,
        weighted: bool,
    ) -> (Vec<u32>, BranchBoundStats) {
        let (counts, stats) = IlpTwo
            .place_with_stats(tile, budget, weighted, &mut rng())
            .expect("ilp2");
        assert_valid_assignment(tile, &counts, budget);
        let dp = DpExact
            .place(tile, budget, weighted, &mut rng())
            .expect("dp");
        let (ci, cd) = (tile.cost_of(&counts, weighted), tile.cost_of(&dp, weighted));
        assert!(
            (ci - cd).abs() <= 1e-12 * cd.abs(),
            "budget {budget} weighted {weighted}: ilp2 {ci} vs dp {cd} ({counts:?} vs {dp:?})"
        );
        (counts, stats)
    }

    #[test]
    fn hits_budget_exactly() {
        let tile = synthetic_tile(&[(1_500, 3, 2.0), (2_500, 4, 1.0)], 2);
        for budget in [0u32, 1, 5, 9] {
            let counts = IlpTwo
                .place(&tile, budget, false, &mut rng())
                .expect("place");
            assert_valid_assignment(&tile, &counts, budget);
        }
    }

    #[test]
    fn matches_dp_exact_optimum() {
        let tile = synthetic_tile(
            &[
                (1_000, 3, 1.0),
                (1_400, 4, 0.8),
                (5_000, 5, 2.0),
                (900, 2, 0.1),
            ],
            2,
        );
        for budget in [2u32, 6, 11] {
            for weighted in [false, true] {
                let ilp = IlpTwo
                    .place(&tile, budget, weighted, &mut rng())
                    .expect("ilp2");
                let dp = DpExact
                    .place(&tile, budget, weighted, &mut rng())
                    .expect("dp");
                let ci = tile.cost_of(&ilp, weighted);
                let cd = tile.cost_of(&dp, weighted);
                assert!(
                    (ci - cd).abs() <= 1e-9 * cd.abs(),
                    "budget {budget} weighted {weighted}: ilp2 {ci} vs dp {cd}"
                );
            }
        }
    }

    #[test]
    fn selection_matches_dp_on_random_convex_tiles() {
        let mut r = StdRng::seed_from_u64(0x11_9002);
        for case in 0..200 {
            // A few distinct spacings and alphas, so identical columns (and
            // with them tied marginals) are common.
            let n = r.gen_range(1usize..7);
            let mut cols: Vec<(i64, u32, f64)> = Vec::with_capacity(n);
            for _ in 0..n {
                if !cols.is_empty() && r.gen::<f64>() < 0.3 {
                    let twin = cols[r.gen_range(0..cols.len())];
                    cols.push(twin);
                    continue;
                }
                let d = [900i64, 1_400, 2_000, 3_100][r.gen_range(0usize..4)];
                let alpha = [0.0, 0.5, 1.0, 2.5][r.gen_range(0usize..4)];
                cols.push((d, r.gen_range(1u32..8), alpha));
            }
            let free = if r.gen::<bool>() {
                r.gen_range(1u32..6)
            } else {
                0
            };
            let mut tile = synthetic_tile(&cols, free);
            // Columns that cost something only under one objective.
            for col in tile.columns.iter_mut().filter(|c| c.table.is_some()) {
                if r.gen::<f64>() < 0.2 {
                    col.alpha_weighted = 0.0;
                }
            }
            let cap = u32::try_from(tile.capacity()).expect("small tile");
            for budget in [1, free.min(cap), r.gen_range(0..=cap), cap] {
                for weighted in [false, true] {
                    let (counts, stats) = place_matching_dp(&tile, budget, weighted);
                    assert_eq!(stats, BranchBoundStats::default(), "case {case}");
                    // Free columns absorb what they can before any costed
                    // column takes a feature.
                    let free_taken: u32 = tile
                        .columns
                        .iter()
                        .zip(&counts)
                        .filter(|(c, _)| c.table.is_none() || c.alpha(weighted) == 0.0)
                        .map(|(_, &m)| m)
                        .sum();
                    let free_cap: u32 = tile
                        .columns
                        .iter()
                        .filter(|c| c.table.is_none() || c.alpha(weighted) == 0.0)
                        .map(TileColumn::capacity)
                        .sum();
                    assert_eq!(free_taken, budget.min(free_cap), "case {case}: {counts:?}");
                }
            }
        }
    }

    #[test]
    fn ties_between_identical_columns_go_to_the_lower_index() {
        let tile = synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.0)], 0);
        let (counts, _) = place_matching_dp(&tile, 3, false);
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn budget_within_free_capacity_leaves_costed_columns_empty() {
        let tile = synthetic_tile(&[(2_000, 5, 1.0), (1_400, 3, 0.0)], 4);
        // Column 1 has zero alpha, so it is free alongside the free column.
        let (counts, _) = place_matching_dp(&tile, 6, false);
        assert_eq!(counts, vec![0, 3, 3]);
    }

    #[test]
    fn non_convex_table_takes_the_one_hot_milp() {
        // Marginals 3, 1, 5: not nondecreasing, so marginal selection would
        // be wrong (it cannot reach the cheap second feature without the
        // dearer first one) and the tile must go through the MILP.
        let mut tile = synthetic_tile(&[(2_000, 3, 1.0), (2_000, 3, 1.0)], 1);
        tile.columns[0].table = Some(CapTable::from_entries(vec![0.0, 3e-18, 4e-18, 9e-18]));
        tile.columns[1].table = Some(CapTable::from_entries(vec![0.0, 1.8e-18, 3.6e-18, 5.4e-18]));
        for budget in 1..=7 {
            for weighted in [false, true] {
                let (_, stats) = place_matching_dp(&tile, budget, weighted);
                assert!(stats.nodes > 0, "budget {budget}: MILP path not taken");
            }
        }
    }

    #[test]
    fn never_worse_than_greedy_or_ilp1_on_exact_model() {
        let tile = synthetic_tile(&[(6_000, 8, 1.0), (1_400, 3, 1.15), (2_000, 4, 0.5)], 1);
        for budget in [3u32, 7, 12] {
            let two = IlpTwo.place(&tile, budget, false, &mut rng()).expect("2");
            let one = IlpOne.place(&tile, budget, false, &mut rng()).expect("1");
            let gr = GreedyFill
                .place(&tile, budget, false, &mut rng())
                .expect("g");
            let c2 = tile.cost_of(&two, false);
            assert!(
                c2 <= tile.cost_of(&one, false) + 1e-25,
                "budget {budget} vs ilp1"
            );
            assert!(
                c2 <= tile.cost_of(&gr, false) + 1e-25,
                "budget {budget} vs greedy"
            );
        }
    }

    #[test]
    fn free_columns_absorb_first() {
        let tile = synthetic_tile(&[(2_000, 5, 1.0)], 4);
        let counts = IlpTwo.place(&tile, 4, false, &mut rng()).expect("place");
        assert_eq!(counts, vec![0, 4]);
    }
}
