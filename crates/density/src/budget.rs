//! Fill budgeting: how many fill features each tile must receive so that
//! window densities become as uniform as possible without exceeding an
//! upper bound — the budgeting step of the "normal fill" baseline
//! (reference \[3\] of the paper; invoked as "Run LP/Monte-Carlo" in the
//! Greedy PIL-Fill algorithm, Figure 8).
//!
//! Two interchangeable implementations are provided:
//!
//! - [`lp_budget`]: the exact Min-Var linear program (maximize the minimum
//!   window density), practical for small tile grids;
//! - [`montecarlo_budget`]: the scalable iterative heuristic — repeatedly
//!   add one feature to the neediest window's best tile — used by the main
//!   experiment flow.
//!
//! Both are density-only: they decide *how much* fill per tile, never
//! *where* inside the tile. The PIL-Fill methods all receive the same
//! per-tile budget, which is what makes their density quality identical
//! while their delay impact differs.

use crate::{DensityMap, FixedDissection};
use pilfill_geom::CellIndex;
use pilfill_solver::{Model, Objective, Sense, SolveError};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Error from fill budgeting.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// `slack` length does not match the tile count.
    DimensionMismatch {
        /// Tiles in the dissection.
        expected: usize,
        /// Provided slack entries.
        got: usize,
    },
    /// The underlying LP failed.
    Solver(SolveError),
    /// Parameters out of range.
    InvalidParameter(String),
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "slack has {got} entries, dissection has {expected} tiles"
                )
            }
            BudgetError::Solver(e) => write!(f, "budget LP failed: {e}"),
            BudgetError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for BudgetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BudgetError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for BudgetError {
    fn from(e: SolveError) -> Self {
        BudgetError::Solver(e)
    }
}

/// The number of fill features each tile must receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillBudget {
    nx: usize,
    features: Vec<u32>,
}

impl FillBudget {
    fn new(dissection: &FixedDissection, features: Vec<u32>) -> Self {
        debug_assert_eq!(features.len(), dissection.tiles().len());
        Self {
            nx: dissection.tiles().nx(),
            features,
        }
    }

    /// Features budgeted for tile `(ix, iy)`.
    pub fn features(&self, (ix, iy): CellIndex) -> u32 {
        self.features[iy * self.nx + ix]
    }

    /// Total features across all tiles.
    pub fn total(&self) -> u64 {
        self.features.iter().map(|&f| f as u64).sum()
    }

    /// Iterates `(cell, features)` for tiles with a non-zero budget.
    pub fn iter(&self) -> impl Iterator<Item = (CellIndex, u32)> + '_ {
        self.features
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(move |(i, &f)| ((i % self.nx, i / self.nx), f))
    }
}

fn check_inputs(
    existing: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    upper_bound: f64,
) -> Result<(), BudgetError> {
    let expected = existing.dissection().tiles().len();
    if slack.len() != expected {
        return Err(BudgetError::DimensionMismatch {
            expected,
            got: slack.len(),
        });
    }
    if feature_area <= 0 {
        return Err(BudgetError::InvalidParameter(format!(
            "feature area must be positive (got {feature_area})"
        )));
    }
    if !(0.0..=1.0).contains(&upper_bound) {
        return Err(BudgetError::InvalidParameter(format!(
            "upper bound must be in [0, 1] (got {upper_bound})"
        )));
    }
    Ok(())
}

/// Exact Min-Var budgeting LP: maximize the minimum window density subject
/// to the per-window `upper_bound` and per-tile `slack` capacities
/// (in fill-feature counts). The relaxed per-tile counts are rounded down,
/// so the result is always feasible.
///
/// Intended for small grids (≲ 500 tiles); the main flow uses
/// [`montecarlo_budget`].
///
/// # Errors
///
/// Returns [`BudgetError::DimensionMismatch`] / `InvalidParameter` on bad
/// inputs and [`BudgetError::Solver`] if the LP fails (e.g. the existing
/// density already violates `upper_bound` makes it infeasible only if
/// windows exceed the bound before any fill; such windows are allowed — the
/// constraint only limits *added* fill).
pub fn lp_budget(
    existing: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    upper_bound: f64,
) -> Result<FillBudget, BudgetError> {
    check_inputs(existing, slack, feature_area, upper_bound)?;
    let dis = *existing.dissection();
    let grid = dis.tiles();
    let n = grid.len();

    let mut model = Model::new(Objective::Maximize);
    // Per-tile fill feature count, relaxed to continuous.
    let vars: Vec<_> = (0..n)
        .map(|i| model.add_var(0.0, slack[i] as f64, 0.0))
        .collect();
    // M: the minimum window density (the objective).
    let m = model.add_var(0.0, 1.0, 1.0);

    let fa = feature_area as f64;
    for w in dis.windows() {
        let rect_area = dis.window_rect(w).area() as f64;
        let a0 = existing.window_area(w) as f64;
        let tile_vars: Vec<_> = w
            .tiles()
            .map(|(ix, iy)| (vars[iy * grid.nx() + ix], fa))
            .collect();
        // Upper bound on *added* fill: A0 + fa * sum(n) <= max(U, current) * area.
        let ub = upper_bound.max(a0 / rect_area);
        model.add_constraint(tile_vars.clone(), Sense::Le, ub * rect_area - a0);
        // Min density: A0 + fa * sum(n) >= M * area.
        let mut terms = tile_vars;
        terms.push((m, -rect_area));
        model.add_constraint(terms, Sense::Ge, -a0);
    }

    let sol = model.solve_lp()?;
    let features = vars
        .iter()
        .map(|&v| pilfill_geom::units::saturating_count(sol.value(v).floor().max(0.0) as u64))
        .collect();
    Ok(FillBudget::new(&dis, features))
}

/// A heap entry of the budget loop's priority queue. The `BinaryHeap`
/// max-heap pops the *smallest* `(density, window)` because the `Ord` below
/// is reversed. `density` is the window's density when it was last keyed;
/// densities only grow, so it is a lower bound on the live value.
#[derive(Debug, Clone, Copy)]
struct NeediestWindow {
    density: f64,
    wi: usize,
}

impl Ord for NeediestWindow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap then yields the lowest density first, ties
        // towards the lower window index — exactly the first-minimum rule
        // of the `min_by(total_cmp)` scan this heap replaces.
        other
            .density
            .total_cmp(&self.density)
            .then_with(|| other.wi.cmp(&self.wi))
    }
}

impl PartialOrd for NeediestWindow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NeediestWindow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for NeediestWindow {}

/// Scalable Monte-Carlo/greedy budgeting: repeatedly pick the window with
/// the lowest density and add one feature to its tile with the most
/// remaining slack, subject to no window exceeding `upper_bound`. Stops
/// when no minimum-density window can accept more fill.
///
/// Each placed feature costs O(r²) plus O(log W) heap work, for W
/// windows, and the loop allocates nothing beyond its per-tile and
/// per-window arrays. Three invariants make that possible:
///
/// - **Monotone blocked tiles.** A tile is blocked once any window
///   covering it would exceed `upper_bound` after one more feature.
///   Window fill only grows, so a tile never unblocks. Blocking zeroes
///   the tile's remaining slack, once per window: a window over the bound
///   has only blocked tiles, so its fill never changes again. "Remaining
///   slack > 0" is therefore exactly the historical "slack left and every
///   covering window stays within the bound" test.
/// - **Re-keying on pop.** Every live window has exactly one heap entry,
///   keyed by its density when last keyed. Placing a feature re-keys only
///   the chosen window; the other covering windows keep their stale,
///   lower keys. A top entry whose key is below its window's live density
///   is re-keyed in place and sifted down. An up-to-date top entry is
///   therefore the lexicographic `(density, window)` minimum over all
///   live windows — the first minimum of the historical linear scan.
/// - **Implicit adjacency.** Window `wi` is anchored at tile
///   `(wi % wx, wi / wx)` (row-major, as [`FixedDissection::windows`]
///   yields them) and spans the `r × r` tiles above and to the right, so a
///   window's tiles and a tile's covering windows are anchor arithmetic.
///
/// A window none of whose tiles can take a feature leaves the heap for
/// good: other windows' fill only raises densities and blocks tiles, never
/// frees capacity. Deterministic: ties break towards lower tile index.
///
/// # Errors
///
/// Returns [`BudgetError::DimensionMismatch`] / `InvalidParameter` on bad
/// inputs.
pub fn montecarlo_budget(
    existing: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    upper_bound: f64,
) -> Result<FillBudget, BudgetError> {
    check_inputs(existing, slack, feature_area, upper_bound)?;
    let dis = *existing.dissection();
    let grid = dis.tiles();
    let nx = grid.nx();
    let r = dis.r();
    // Window anchors per row and per column.
    let wx = nx.saturating_sub(r - 1);
    let wy = grid.ny().saturating_sub(r - 1);

    let w_area: Vec<f64> = dis
        .windows()
        .map(|w| dis.window_rect(w).area() as f64)
        .collect();
    let mut w_fill: Vec<f64> = dis
        .windows()
        .map(|w| existing.window_area(w) as f64)
        .collect();
    debug_assert_eq!(w_area.len(), wx * wy);

    let fa = feature_area as f64;
    let mut remaining: Vec<u32> = slack.to_vec();
    let mut budget = vec![0u32; grid.len()];
    // The historical acceptance check `after <= upper_bound.max(current)
    // && after <= upper_bound` collapses to `after <= upper_bound`, with
    // `after = (w_fill + fa) / w_area` computed from the same operands in
    // the same order, so `exceeds` is its exact negation (the quotient is
    // never NaN, as `fa > 0`).
    let exceeds = |fill: f64, area: f64| (fill + fa) / area > upper_bound;
    // A blocked tile can never take another feature, so blocking it
    // zeroes its remaining slack.
    let block_window = |remaining: &mut [u32], wi: usize| {
        let (ax, ay) = (wi % wx, wi / wx);
        for iy in ay..ay + r {
            remaining[iy * nx + ax..iy * nx + ax + r].fill(0);
        }
    };
    for wi in 0..w_area.len() {
        if exceeds(w_fill[wi], w_area[wi]) {
            block_window(&mut remaining, wi);
        }
    }

    let mut heap: BinaryHeap<NeediestWindow> = (0..w_area.len())
        .map(|wi| NeediestWindow {
            density: w_fill[wi] / w_area[wi],
            wi,
        })
        .collect();

    // The top is re-keyed in place: dropping a modified `PeekMut` sifts
    // it down, one sift instead of a pop and a push.
    while let Some(mut top) = heap.peek_mut() {
        let wi = top.wi;
        let density = w_fill[wi] / w_area[wi];
        if top.density.total_cmp(&density).is_lt() {
            top.density = density;
            continue;
        }

        // Best tile in that window: most remaining slack, ties towards the
        // lower index (tiles are visited in increasing index order).
        let (ax, ay) = (wi % wx, wi / wx);
        let (mut most, mut t) = (0, 0);
        for iy in ay..ay + r {
            let row = iy * nx + ax;
            for (tile, &left) in (row..).zip(&remaining[row..row + r]) {
                if left > most {
                    (most, t) = (left, tile);
                }
            }
        }
        if most == 0 {
            PeekMut::pop(top);
            continue;
        }

        remaining[t] -= 1;
        budget[t] += 1;
        let (tx, ty) = (t % nx, t / nx);
        for cy in ty.saturating_sub(r - 1)..=ty.min(wy - 1) {
            for cw in cy * wx + tx.saturating_sub(r - 1)..=cy * wx + tx.min(wx - 1) {
                w_fill[cw] += fa;
                if exceeds(w_fill[cw], w_area[cw]) {
                    block_window(&mut remaining, cw);
                }
            }
        }
        top.density = w_fill[wi] / w_area[wi];
    }

    Ok(FillBudget::new(&dis, budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedDissection;
    use pilfill_geom::{Dir, Point, Rect};
    use pilfill_layout::{DesignBuilder, LayerId};
    use pilfill_prng::rngs::StdRng;
    use pilfill_prng::{Rng, SeedableRng};

    const FEATURE_AREA: i64 = 160_000; // 400 x 400

    fn test_map() -> DensityMap {
        // One dense corner wire, rest empty.
        let design = DesignBuilder::new("d", Rect::new(0, 0, 16_000, 16_000))
            .layer("m3", Dir::Horizontal)
            .net("n", Point::new(0, 1_000))
            .segment("m3", Point::new(0, 1_000), Point::new(7_000, 1_000), 2_000)
            .sink(Point::new(7_000, 1_000))
            .build()
            .expect("valid");
        let dis = FixedDissection::new(design.die, 8_000, 2).expect("valid");
        DensityMap::compute(&design, LayerId(0), &dis)
    }

    fn full_slack(map: &DensityMap, per_tile: u32) -> Vec<u32> {
        vec![per_tile; map.dissection().tiles().len()]
    }

    #[test]
    fn lp_budget_improves_min_density() {
        let map = test_map();
        let slack = full_slack(&map, 40);
        let before = map.analyze();
        let budget = lp_budget(&map, &slack, FEATURE_AREA, 0.4).expect("lp");
        let mut after_map = map.clone();
        for (cell, f) in budget.iter() {
            after_map.add_tile_area(cell, f as i64 * FEATURE_AREA);
        }
        let after = after_map.analyze();
        assert!(after.min_window_density > before.min_window_density);
        assert!(after.max_window_density <= 0.4 + 1e-9);
        assert!(after.variation < before.variation);
    }

    #[test]
    fn montecarlo_budget_improves_min_density() {
        let map = test_map();
        let slack = full_slack(&map, 40);
        let before = map.analyze();
        let budget = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.4).expect("mc");
        let mut after_map = map.clone();
        for (cell, f) in budget.iter() {
            after_map.add_tile_area(cell, f as i64 * FEATURE_AREA);
        }
        let after = after_map.analyze();
        assert!(after.min_window_density > before.min_window_density);
        assert!(after.max_window_density <= 0.4 + 1e-9);
    }

    #[test]
    fn budgets_respect_slack() {
        let map = test_map();
        let slack = full_slack(&map, 3);
        for budget in [
            lp_budget(&map, &slack, FEATURE_AREA, 0.5).expect("lp"),
            montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5).expect("mc"),
        ] {
            for (cell, f) in budget.iter() {
                let _ = cell;
                assert!(f <= 3);
            }
        }
    }

    #[test]
    fn zero_slack_means_zero_budget() {
        let map = test_map();
        let slack = full_slack(&map, 0);
        let b = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5).expect("mc");
        assert_eq!(b.total(), 0);
        let b = lp_budget(&map, &slack, FEATURE_AREA, 0.5).expect("lp");
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn montecarlo_close_to_lp_on_small_grid() {
        let map = test_map();
        let slack = full_slack(&map, 25);
        let apply = |budget: &FillBudget| {
            let mut m = map.clone();
            for (cell, f) in budget.iter() {
                m.add_tile_area(cell, f as i64 * FEATURE_AREA);
            }
            m.analyze().min_window_density
        };
        let lp = lp_budget(&map, &slack, FEATURE_AREA, 0.35).expect("lp");
        let mc = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.35).expect("mc");
        let lp_min = apply(&lp);
        let mc_min = apply(&mc);
        // MC should reach at least 85% of the LP's min-density gain.
        assert!(mc_min >= 0.85 * lp_min, "mc {mc_min} far below lp {lp_min}");
    }

    /// The pre-heap linear-scan budget loop, kept verbatim as the
    /// reference `montecarlo_budget` must reproduce bit-for-bit.
    fn montecarlo_budget_by_scan(
        existing: &DensityMap,
        slack: &[u32],
        feature_area: i64,
        upper_bound: f64,
    ) -> FillBudget {
        let dis = *existing.dissection();
        let grid = dis.tiles();
        let nx = grid.nx();
        let n = grid.len();
        let windows: Vec<_> = dis.windows().collect();
        let w_area: Vec<f64> = windows
            .iter()
            .map(|&w| dis.window_rect(w).area() as f64)
            .collect();
        let mut w_fill: Vec<f64> = windows
            .iter()
            .map(|&w| existing.window_area(w) as f64)
            .collect();
        let mut windows_of_tile: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (wi, w) in windows.iter().enumerate() {
            for (ix, iy) in w.tiles() {
                windows_of_tile[iy * nx + ix].push(wi);
            }
        }
        let mut remaining: Vec<u32> = slack.to_vec();
        let mut budget = vec![0u32; n];
        let fa = feature_area as f64;
        let mut stuck = vec![false; windows.len()];
        loop {
            let target = (0..windows.len())
                .filter(|&wi| !stuck[wi])
                .min_by(|&a, &b| (w_fill[a] / w_area[a]).total_cmp(&(w_fill[b] / w_area[b])));
            let Some(wi) = target else { break };
            let candidate = windows[wi]
                .tiles()
                .map(|(ix, iy)| iy * nx + ix)
                .filter(|&t| remaining[t] > 0)
                .filter(|&t| {
                    windows_of_tile[t].iter().all(|&cw| {
                        let after = (w_fill[cw] + fa) / w_area[cw];
                        after <= upper_bound.max(w_fill[cw] / w_area[cw]) && after <= upper_bound
                    })
                })
                .max_by_key(|&t| (remaining[t], std::cmp::Reverse(t)));
            match candidate {
                Some(t) => {
                    remaining[t] -= 1;
                    budget[t] += 1;
                    for &cw in &windows_of_tile[t] {
                        w_fill[cw] += fa;
                    }
                }
                None => stuck[wi] = true,
            }
        }
        FillBudget::new(&dis, budget)
    }

    #[test]
    fn heap_budget_matches_linear_scan_reference() {
        let map = test_map();
        for per_tile in [0u32, 1, 3, 10, 25, 40] {
            for ub in [0.2, 0.35, 0.4, 0.5, 1.0] {
                let slack = full_slack(&map, per_tile);
                let heap = montecarlo_budget(&map, &slack, FEATURE_AREA, ub).expect("mc");
                let scan = montecarlo_budget_by_scan(&map, &slack, FEATURE_AREA, ub);
                assert_eq!(heap, scan, "slack {per_tile}, bound {ub}");
            }
        }
    }

    /// A seeded random budgeting case at dissection `r`: a die that is not
    /// a multiple of the tile size (clipped edge tiles, so smaller window
    /// areas), tile areas up to a random share of each tile, slack with
    /// about a third zeros, and a bound in 0.05..=1.0. Bounds are multiples
    /// of 1/20 and, in half the cases, tile areas multiples of a quarter
    /// feature, so full windows land exactly on the bound.
    fn random_case(rng: &mut StdRng, r: usize) -> (DensityMap, Vec<u32>, f64) {
        const TILE: i64 = 2_000;
        let window = TILE * r as i64;
        let mut side = || {
            let tiles = rng.gen_range(r..2 * r + 2) as i64;
            tiles * TILE + rng.gen_range(1..TILE)
        };
        let die = Rect::new(0, 0, side(), side());
        let dis = FixedDissection::new(die, window, r).expect("dissection");
        let grid = dis.tiles();
        let fullness = rng.gen_range(0.0f64..1.0);
        let quantum = if rng.gen_bool(0.5) {
            FEATURE_AREA / 4
        } else {
            1
        };
        let mut map = DensityMap::zeros(&dis);
        map.add_tile_areas(grid.indices().map(|cell| {
            let max = (grid.cell_rect(cell).area() as f64 * fullness) as i64;
            (cell, rng.gen_range(0..=max / quantum) * quantum)
        }));
        let slack = (0..grid.len())
            .map(|_| {
                if rng.gen_bool(0.35) {
                    0
                } else {
                    rng.gen_range(1u32..12)
                }
            })
            .collect();
        let bound = f64::from(rng.gen_range(1u32..=20)) / 20.0;
        (map, slack, bound)
    }

    #[test]
    fn budget_matches_linear_scan_reference_across_r() {
        let mut rng = StdRng::seed_from_u64(0xB0D6_0001);
        let (mut pre_violating, mut filled) = (0, 0);
        for r in [1usize, 2, 3, 4, 8] {
            for case in 0..24 {
                let (map, slack, bound) = random_case(&mut rng, r);
                let dis = *map.dissection();
                let clipped = dis
                    .windows()
                    .any(|w| dis.window_rect(w).area() < dis.window_size() * dis.window_size());
                assert!(clipped, "r {r} case {case}: no clipped window");
                if dis.windows().any(|w| map.window_density(w) > bound) {
                    pre_violating += 1;
                }
                let fast = montecarlo_budget(&map, &slack, FEATURE_AREA, bound).expect("mc");
                let scan = montecarlo_budget_by_scan(&map, &slack, FEATURE_AREA, bound);
                assert_eq!(fast, scan, "r {r} case {case}, bound {bound}");
                if fast.total() > 0 {
                    filled += 1;
                }
            }
        }
        // The sweep must exercise both the initial blocked marking and
        // real fill.
        assert!(pre_violating > 10, "{pre_violating} pre-violating cases");
        assert!(filled > 10, "{filled} cases received fill");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let map = test_map();
        let slack = vec![1u32; 3];
        assert!(matches!(
            montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5),
            Err(BudgetError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let map = test_map();
        let slack = full_slack(&map, 1);
        assert!(lp_budget(&map, &slack, 0, 0.5).is_err());
        assert!(montecarlo_budget(&map, &slack, FEATURE_AREA, 1.5).is_err());
    }

    #[test]
    fn budget_indexing_round_trips() {
        let map = test_map();
        let slack = full_slack(&map, 10);
        let b = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5).expect("mc");
        let from_iter: u64 = b.iter().map(|(_, f)| f as u64).sum();
        assert_eq!(from_iter, b.total());
        for (cell, f) in b.iter() {
            assert_eq!(b.features(cell), f);
        }
    }
}
