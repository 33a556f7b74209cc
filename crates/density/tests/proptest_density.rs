//! Randomized tests for the density engine: window sums against brute
//! force, and budgeter invariants over random density landscapes. Driven
//! by the in-repo seeded PRNG so every run explores the same cases.

use pilfill_density::{lp_budget, montecarlo_budget, DensityMap, FixedDissection};
use pilfill_geom::Rect;
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};

const FEATURE_AREA: i64 = 90_000; // 300 x 300

fn dissection(r: usize) -> FixedDissection {
    FixedDissection::new(Rect::new(0, 0, 24_000, 24_000), 8_000, r).expect("dissection")
}

/// A random density map at dissection `r`: arbitrary per-tile areas up to
/// half the tile size.
fn rand_map(rng: &mut StdRng, r: usize) -> DensityMap {
    let dis = dissection(r);
    let mut map = DensityMap::zeros(&dis);
    let nx = dis.tiles().nx();
    let half_tile = dis.tile_size() * dis.tile_size() / 2;
    map.add_tile_areas((0..dis.tiles().len()).map(|i| {
        let cell = (i % nx, i / nx);
        (cell, rng.gen_range(0i64..half_tile))
    }));
    map
}

fn rand_slack(rng: &mut StdRng, r: usize) -> Vec<u32> {
    (0..dissection(r).tiles().len())
        .map(|_| rng.gen_range(0u32..60))
        .collect()
}

#[test]
fn window_area_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xDE_0001);
    for _ in 0..48 {
        let map = rand_map(&mut rng, 2);
        let dis = *map.dissection();
        for w in dis.windows() {
            let brute: i64 = w.tiles().map(|c| map.tile_area(c)).sum();
            assert_eq!(map.window_area(w), brute);
        }
    }
}

#[test]
fn analysis_bounds_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0xDE_0002);
    for _ in 0..48 {
        let map = rand_map(&mut rng, 2);
        let a = map.analyze();
        assert!(a.min_window_density <= a.mean_window_density + 1e-12);
        assert!(a.mean_window_density <= a.max_window_density + 1e-12);
        assert!((a.variation - (a.max_window_density - a.min_window_density)).abs() < 1e-12);
    }
}

#[test]
fn montecarlo_budget_invariants() {
    let mut rng = StdRng::seed_from_u64(0xDE_0003);
    for r in [2, 4, 8] {
        for _ in 0..48 {
            let map = rand_map(&mut rng, r);
            let slack = rand_slack(&mut rng, r);
            let bound = rng.gen_range(0.1f64..0.6);
            let budget = montecarlo_budget(&map, &slack, FEATURE_AREA, bound).expect("mc");
            let dis = *map.dissection();
            let nx = dis.tiles().nx();
            // Slack respected.
            for (cell, f) in budget.iter() {
                assert!(f <= slack[cell.1 * nx + cell.0]);
            }
            // Window bound respected for added fill (windows already above
            // the bound receive nothing extra beyond it).
            let mut after = map.clone();
            after.add_tile_areas(
                budget
                    .iter()
                    .map(|(cell, f)| (cell, f as i64 * FEATURE_AREA)),
            );
            for w in dis.windows() {
                let before_d = map.window_density(w);
                let after_d = after.window_density(w);
                assert!(
                    after_d <= bound.max(before_d) + 1e-9,
                    "r {r}: window over bound: {before_d} -> {after_d} (bound {bound})"
                );
            }
            // Monotone improvement of the minimum.
            assert!(after.analyze().min_window_density + 1e-12 >= map.analyze().min_window_density);
        }
    }
}

#[test]
fn lp_budget_never_worse_min_density_than_mc() {
    let mut rng = StdRng::seed_from_u64(0xDE_0004);
    for _ in 0..24 {
        let map = rand_map(&mut rng, 2);
        let bound = rng.gen_range(0.2f64..0.5);
        // Uniform generous slack so the LP is exercised, small grid.
        let slack = vec![40u32; map.dissection().tiles().len()];
        let lp = lp_budget(&map, &slack, FEATURE_AREA, bound).expect("lp");
        let mc = montecarlo_budget(&map, &slack, FEATURE_AREA, bound).expect("mc");
        let apply = |b: &pilfill_density::FillBudget| {
            let mut m = map.clone();
            m.add_tile_areas(b.iter().map(|(cell, f)| (cell, f as i64 * FEATURE_AREA)));
            m.analyze().min_window_density
        };
        // The LP relaxation bounds the best achievable min density, but
        // its per-tile floor rounding can lose up to ~2 features per tile
        // of a window (r^2 = 4 tiles) relative to the greedy integer
        // construction.
        let window_area = 8_000f64 * 8_000.0;
        let tolerance = 8.0 * FEATURE_AREA as f64 / window_area;
        assert!(
            apply(&lp) >= apply(&mc) - tolerance,
            "lp {} well below mc {}",
            apply(&lp),
            apply(&mc)
        );
    }
}
