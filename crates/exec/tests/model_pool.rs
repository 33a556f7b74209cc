//! The real `WorkerPool` under the bounded model checker.
//!
//! Compiled only with `--cfg pilfill_check`, which swaps the pool's
//! `sync` shim to the shadow primitives of `pilfill-check`. These tests
//! then run the *actual* pool implementation — `worker_loop`,
//! `claim_loop`, slot merging, panic propagation — under many explored
//! thread schedules with happens-before checking, not a hand-written
//! transcription of it.
//!
//! Run via `scripts/ci.sh check`, or directly:
//!
//! ```text
//! RUSTFLAGS="--cfg pilfill_check" CARGO_TARGET_DIR=target/check \
//!     cargo test -p pilfill-exec --test model_pool
//! ```
//!
//! (The separate target dir keeps the cfg'd build from thrashing the
//! normal build cache.)

#![cfg(pilfill_check)]

use pilfill_check::{Config, Explorer, Strategy};
use pilfill_exec::WorkerPool;

/// Schedules per test: enough to cross every protocol phase boundary,
/// small enough to keep the suite in CI budget.
const BUDGET: usize = 400;

fn explorer() -> Explorer {
    Explorer::new(Config {
        budget: BUDGET,
        ..Config::default()
    })
}

fn random_explorer(seed: u64) -> Explorer {
    Explorer::new(Config {
        strategy: Strategy::Random { seed },
        budget: BUDGET,
        ..Config::default()
    })
}

#[test]
fn pool_map_is_sound_under_exhaustive_schedules() {
    let mut ex = explorer();
    let outcome = ex.explore(|| {
        let pool = WorkerPool::new(2);
        let out = pool.map(3, |i| i as u64 * 2);
        assert_eq!(out, vec![0, 2, 4]);
    });
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.stats.interleavings > 1);
}

#[test]
fn pool_reuse_across_jobs_is_sound() {
    let mut ex = explorer();
    let outcome = ex.explore(|| {
        let pool = WorkerPool::new(2);
        let a = pool.map(2, |i| i + 1);
        let b = pool.map(2, |i| i + 10);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, vec![10, 11]);
    });
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
}

#[test]
fn pool_panic_propagates_without_deadlock() {
    let mut ex = explorer();
    let outcome = ex.explore(|| {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |i| {
                assert!(i != 1, "lane panic injected at index 1");
            });
        }));
        assert!(caught.is_err(), "the pool must re-raise the lane panic");
        // The pool must still be usable (and droppable) after a panic.
        let after = pool.map(2, |i| i + 5);
        assert_eq!(after, vec![5, 6]);
    });
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
}

#[test]
fn pool_random_schedules_agree_with_exhaustive() {
    let mut ex = random_explorer(0xFEED);
    let outcome = ex.explore(|| {
        let pool = WorkerPool::new(3);
        let out = pool.map(4, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9]);
    });
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
}
