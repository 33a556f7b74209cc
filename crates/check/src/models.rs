//! Models of the `pilfill-exec` worker-pool protocols.
//!
//! Each model is a faithful transcription of one protocol from
//! `crates/exec/src/lib.rs` onto the shadow primitives — same lock
//! structure, same atomics with the same orderings, same condvar
//! discipline — with the protocol's informal invariant turned into
//! assertions and race-checked [`RaceCell`] data:
//!
//! | model            | protocol under check                                |
//! |------------------|-----------------------------------------------------|
//! | `epoch-publish`  | epoch publication happens-before job visibility,    |
//! |                  | across pool reuse (two consecutive jobs)            |
//! | `cursor-claim`   | atomic-cursor batch claiming never double-claims or |
//! |                  | loses an index                                      |
//! | `slot-merge`     | disjoint-slot writes never alias; the submitter is  |
//! |                  | a claiming lane too                                 |
//! | `panic-prop`     | panic propagation never deadlocks close and never   |
//! |                  | loses the payload                                   |
//!
//! The `epoch-publish` model takes `close_job`'s wait for `active == 0` as
//! a parameter so the test suite can run the *mutated* protocol (the wait
//! skipped) and demonstrate the checker catches it.

use crate::rt::{Config, Explorer, Stats, Strategy, Violation};
use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, MutexGuard, RaceCell};
use crate::thread::{self, JoinHandle};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Locks a shadow mutex (the shadow lock never poisons).
fn m_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Waits on a shadow condvar.
fn m_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Joins a model thread, re-raising its panic so the explorer records it
/// as a violation of the current execution.
fn join_ok<T>(h: JoinHandle<T>) -> T {
    match h.join() {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

// ---------------------------------------------------------------------------
// epoch-publish
// ---------------------------------------------------------------------------

/// Mirrors `worker_loop` + `try_open_job`/`close_job`: the submitter
/// writes the job payload as *plain data*, publishes it under the state
/// lock with a bumped epoch, and the worker joins at most once per epoch.
/// The `RaceCell` payload proves the happens-before claim: if publication
/// did not order the payload write before the worker's read — or if
/// `close_job` did not wait for `active == 0` before the *next* job's
/// payload write — the race detector fires. `wait_active: false` is the
/// seeded mutation that skips that wait.
fn epoch_publish_model(wait_active: bool) {
    struct St {
        epoch: u64,
        job: bool,
        active: usize,
        joins: u64,
        shutdown: bool,
    }
    struct Sh {
        state: Mutex<St>,
        work_cv: Condvar,
        done_cv: Condvar,
        payload: RaceCell<u64>,
    }

    const JOBS: u64 = 2;
    let sh = Arc::new(Sh {
        state: Mutex::new(St {
            epoch: 0,
            job: false,
            active: 0,
            joins: 0,
            shutdown: false,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        payload: RaceCell::new(0),
    });

    let worker = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || {
            let mut seen = 0u64;
            let mut st = m_lock(&sh.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.job && st.epoch != seen {
                    seen = st.epoch;
                    st.active += 1;
                    st.joins += 1;
                    drop(st);
                    // The protocol promises this read sees the payload the
                    // submitter wrote *before* publishing this epoch.
                    let got = sh.payload.get();
                    assert_eq!(got, seen * 10, "stale payload for epoch {seen}");
                    st = m_lock(&sh.state);
                    st.active -= 1;
                    if st.active == 0 {
                        sh.done_cv.notify_all();
                    }
                } else {
                    st = m_wait(&sh.work_cv, st);
                }
            }
        })
    };

    for epoch in 1..=JOBS {
        // Plain write, then publish under the lock — the exec ordering.
        sh.payload.set(epoch * 10);
        {
            let mut st = m_lock(&sh.state);
            st.epoch = epoch;
            st.job = true;
            sh.work_cv.notify_all();
        }
        // close_job: no new joiner, wait out the ones inside.
        let mut st = m_lock(&sh.state);
        st.job = false;
        while wait_active && st.active > 0 {
            st = m_wait(&sh.done_cv, st);
        }
        drop(st);
    }

    let joins = {
        let mut st = m_lock(&sh.state);
        st.shutdown = true;
        sh.work_cv.notify_all();
        st.joins
    };
    assert!(joins <= JOBS, "worker joined an epoch twice");
    join_ok(worker);
}

/// The sound `epoch-publish` protocol.
pub fn model_epoch_publish() {
    epoch_publish_model(true);
}

/// The seeded mutation: `close_job` returns without waiting for
/// `active == 0`, so the next job's payload write can overlap a worker
/// still reading the previous one. Exposed (test-only) so the mutation
/// test can assert the checker reports the resulting race.
#[cfg(test)]
pub fn model_epoch_publish_skip_close_wait() {
    epoch_publish_model(false);
}

// ---------------------------------------------------------------------------
// cursor-claim
// ---------------------------------------------------------------------------

/// Mirrors `claim_loop`'s adaptive batching: two lanes race `fetch_add`
/// on a shared cursor (both `Relaxed`, as in exec) and bump a per-index
/// counter for every claimed index. A double-claim is two unordered
/// writes to one cell — a detected race; a lost index leaves its counter
/// at zero — a failed assert after both lanes are joined.
pub fn model_cursor_claim() {
    const N: usize = 5;
    const LANES: usize = 2;
    const RATIO: usize = 2;

    let cursor = Arc::new(AtomicUsize::new(0));
    let claims: Arc<Vec<RaceCell<u64>>> = Arc::new((0..N).map(|_| RaceCell::new(0)).collect());

    let lane = |cursor: Arc<AtomicUsize>, claims: Arc<Vec<RaceCell<u64>>>| {
        move || loop {
            let claimed = cursor.load(Ordering::Relaxed);
            if claimed >= N {
                return;
            }
            let remaining = N - claimed;
            let batch = (remaining / (LANES * RATIO)).clamp(1, 2);
            let begin = cursor.fetch_add(batch, Ordering::Relaxed);
            if begin >= N {
                return;
            }
            let end = (begin + batch).min(N);
            for i in begin..end {
                claims[i].set(claims[i].get() + 1);
            }
        }
    };

    let a = thread::spawn(lane(Arc::clone(&cursor), Arc::clone(&claims)));
    let b = thread::spawn(lane(Arc::clone(&cursor), Arc::clone(&claims)));
    join_ok(a);
    join_ok(b);
    for (i, c) in claims.iter().enumerate() {
        assert_eq!(c.get(), 1, "index {i} claimed a wrong number of times");
    }
}

// ---------------------------------------------------------------------------
// slot-merge
// ---------------------------------------------------------------------------

/// Mirrors `for_each_slot` through `run_erased`: the submitter is itself a
/// claiming lane next to one worker, and every claimed index writes its
/// own result slot exactly once. Aliased slots are unordered writes — a
/// detected race; the final in-order readback checks value integrity.
pub fn model_slot_merge() {
    const N: usize = 4;

    let cursor = Arc::new(AtomicUsize::new(0));
    let out: Arc<Vec<RaceCell<u64>>> = Arc::new((0..N).map(|_| RaceCell::new(0)).collect());

    let claim = |cursor: &AtomicUsize, out: &[RaceCell<u64>]| loop {
        let begin = cursor.fetch_add(1, Ordering::Relaxed);
        if begin >= N {
            return;
        }
        let v = begin as u64;
        out[begin].set(v * v + 1);
    };

    let worker = {
        let cursor = Arc::clone(&cursor);
        let out = Arc::clone(&out);
        thread::spawn(move || claim(&cursor, &out))
    };
    // The submitter participates, exactly like run_erased.
    claim(&cursor, &out);
    join_ok(worker);
    for (i, slot) in out.iter().enumerate() {
        let v = i as u64;
        assert_eq!(slot.get(), v * v + 1, "slot {i} holds a wrong result");
    }
}

// ---------------------------------------------------------------------------
// panic-prop
// ---------------------------------------------------------------------------

/// Mirrors `claim_loop`'s panic recording plus `close_job`: one lane
/// "panics" (flag + first-payload-wins mutex), another observes the flag,
/// both check out of the job, and the submitter waits on `done_cv` and
/// must find a payload. Deadlocked close or a lost payload both surface.
pub fn model_panic_prop() {
    struct St {
        active: usize,
    }
    struct Sh {
        state: Mutex<St>,
        done_cv: Condvar,
        panicked: AtomicBool,
        payload: Mutex<Option<u64>>,
    }

    let sh = Arc::new(Sh {
        // Both lanes start checked in, as if they joined the epoch.
        state: Mutex::new(St { active: 2 }),
        done_cv: Condvar::new(),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
    });

    let check_out = |sh: &Sh| {
        let mut st = m_lock(&sh.state);
        st.active -= 1;
        if st.active == 0 {
            sh.done_cv.notify_all();
        }
    };

    let panicker = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || {
            // exec's order: flag first (stops other lanes), then payload.
            sh.panicked.store(true, Ordering::Relaxed);
            {
                let mut p = m_lock(&sh.payload);
                if p.is_none() {
                    *p = Some(13);
                }
            }
            check_out(&sh);
        })
    };
    let observer = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || {
            // A cooperating lane may or may not see the flag before it
            // finishes; either way it records a payload only if first.
            if sh.panicked.load(Ordering::Relaxed) {
                let mut p = m_lock(&sh.payload);
                if p.is_none() {
                    *p = Some(99);
                }
            }
            check_out(&sh);
        })
    };

    // close_job: wait for the lanes to leave, then take the payload.
    let mut st = m_lock(&sh.state);
    while st.active > 0 {
        st = m_wait(&sh.done_cv, st);
    }
    drop(st);
    let payload = m_lock(&sh.payload).take();
    assert!(payload.is_some(), "panic payload was lost");
    join_ok(panicker);
    join_ok(observer);
}

// ---------------------------------------------------------------------------
// Suite driver
// ---------------------------------------------------------------------------

/// One entry in the model suite.
pub struct ModelSpec {
    /// Stable model name (used in reports and CLI filters).
    pub name: &'static str,
    /// The protocol invariant the model checks.
    pub invariant: &'static str,
    /// The model closure.
    pub run: fn(),
}

/// Every pool-protocol model, in a stable order.
pub fn all_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "epoch-publish",
            invariant: "epoch publication happens-before job visibility, across pool reuse",
            run: model_epoch_publish,
        },
        ModelSpec {
            name: "cursor-claim",
            invariant: "atomic-cursor batch claiming never double-claims or loses an index",
            run: model_cursor_claim,
        },
        ModelSpec {
            name: "slot-merge",
            invariant: "disjoint-slot merges never alias, with the submitter as a lane",
            run: model_slot_merge,
        },
        ModelSpec {
            name: "panic-prop",
            invariant: "panic propagation never deadlocks close_job and never loses the payload",
            run: model_panic_prop,
        },
    ]
}

/// The checked result of one model: exhaustive pass + seeded random pass.
#[must_use]
pub struct ModelReport {
    /// Model name.
    pub name: &'static str,
    /// Invariant description.
    pub invariant: &'static str,
    /// Stats of the bounded exhaustive pass.
    pub exhaustive: Stats,
    /// Stats of the seeded random pass.
    pub random: Stats,
    /// Seed the random pass used (derived from the suite seed).
    pub seed: u64,
    /// First violation found by either pass.
    pub violation: Option<Violation>,
}

impl ModelReport {
    /// Distinct interleavings explored across both passes. The two
    /// strategies may overlap on schedules, so this is an upper bound on
    /// the union — but every counted schedule was genuinely executed and
    /// checked.
    pub fn distinct(&self) -> u64 {
        self.exhaustive.distinct + self.random.distinct
    }
}

/// Runs one model under both strategies with the given budgets.
pub fn check_model(
    spec: &ModelSpec,
    seed: u64,
    exhaustive_budget: usize,
    random_budget: usize,
) -> ModelReport {
    let mut ex = Explorer::new(Config {
        strategy: Strategy::Exhaustive,
        budget: exhaustive_budget,
        ..Config::default()
    });
    let exhaustive = ex.explore(spec.run);
    drop(ex);
    if exhaustive.violation.is_some() {
        return ModelReport {
            name: spec.name,
            invariant: spec.invariant,
            exhaustive: exhaustive.stats,
            random: Stats::default(),
            seed,
            violation: exhaustive.violation,
        };
    }
    let mut rx = Explorer::new(Config {
        strategy: Strategy::Random { seed },
        budget: random_budget,
        ..Config::default()
    });
    let random = rx.explore(spec.run);
    ModelReport {
        name: spec.name,
        invariant: spec.invariant,
        exhaustive: exhaustive.stats,
        random: random.stats,
        seed,
        violation: random.violation,
    }
}

/// Runs the whole suite. Each model's random pass gets a distinct seed
/// derived from `seed` so runs are reproducible end to end.
pub fn run_all(seed: u64, exhaustive_budget: usize, random_budget: usize) -> Vec<ModelReport> {
    all_models()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let model_seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            check_model(spec, model_seed, exhaustive_budget, random_budget)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: all pool invariants hold over at least 10,000 distinct
    /// interleavings, reproducibly from the fixed suite seed.
    #[test]
    fn pool_invariants_hold_across_ten_thousand_interleavings() {
        let reports = run_all(0xC0FF_EE00, 2_000, 5_000);
        let mut total = 0u64;
        for r in &reports {
            assert!(r.violation.is_none(), "{}: {:?}", r.name, r.violation);
            total += r.distinct();
        }
        assert!(
            total >= 10_000,
            "only {total} distinct interleavings explored across the suite"
        );
    }

    /// Acceptance: the suite is deterministic — same seed, same counts.
    #[test]
    fn suite_is_reproducible_from_the_seed() {
        let a = run_all(7, 300, 300);
        let b = run_all(7, 300, 300);
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.exhaustive.interleavings, rb.exhaustive.interleavings);
            assert_eq!(ra.exhaustive.distinct, rb.exhaustive.distinct);
            assert_eq!(ra.random.distinct, rb.random.distinct);
            assert_eq!(
                ra.exhaustive.ops + ra.random.ops,
                rb.exhaustive.ops + rb.random.ops
            );
        }
    }

    /// Acceptance: the seeded mutation — `close_job` skipping its wait
    /// for `active == 0` before the next job's payload write — is caught
    /// as a data race.
    #[test]
    fn weakened_publish_store_is_caught() {
        let mut ex = Explorer::new(Config::default());
        let outcome = ex.explore(model_epoch_publish_skip_close_wait);
        let v = outcome
            .violation
            .expect("the checker must catch the skipped close_job wait");
        assert!(v.message.contains("data race"), "{v}");
    }

    /// The sound publication protocol survives the same exploration that
    /// kills the mutated one (checker sensitivity, not blanket suspicion).
    #[test]
    fn sound_publish_survives_the_same_exploration() {
        let mut ex = Explorer::new(Config::default());
        let outcome = ex.explore(model_epoch_publish);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    }
}
