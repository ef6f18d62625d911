//! The checker's regression oracle: it must find the three toy races shaped
//! like the pool's bugs and the lost lock-grant wakeup within the default
//! (`--quick`) budget,
//! replay each discovery from its trace, and pass the fixed protocols
//! exhaustively at the same bound.

use ariesim_model::harness;
use ariesim_model::ModelOptions;

fn assert_bug_found(name: &str, expect_in_message: &str) {
    let h = harness::find(name).unwrap_or_else(|| panic!("{name} not registered"));
    let res = harness::run(&h, &ModelOptions::default());
    let f = res
        .failure
        .unwrap_or_else(|| panic!("{name}: race not found in {} schedules", res.schedules));
    assert!(
        f.message.contains(expect_in_message),
        "{name}: tripped the wrong oracle: {}",
        f.message
    );
    assert!(
        !f.trace.steps.is_empty(),
        "{name}: failure came with an empty schedule"
    );
    // The discovery must be replayable: identical failure from the trace.
    let rep = harness::run_replay(&h, &f.trace);
    assert!(
        rep.diverged.is_none(),
        "{name}: replay diverged: {:?}",
        rep.diverged
    );
    assert_eq!(
        rep.failure.as_deref(),
        Some(f.message.as_str()),
        "{name}: replay produced a different failure"
    );
}

#[test]
fn finds_double_install_race() {
    assert_bug_found("toy_install_no_recheck", "orphaned frame");
}

#[test]
fn finds_stale_pin_race() {
    assert_bug_found("toy_latch_no_owner_check", "stale pin");
}

#[test]
fn finds_stale_hit_race() {
    assert_bug_found("toy_hit_no_owner_check", "stale hit");
}

#[test]
fn finds_grant_without_unpark() {
    assert_bug_found("toy_grant_without_unpark", "lost wakeup");
}

/// The fixed protocols pass *exhaustively* at the same preemption bound
/// the discoveries used.
#[test]
fn fixed_protocols_pass_exhaustively_at_bound_2() {
    for name in [
        "pool_claim_install",
        "pool_pin_vs_evict",
        "pool_failed_load_unwind",
        "pool_hit_vs_evict",
        "wal_flush_mirror",
        "wal_mirror_behind_file",
        "wal_group_commit",
        "lock_wait_grant",
        "lock_deadlock_victim",
    ] {
        let h = harness::find(name).unwrap();
        let res = harness::run(&h, &ModelOptions::default());
        assert!(
            res.failure.is_none(),
            "{name} failed: {:?}",
            res.failure.map(|f| f.message)
        );
        assert!(
            res.complete,
            "{name} did not exhaust preemption bound 2 within budget"
        );
    }
}
