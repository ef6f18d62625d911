//! The checker's regression oracle, over every registered harness: each
//! `Race` harness (the toy races, three shaped like the pool's bugs and one
//! a lost lock-grant wakeup) must be found within the default (`--quick`)
//! budget, trip its own oracle and replay from its trace; each `Pass`
//! harness must pass exhaustively at the same bound.

use ariesim_model::harness::{self, Expect};
use ariesim_model::ModelOptions;

/// The oracle message each `Race` harness must trip, by harness name.
const RACE_MESSAGES: &[(&str, &str)] = &[
    ("toy_lost_update", "lost update"),
    ("toy_install_no_recheck", "orphaned frame"),
    ("toy_latch_no_owner_check", "stale pin"),
    ("toy_hit_no_owner_check", "stale hit"),
    ("toy_grant_without_unpark", "lost wakeup"),
];

#[test]
fn every_race_harness_is_found_and_replays() {
    let races: Vec<_> = harness::registry()
        .into_iter()
        .filter(|h| h.expect == Expect::Race)
        .collect();
    let listed: Vec<&str> = RACE_MESSAGES.iter().map(|&(name, _)| name).collect();
    let registered: Vec<&str> = races.iter().map(|h| h.name).collect();
    assert_eq!(
        listed, registered,
        "RACE_MESSAGES (left) must name every Race harness in registry order (right)"
    );
    for (h, &(name, expect_in_message)) in races.iter().zip(RACE_MESSAGES) {
        let res = harness::run(h, &ModelOptions::default());
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
        let rep = harness::run_replay(h, &f.trace);
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
}

/// Every `Pass` harness passes *exhaustively* at the preemption bound the
/// discoveries used.
#[test]
fn fixed_protocols_pass_exhaustively_at_bound_2() {
    for h in harness::registry() {
        if h.expect != Expect::Pass {
            continue;
        }
        let res = harness::run(&h, &ModelOptions::default());
        assert!(
            res.failure.is_none(),
            "{} failed: {:?}",
            h.name,
            res.failure.map(|f| f.message)
        );
        assert!(
            res.complete,
            "{} did not exhaust preemption bound 2 within budget",
            h.name
        );
    }
}
