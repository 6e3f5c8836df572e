//! Schedulers keep one `Problem` and refill it every activation. Reusing
//! one scheduler instance across runs must therefore be invisible: run
//! through every catalog family in turn (batches and machine counts grow
//! and shrink between runs), it must produce the same event and fault
//! digests and the same realized makespan, bit for bit, as a freshly
//! constructed scheduler per run.

use cmags_cma::StopCondition;
use cmags_gridsim::scheduler::{
    BatchScheduler, CmaScheduler, HeuristicScheduler, PortfolioScheduler, SaScheduler,
    TabuScheduler,
};
use cmags_gridsim::{ScenarioFamily, SimConfig, Simulation};
use cmags_heuristics::constructive::ConstructiveKind;

/// `(event digest, fault digest, realized makespan bits)` of one run.
fn run(family: ScenarioFamily, scheduler: &mut dyn BatchScheduler) -> (u64, u64, u64) {
    let report = Simulation::new(SimConfig::from_family(family), 3).run(scheduler);
    (
        report.event_digest,
        report.fault_digest,
        report.realized_makespan.to_bits(),
    )
}

fn assert_reuse_is_invisible<S: BatchScheduler>(fresh: impl Fn() -> S) {
    let mut reused = fresh();
    for family in ScenarioFamily::ALL {
        assert_eq!(
            run(family, &mut reused),
            run(family, &mut fresh()),
            "{} on {family}: a reused scheduler diverged from a fresh one",
            reused.name()
        );
    }
}

#[test]
fn reused_heuristic_schedulers_match_fresh_ones() {
    for kind in [ConstructiveKind::Mct, ConstructiveKind::MinMin] {
        assert_reuse_is_invisible(|| HeuristicScheduler::new(kind));
    }
}

#[test]
fn reused_metaheuristic_schedulers_match_fresh_ones() {
    let budget = StopCondition::children(60);
    assert_reuse_is_invisible(|| CmaScheduler::new(budget));
    assert_reuse_is_invisible(|| SaScheduler::new(budget));
    assert_reuse_is_invisible(|| TabuScheduler::new(budget));
}

#[test]
fn reused_portfolio_scheduler_matches_a_fresh_one() {
    assert_reuse_is_invisible(|| PortfolioScheduler::new(StopCondition::children(120)));
}
