//! Regression guards for the paper's claims: the shape of Figures 8 and 9
//! and the §V-D implications must keep holding on the substrate.
//!
//! The figure predicates read one standard-scale campaign, simulated and
//! analyzed once for this test binary through `bench::`, the path the
//! figure binaries draw from. Each threshold comes from the paper's text,
//! not from a run.

use citysee::figures::{fig8_spatial_received, fig9_breakdown, Fig9Breakdown, CAUSE_ORDER};
use citysee::{Analysis, Campaign, Scenario};
use eventlog::LossCause;
use protocols::sim::{SimOutput, Simulator};
use refill::DiagnosedCause;
use std::sync::OnceLock;

/// The standard-scale campaign and its analysis, built on first use.
fn standard() -> &'static (Campaign, Analysis) {
    static RUN: OnceLock<(Campaign, Analysis)> = OnceLock::new();
    RUN.get_or_init(|| bench::run_and_analyze_scenario(&Scenario::standard()))
}

fn fig9() -> Fig9Breakdown {
    let (campaign, analysis) = standard();
    fig9_breakdown(campaign, analysis)
}

/// Figure 9's share of losses for `cause`, in percent.
fn share(b: &Fig9Breakdown, cause: LossCause) -> f64 {
    let at = CAUSE_ORDER.iter().position(|c| *c == DiagnosedCause::Known(cause));
    b.percent[at.expect("every cause has a column")]
}

#[test]
fn fig9_acked_and_received_outrank_outage_which_outranks_the_rare_causes() {
    // §V-C: acked 38.6 %, received 32.2 %, server outage 22.6 %; overflow,
    // timeout and duplicated together under 3 %.
    let b = fig9();
    let outage = share(&b, LossCause::ServerOutage);
    for major in [LossCause::AckedLoss, LossCause::ReceivedLoss] {
        assert!(share(&b, major) > outage, "{major:?} vs outage: {b:?}");
    }
    for rare in [LossCause::OverflowLoss, LossCause::TimeoutLoss, LossCause::DuplicateLoss] {
        assert!(outage > share(&b, rare), "outage vs {rare:?}: {b:?}");
        assert!(share(&b, rare) < 10.0, "{rare:?} is a rare cause: {b:?}");
    }
}

#[test]
fn fig9_received_and_acked_losses_sit_at_the_sink() {
    // §V-C: received 20.0 % at the sink against 12.2 % elsewhere, acked
    // 38.0 % against 0.6 %.
    let b = fig9();
    assert!(b.received_sink_pct > b.received_other_pct, "{b:?}");
    assert!(b.acked_sink_pct > 5.0 * b.acked_other_pct, "{b:?}");
}

#[test]
fn fig8_the_sink_has_the_largest_bubble_by_far() {
    // Figure 8: the sink's received losses dwarf every other node's.
    let (campaign, analysis) = standard();
    let points = fig8_spatial_received(campaign, analysis);
    let sink = points.iter().find(|p| p.is_sink).expect("the sink is plotted");
    let other = points.iter().filter(|p| !p.is_sink).map(|p| p.received_losses).max();
    let other = other.expect("the deployment has other nodes");
    assert!(sink.received_losses > 5 * other, "sink {} vs {other}", sink.received_losses);
}

#[test]
fn time_correlation_rarely_finds_the_cause() {
    // §V-D.2: correlating losses with other nodes' events in time finds
    // the true cause for almost none of them.
    let c = standard().1.correlation;
    assert!(c.total > 0);
    let accuracy = c.cause_correct as f64 / c.total as f64;
    assert!(accuracy < 0.05, "correlation cause accuracy {accuracy}");
}

#[test]
fn refill_finds_a_cause_for_nearly_every_loss() {
    // §V-C: "REFILL finds the causes for most lost packets".
    let b = fig9();
    let unknown = b.percent[CAUSE_ORDER.len() - 1];
    assert!(b.lost_total > 0);
    assert!(100.0 - unknown >= 99.0, "unknown {unknown} % of losses");
}

fn run_small(tweak: impl FnOnce(&mut protocols::SimConfig)) -> SimOutput {
    let scenario = Scenario {
        days: 3,
        ..Scenario::small()
    };
    let (topology, table, faults, mut config) = scenario.build();
    tweak(&mut config);
    Simulator::new(topology, table, faults, config).run()
}

#[test]
fn retry_budget_suppresses_link_losses() {
    // §V-D.3: "with up to 30 retransmissions … packet losses due to low
    // link quality become very low".
    let timeout_share = |out: &SimOutput| {
        let by = out.truth.losses_by_cause();
        let lost: usize = by.values().sum();
        by.get(&LossCause::TimeoutLoss).copied().unwrap_or(0) as f64 / lost.max(1) as f64
    };
    let low = run_small(|c| c.max_retries = 1);
    let high = run_small(|c| c.max_retries = 30);
    assert!(
        timeout_share(&low) > timeout_share(&high) + 0.2,
        "timeout share should collapse with retries: {} vs {}",
        timeout_share(&low),
        timeout_share(&high)
    );
    assert!(
        high.truth.delivery_ratio() > low.truth.delivery_ratio(),
        "retries should buy delivery"
    );
}

#[test]
fn software_acks_trade_losses_for_transmissions() {
    // §V-D.5: software ACKs remove acked losses, cost channel time.
    let hw = run_small(|_| {});
    let sw = run_small(|c| c.software_ack = true);
    let acked = |o: &SimOutput| {
        o.truth
            .losses_by_cause()
            .get(&LossCause::AckedLoss)
            .copied()
            .unwrap_or(0)
    };
    assert!(acked(&hw) > 0);
    assert_eq!(acked(&sw), 0);
    // Transmission counts are not a paired comparison at this tiny scale
    // (the ACK-mode change shifts every random draw); the deterministic
    // claims are the acked-loss elimination and non-worse delivery. The
    // quantitative transmission cost is measured at scale by the
    // `implications` binary.
    assert!(
        sw.counters.get("transmissions") as f64
            >= hw.counters.get("transmissions") as f64 * 0.95
    );
    assert!(sw.truth.delivery_ratio() >= hw.truth.delivery_ratio());
}

#[test]
fn energy_pays_for_retries() {
    // The energy ledger must reflect the §V-D.3 trade-off: more retries,
    // more network energy.
    let low = run_small(|c| c.max_retries = 1);
    let high = run_small(|c| c.max_retries = 30);
    assert!(
        high.energy.network_total_mj() > low.energy.network_total_mj(),
        "retries cost energy: {} vs {}",
        high.energy.network_total_mj(),
        low.energy.network_total_mj()
    );
}
