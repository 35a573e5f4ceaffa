//! Determinism integration tests (DESIGN.md invariant 6): the same seed
//! yields byte-identical campaigns, analyses, and figures; parallel drivers
//! match sequential output exactly.

use citysee::figures::{fig6_daily_causes, fig9_breakdown, render_fig6_csv};
use citysee::{analyze, run_scenario, Scenario};
use netsim::json::ToJson;
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::trace::{CtpVocabulary, Reconstructor};

fn scenario() -> Scenario {
    Scenario {
        days: 3,
        ..Scenario::small()
    }
}

#[test]
fn campaigns_reproduce_bit_for_bit() {
    let a = run_scenario(&scenario());
    let b = run_scenario(&scenario());
    assert_eq!(a.sim.truth.events, b.sim.truth.events);
    assert_eq!(a.merged.events, b.merged.events);
    assert_eq!(a.sim.counters, b.sim.counters);
    // Serialized figures are identical too.
    let (aa, ab) = (analyze(&a), analyze(&b));
    let fa = render_fig6_csv(&fig6_daily_causes(&a, &aa));
    let fb = render_fig6_csv(&fig6_daily_causes(&b, &ab));
    assert_eq!(fa, fb);
    assert_eq!(
        fig9_breakdown(&a, &aa).to_json().to_compact().unwrap(),
        fig9_breakdown(&b, &ab).to_json().to_compact().unwrap()
    );
}

#[test]
fn different_seeds_differ() {
    let a = run_scenario(&scenario());
    let b = run_scenario(&Scenario {
        seed: 999,
        ..scenario()
    });
    assert_ne!(a.merged.events, b.merged.events);
}

#[test]
fn parallel_drivers_match_sequential() {
    let campaign = run_scenario(&scenario());
    let recon =
        Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let seq = recon.reconstruct_log(&campaign.merged);
    assert_eq!(seq, reconstruct_parallel(&recon, &campaign.merged, 4));
    assert_eq!(seq, reconstruct_fused(&recon, &campaign.collected, 4));
}

#[test]
fn analysis_is_deterministic() {
    let campaign = run_scenario(&scenario());
    let a = analyze(&campaign);
    let b = analyze(&campaign);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.packet, y.packet);
        assert_eq!(x.diagnosis, y.diagnosis);
    }
    assert_eq!(a.flow_score, b.flow_score);
    assert_eq!(a.cause_score, b.cause_score);
}
