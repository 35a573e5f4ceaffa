//! Provenance observability cost: ledger capture at the three sampling
//! tiers (off / 1-in-64 / full capture) on the sequential pipeline, and
//! the per-flow explanation narrative.
//!
//! "Off" is a reconstructor *without* a sink — absence is the disabled
//! path, and the contract is that it costs one branch per report — so the
//! `capture/off` row is the baseline the other tiers are read against.

use citysee::{run_scenario, Scenario};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use refill::diagnose::Diagnoser;
use refill::provenance::{ProvenanceSink, TraceSampler};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::sync::Arc;

fn bench_scenario() -> Scenario {
    Scenario {
        days: 3,
        ..Scenario::small()
    }
}

/// Sequential reconstruction with no sink, a 1-in-64 sampler, and a
/// full-capture sampler.
fn bench_capture(c: &mut Criterion) {
    let campaign = run_scenario(&bench_scenario());
    let packets = campaign.merged.packet_ids().len() as u64;

    let mut group = c.benchmark_group("provenance_capture");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(packets));
    group.sample_size(10);

    let samplers: [(&str, Option<fn() -> TraceSampler>); 3] = [
        ("off", None),
        ("one_in_64", Some(|| TraceSampler::one_in(64))),
        ("always", Some(TraceSampler::always as fn() -> TraceSampler)),
    ];
    for (label, sampler) in samplers {
        let mut recon =
            Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
        let sink = sampler.map(|make| Arc::new(ProvenanceSink::new(make())));
        if let Some(s) = &sink {
            recon = recon.with_provenance(Arc::clone(s));
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                if let Some(s) = &sink {
                    s.ledger().clear();
                }
                black_box(recon.reconstruct_log(&campaign.merged))
            })
        });
    }
    group.finish();
}

/// Building the explanation narrative for every reconstructed packet from
/// its finished report — the `refill explain` hot path, amortized.
fn bench_explain(c: &mut Criterion) {
    let campaign = run_scenario(&bench_scenario());
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let reports = recon.reconstruct_log(&campaign.merged);
    let diagnoser = Diagnoser::new().with_sink(campaign.topology.sink());

    let mut group = c.benchmark_group("provenance_explain");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(reports.len() as u64));
    group.bench_function("explain_all", |b| {
        b.iter(|| {
            black_box(
                reports
                    .iter()
                    .map(|r| refill::explain::explain(r, &diagnoser, None).confidence)
                    .sum::<f64>(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_capture, bench_explain);
criterion_main!(benches);
