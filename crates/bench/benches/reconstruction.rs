//! End-to-end reconstruction benchmarks on a simulated campaign: merge,
//! grouping (hashmap copy vs zero-copy index), the per-packet hot path,
//! the sequential, parallel and fused drivers, and diagnosis.

use bench::synth_merge_logs;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use citysee::{run_scenario, Scenario};
use eventlog::{merge_logs, merge_logs_kway, merge_logs_partitioned};
use refill::diagnose::Diagnoser;
use refill::parallel::{reconstruct_fused, reconstruct_parallel};
use refill::trace::{CtpVocabulary, Reconstructor};

fn bench_scenario() -> Scenario {
    Scenario {
        days: 3,
        ..Scenario::small()
    }
}

/// One day at the standard evaluation scale — the "CitySee day" shape the
/// grouping bench measures (many small per-packet groups in one big log).
fn citysee_day() -> Scenario {
    Scenario {
        name: "citysee-day".into(),
        days: 1,
        ..Scenario::standard()
    }
}

fn bench_merge(c: &mut Criterion) {
    let campaign = run_scenario(&bench_scenario());
    let total: usize = campaign.collected.iter().map(|l| l.len()).sum();
    let mut group = c.benchmark_group("merge");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("k_way_merge", |b| {
        b.iter(|| black_box(merge_logs(&campaign.collected)))
    });
    // Fan-in sweep on synthetic sorted logs at a fixed total event count:
    // K = 1200 is the paper's CitySee deployment scale, where the old
    // cursor scan paid ~K compares per event and the loser tree pays
    // ~log2(K) ≈ 10. `partitioned` runs the same loser tree over time
    // strips, one scoped thread each.
    const SWEEP_EVENTS: usize = 240_000;
    for k in [60usize, 300, 1200] {
        let logs = synth_merge_logs(k, SWEEP_EVENTS);
        let events: usize = logs.iter().map(|l| l.len()).sum();
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::new("loser_tree", k), &logs, |b, logs| {
            b.iter(|| black_box(merge_logs_kway(logs)))
        });
        group.bench_with_input(BenchmarkId::new("partitioned", k), &logs, |b, logs| {
            b.iter(|| black_box(merge_logs_partitioned(logs, rayon::current_num_threads())))
        });
    }
    group.finish();
}

/// Grouping a merged log: the old copy-everything hashmap vs the sorted
/// zero-copy index, on a CitySee-day log.
fn bench_grouping(c: &mut Criterion) {
    let campaign = run_scenario(&citysee_day());
    let events = campaign.merged.len() as u64;
    let mut group = c.benchmark_group("grouping");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(events));
    group.bench_function("by_packet_hashmap", |b| {
        b.iter(|| black_box(campaign.merged.by_packet()))
    });
    group.bench_function("packet_index", |b| {
        b.iter(|| black_box(campaign.merged.packet_index()))
    });
    group.finish();
}

/// The per-packet hot path: reconstruct every packet from its borrowed
/// group slice, one at a time. This is the loop the shared-template and
/// allocation-free transition work targets.
fn bench_per_packet(c: &mut Criterion) {
    let campaign = run_scenario(&bench_scenario());
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let index = campaign.merged.packet_index();

    let mut group = c.benchmark_group("per_packet");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(index.len() as u64));
    group.sample_size(10);
    group.bench_function("reconstruct_packet", |b| {
        b.iter(|| {
            let mut inferred = 0usize;
            for (id, events) in index.iter() {
                inferred += recon.reconstruct_packet(id, events).flow.inferred_count();
            }
            black_box(inferred)
        })
    });
    group.finish();
}

fn bench_reconstruct_drivers(c: &mut Criterion) {
    let campaign = run_scenario(&bench_scenario());
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let packets = campaign.merged.packet_ids().len() as u64;

    let mut group = c.benchmark_group("reconstruct_drivers");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(packets));
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(recon.reconstruct_log(&campaign.merged)))
    });
    // `parallel` starts from the merged log, `fused` from the local logs
    // (its merge and index are inside the measurement).
    for workers in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", workers), &workers, |b, &w| {
            b.iter(|| black_box(reconstruct_parallel(&recon, &campaign.merged, w)))
        });
        group.bench_with_input(BenchmarkId::new("fused", workers), &workers, |b, &w| {
            b.iter(|| black_box(reconstruct_fused(&recon, &campaign.collected, w)))
        });
    }
    group.finish();
}

fn bench_diagnose(c: &mut Criterion) {
    let campaign = run_scenario(&bench_scenario());
    let recon = Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink());
    let reports = recon.reconstruct_log(&campaign.merged);
    let diagnoser = Diagnoser::new().with_sink(campaign.topology.sink());
    let mut group = c.benchmark_group("diagnose");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(reports.len() as u64));
    group.bench_function("classify_all", |b| {
        b.iter(|| {
            black_box(
                reports
                    .iter()
                    .filter(|r| diagnoser.diagnose(r, None).delivered)
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_merge,
    bench_grouping,
    bench_per_packet,
    bench_reconstruct_drivers,
    bench_diagnose
);
criterion_main!(benches);
