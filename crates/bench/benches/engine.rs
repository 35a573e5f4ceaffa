//! Microbenchmarks of the inference-engine core: template augmentation,
//! per-event transition processing, and deep cascaded inference.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eventlog::{Event, EventKind, PacketId};
use netsim::NodeId;
use refill::ctp_model::{CtpModel, CtpVocabulary};
use refill::fsm::{FsmBuilder, FsmTemplate};
use refill::net::{ConnectedNet, InterRule};
use refill::trace::Reconstructor;

/// Build-and-augment cost for FSMs of growing size (a chain of n states
/// with distinct labels).
fn bench_augmentation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fsm_augment");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [4usize, 16, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut builder = FsmBuilder::new("chain");
                let states: Vec<_> = (0..n).map(|i| builder.state(format!("s{i}"))).collect();
                for i in 0..n - 1 {
                    builder.t(states[i], i as u32, states[i + 1]);
                }
                black_box(builder.build().unwrap())
            });
        });
    }
    group.finish();
}

fn bench_ctp_model_build(c: &mut Criterion) {
    c.bench_function("ctp_model_build", |b| {
        b.iter(|| black_box(CtpModel::new(CtpVocabulary::citysee())))
    });
}

/// Per-packet reconstruction cost as the path length grows (complete logs).
fn bench_chain_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct_chain");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let recon = Reconstructor::new(CtpVocabulary::table2());
    for hops in [2usize, 4, 8, 16, 32] {
        let p = PacketId::new(NodeId(0), 0);
        let mut events = Vec::new();
        for h in 0..hops {
            let (u, v) = (NodeId(h as u16), NodeId(h as u16 + 1));
            events.push(Event::new(u, EventKind::Trans { to: v }, p));
            events.push(Event::new(v, EventKind::Recv { from: u }, p));
            events.push(Event::new(u, EventKind::AckRecvd { to: v }, p));
        }
        group.bench_with_input(BenchmarkId::from_parameter(hops), &events, |b, events| {
            b.iter(|| black_box(recon.reconstruct_packet(p, events)));
        });
    }
    group.finish();
}

/// Deep cascaded forcing (the Figure 3a shape at depth n): engine 0's final
/// event requires engine 1's End, which requires engine 2's End, … with
/// every intermediate log empty, so the whole cascade is inferred.
fn bench_cascaded_inference(c: &mut Criterion) {
    fn chain_template(i: usize) -> FsmTemplate<(usize, u8)> {
        let mut b = FsmBuilder::new(format!("n{i}"));
        let init = b.state("Init");
        let mid = b.state("Mid");
        let end = b.state("End");
        b.t(init, (i, 0), mid).t(mid, (i, 1), end);
        b.build().unwrap()
    }
    let mut group = c.benchmark_group("cascaded_inference");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for depth in [2usize, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut net: ConnectedNet<(usize, u8), (usize, u8)> = ConnectedNet::new();
                let mut engines = Vec::new();
                for i in 0..depth {
                    let t = net.add_template(chain_template(i));
                    engines.push(net.add_engine(t));
                }
                for i in 0..depth - 1 {
                    let end = refill::fsm::StateId(2);
                    net.add_rule(
                        engines[i],
                        (i, 1),
                        InterRule::new(engines[i + 1], &[end], end),
                    );
                }
                // Only engine 0's two events are observed; everything else
                // is forced.
                net.push_event(engines[0], (0usize, 0u8));
                net.push_event(engines[0], (0usize, 1u8));
                let out = net.run(|e| *e, |_, t| t.label);
                black_box(out.flow.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_augmentation,
    bench_ctp_model_build,
    bench_chain_reconstruction,
    bench_cascaded_inference
);
criterion_main!(benches);
