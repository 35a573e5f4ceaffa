//! The harness's own arithmetic and its determinism contract.

use refill_benchmark::layers::layer_sample;
use refill_benchmark::measure::{median, quantile};
use refill_benchmark::spans::Tracer;
use refill_benchmark::workload::{
    check_stream, generate, stream_op_bytes, stream_reference, Kind, RECORDS_PER_FLIP, WORKLOADS,
};

#[test]
fn the_same_seed_generates_the_same_input() {
    for spec in &WORKLOADS {
        let a = generate(spec, 7, true);
        let b = generate(spec, 7, true);
        assert_eq!(a.campaign.collected.len(), b.campaign.collected.len());
        for (x, y) in a.campaign.collected.iter().zip(&b.campaign.collected) {
            assert_eq!((x.node, &x.entries), (y.node, &y.entries), "{}", spec.name);
        }
        assert_eq!(a.campaign.sim.truth.events, b.campaign.sim.truth.events);
        assert_eq!(a.trace_sample, b.trace_sample);
        assert_eq!(
            a.framed.as_ref().map(|f| &f.bytes),
            b.framed.as_ref().map(|f| &f.bytes)
        );

        let other = generate(spec, 8, true);
        assert_ne!(
            a.campaign.sim.truth.events, other.campaign.sim.truth.events,
            "{}: another seed is another campaign",
            spec.name
        );
    }
}

#[test]
fn workload_inputs_have_their_defining_properties() {
    let by_name = |name: &str| WORKLOADS.iter().find(|w| w.name == name).unwrap();
    let timestamped = |input: &refill_benchmark::workload::Input| {
        input
            .campaign
            .collected
            .iter()
            .flat_map(|l| &l.entries)
            .all(|e| e.local_ts.is_some())
    };
    let clean = generate(by_name("citysee-clean"), 3, true);
    let lossy = generate(by_name("citysee-lossy"), 3, true);
    assert!(timestamped(&clean), "clean logs take the timestamp merge");
    assert!(
        !timestamped(&lossy),
        "lossy logs take the round-robin merge"
    );
    let kept = |i: &refill_benchmark::workload::Input| {
        i.stats.events_collected as f64 / i.stats.events_logged as f64
    };
    assert!(kept(&lossy) < kept(&clean) - 0.1);

    let trace = generate(by_name("trace-wide"), 3, true);
    let distinct: std::collections::HashSet<_> = trace.trace_sample.iter().collect();
    assert_eq!(distinct.len(), trace.trace_sample.len());
    assert!(!trace.trace_sample.is_empty());

    let stream = generate(by_name("stream-replay"), 3, true);
    let framed = stream.framed.as_ref().unwrap();
    assert_eq!(framed.frame_ends.len(), stream.stats.events_collected);
    assert_eq!(
        framed.frame_ends.last().unwrap().1,
        framed.bytes.len() as u64
    );
    let reference = stream_reference(&framed.bytes, stream.campaign.topology.sink());
    let flips = (stream.stats.events_collected / RECORDS_PER_FLIP) as u64;
    assert!(reference.frames.corrupt > 0 && reference.frames.corrupt <= flips);
    assert!(reference.frames.decoded < stream.stats.events_collected as u64);
}

#[test]
fn stream_check_passes_the_program_and_catches_lost_evidence() {
    let spec = WORKLOADS.iter().find(|w| w.kind == Kind::Stream).unwrap();
    let input = generate(spec, 11, true);
    let framed = input.framed.as_ref().unwrap();
    let sink = input.campaign.topology.sink();
    let reference = stream_reference(&framed.bytes, sink);
    let mut summary = stream_op_bytes(&framed.bytes, sink, &Tracer::off());
    let (tally, not_identical) = check_stream(&summary, &reference);
    assert_eq!(tally.failed, 0);
    assert_eq!(tally.attempted, reference.reports.len() as u64);
    assert!(not_identical <= tally.attempted / 20);

    // Drop one observed entry from one report: that answer must fail.
    let victim = summary
        .reports
        .iter_mut()
        .find(|r| r.flow.entries.iter().any(|e| e.observed))
        .unwrap();
    let at = victim.flow.entries.iter().position(|e| e.observed).unwrap();
    victim.flow.entries.remove(at);
    assert_eq!(check_stream(&summary, &reference).0.failed, 1);

    // Lose a whole report: it still counts as attempted, and fails.
    summary.reports.pop();
    let (tally, _) = check_stream(&summary, &reference);
    assert_eq!(tally.attempted, reference.reports.len() as u64);
    assert!(tally.failed >= 1);

    // Disagreeing frame counters fail every answer.
    summary.frames.decoded += 1;
    let (tally, _) = check_stream(&summary, &reference);
    assert_eq!(tally.failed, tally.attempted);
}

#[test]
fn layer_sample_is_a_proportional_prefix() {
    let spec = &WORKLOADS[0];
    let input = generate(spec, 5, true);
    let logs = &input.campaign.collected;
    let total: usize = logs.iter().map(|l| l.len()).sum();
    let sample = layer_sample(logs, total / 4);
    assert_eq!(sample.len(), logs.len(), "fan-in is kept");
    let sampled: usize = sample.iter().map(|l| l.len()).sum();
    assert!(sampled >= total / 4 && sampled <= total / 4 + logs.len());
    for (s, l) in sample.iter().zip(logs) {
        assert_eq!(s.entries[..], l.entries[..s.len()]);
    }
    let whole = layer_sample(logs, total * 2);
    assert_eq!(whole.iter().map(|l| l.len()).sum::<usize>(), total);
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), 50.0);
    assert_eq!(quantile(&v, 0.99), 99.0);
    assert_eq!(quantile(&[7.0], 0.99), 7.0);
}

#[test]
fn spans_nest_and_self_time_excludes_children() {
    let tracer = Tracer::on();
    tracer.set_rep(4);
    tracer.span("op", || {
        tracer.span("child", || std::hint::black_box((0..10_000).sum::<u64>()));
        tracer.span("child", || ());
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
    assert!(spans.iter().all(|s| s.rep == 4 && s.end_ns >= s.start_ns));
    assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);

    let totals = tracer.totals();
    assert_eq!(totals["child"].calls, 2);
    let op = totals["op"];
    assert!((op.self_s - (op.total_s - totals["child"].total_s)).abs() < 1e-12);
    let coverage = tracer.coverage("op");
    assert!((0.0..=1.0).contains(&coverage));
    assert!(tracer.to_json("w", 1).contains("\"parent\":0"));

    let off = Tracer::off();
    assert_eq!(off.span("op", || 5), 5);
    assert!(off.spans().is_empty());
}
