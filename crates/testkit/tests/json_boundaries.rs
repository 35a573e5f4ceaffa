//! `netsim::json` at every boundary that uses it.
//!
//! One table holds a value of each type the program writes to (or reads
//! from) a file or stdout as JSON. Every row must survive
//! `to_json → text → parse → from_json` exactly, through the compact and
//! the pretty writer alike; then the same texts, mangled at the byte level
//! by the testkit's injectors, go back through the parser and the decoders,
//! which may refuse them but never panic and never allocate more than a
//! constant multiple of what they were handed.

use citysee::figures::Fig9Breakdown;
use citysee::Scenario;
use eventlog::logger::LocalLog;
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::json::{parse, FromJson, Json, JsonErrorKind, ToJson};
use netsim::{NodeId, Rng};
use refill::diagnose::Diagnoser;
use refill::provenance::CacheDisposition;
use refill::telemetry::{AtomicRecorder, Counter, Hist, Recorder, Stage, TelemetrySnapshot};
use refill::{CtpVocabulary, EngineId, NetWarning, PacketReport, Reconstructor, StateId};
use refill_testkit::{garbage_run, truncate_tail, xor_burst};
use std::fmt::Debug;

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

/// What `f` returned and the bytes it requested on this thread.
fn bytes_requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, requests) = netsim::alloc::requested_by(f);
    (out, requests.bytes)
}

/// Table II Case 2 and a second packet with an event no machine accepts:
/// inferred entries, an omitted event, engines, paths — every vector of a
/// report populated but `warnings`.
fn sample_reports() -> Vec<PacketReport> {
    let n = NodeId;
    let (lost, delivered) = (PacketId::new(n(1), 0), PacketId::new(n(1), 1));
    let logs = vec![
        LocalLog::from_events(
            n(1),
            vec![
                Event::new(n(1), EventKind::Trans { to: n(2) }, lost),
                Event::new(n(1), EventKind::AckRecvd { to: n(2) }, lost),
                Event::new(n(1), EventKind::Custom(9001), delivered),
                Event::new(n(1), EventKind::Trans { to: n(2) }, delivered),
            ],
        ),
        LocalLog::from_events(
            n(2),
            vec![Event::new(n(2), EventKind::Recv { from: n(1) }, delivered)],
        ),
    ];
    let reports = Reconstructor::new(CtpVocabulary::table2()).reconstruct_log(&merge_logs(&logs));
    assert!(reports.iter().all(|r| r.flow.inferred_count() > 0));
    assert!(reports.iter().any(|r| !r.omitted.is_empty()));
    reports
}

fn sample_snapshot() -> TelemetrySnapshot {
    let rec = AtomicRecorder::new();
    rec.add(Counter::CacheHits, u64::MAX);
    rec.record_stage(Stage::Transition, 1_500_000);
    rec.observe(Hist::GroupEvents, 9);
    rec.snapshot()
}

/// The compact and pretty texts of `v`, checked to re-parse to `v` itself.
fn texts(v: &Json) -> Vec<String> {
    let texts = vec![v.to_compact().unwrap(), v.to_pretty().unwrap()];
    for text in &texts {
        assert_eq!(&parse(text.as_bytes()).unwrap(), v, "{text}");
    }
    texts
}

/// `from_json(to_json(x)) == x` through both writers; returns the texts.
fn round_trip<T: ToJson + FromJson + PartialEq + Debug>(x: &T) -> Vec<String> {
    let v = x.to_json();
    assert_eq!(T::from_json(&v).as_ref(), Ok(x));
    texts(&v)
}

/// Every boundary document, as text.
fn corpus() -> Vec<String> {
    let mut docs = Vec::new();

    // Packet reports, alone and as a list: written only, nothing reads a
    // report back.
    docs.extend(texts(&sample_reports().to_json()));
    for report in sample_reports() {
        docs.extend(texts(&report.to_json()));
    }

    // The one report field the samples leave empty.
    docs.extend(round_trip(&vec![
        NetWarning::CyclicPrerequisite {
            engine: EngineId(3),
        },
        NetWarning::Unsatisfiable {
            engine: EngineId(u32::MAX),
            canonical: StateId(4),
        },
    ]));

    // Telemetry snapshots (`--telemetry`, `profile --format json`, and one
    // compact line per `stream --metrics-every` interval).
    docs.extend(round_trip(&sample_snapshot()));
    docs.extend(round_trip(&TelemetrySnapshot::default()));

    // scenario.json, with its collection and logger configs. A scenario has
    // no `==`; its JSON does.
    for scenario in [Scenario::small(), Scenario::standard(), Scenario::paper()] {
        let v = scenario.to_json();
        assert_eq!(Scenario::from_json(&v).unwrap().to_json(), v);
        assert_eq!(
            format!("{:?}", Scenario::from_json(&v).unwrap()),
            format!("{scenario:?}")
        );
        docs.extend(texts(&v));
    }

    // Written only: `explain --format json` and the fig 9 breakdown.
    for report in sample_reports() {
        let explanation =
            refill::explain(&report, &Diagnoser::new(), Some(CacheDisposition::Direct));
        let v = explanation.to_json();
        assert_eq!(
            v["packet"].as_str(),
            Some(report.packet.to_string().as_str())
        );
        assert_eq!(
            v["timeline"].as_array().map(<[Json]>::len),
            Some(report.flow.len())
        );
        docs.extend(texts(&v));
    }
    let fig9 = Fig9Breakdown {
        lost_total: 3,
        delivered_total: usize::MAX,
        percent: vec![100.0 / 3.0, 0.0, -0.0, 1e-7, f64::MAX, 2.5, 1e21],
        received_sink_pct: 18.923312296806273,
        received_other_pct: 15.82520558424173,
        acked_sink_pct: 34.26085293555173,
        acked_other_pct: 4.790590935169249,
    };
    let v = fig9.to_json();
    assert_eq!(v["percent"][4], Json::F64(f64::MAX));
    assert_eq!(
        v["percent"][2].as_f64().map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
    docs.extend(texts(&v));
    docs
}

#[test]
fn every_boundary_type_round_trips_through_both_writers() {
    let docs = corpus();
    assert!(docs.len() > 20, "{} documents", docs.len());
    // A percentage that is not a number has no spelling: a typed error.
    let nan = Fig9Breakdown {
        lost_total: 0,
        delivered_total: 0,
        percent: vec![f64::NAN],
        received_sink_pct: 0.0,
        received_other_pct: 0.0,
        acked_sink_pct: 0.0,
        acked_other_pct: 0.0,
    };
    assert_eq!(
        nan.to_json().to_pretty().unwrap_err().kind,
        JsonErrorKind::NonFinite
    );
}

/// What a parse may cost: the value tree is at most a few dozen bytes per
/// input byte (a two-byte `1,` becomes a 32-byte `Json`, and a growing
/// vector asks for its doubled size again).
fn budget(len: usize) -> usize {
    128 * len + 4096
}

/// Parse `bytes` and run every decoder over the result; a panic anywhere
/// fails the test with the offending input.
fn parse_and_decode(bytes: &[u8]) {
    let outcome = std::panic::catch_unwind(|| {
        let (parsed, spent) = bytes_requested_by(|| parse(bytes));
        assert!(
            spent <= budget(bytes.len()),
            "{spent} bytes requested for {} of input",
            bytes.len()
        );
        match parsed {
            Err(e) => assert!(e.offset <= bytes.len(), "{e}"),
            Ok(v) => {
                let _ = TelemetrySnapshot::from_json(&v);
                let _ = Scenario::from_json(&v);
            }
        }
    });
    assert!(
        outcome.is_ok(),
        "panicked on {:?}",
        String::from_utf8_lossy(bytes)
    );
}

#[test]
fn mangled_documents_never_panic_and_cost_at_most_their_size() {
    let docs = corpus();
    let mut rng = Rng::new(2015);
    for doc in &docs {
        parse_and_decode(doc.as_bytes());
        for _ in 0..24 {
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4) {
                match rng.gen_range(0..4) {
                    0 => xor_burst(&mut rng, &mut bytes),
                    1 => truncate_tail(&mut rng, &mut bytes),
                    2 => {
                        // A garbage run spliced in at a seeded offset.
                        let at = rng.gen_range(0..=bytes.len());
                        let tail = bytes.split_off(at);
                        garbage_run(&mut rng, &mut bytes);
                        bytes.extend(tail);
                    }
                    _ => {
                        // One byte swapped for another byte of the document:
                        // structure where a value was, and the reverse.
                        let (to, from) =
                            (rng.gen_range(0..bytes.len()), rng.gen_range(0..bytes.len()));
                        bytes[to] = bytes[from];
                    }
                }
                if bytes.is_empty() {
                    break;
                }
            }
            parse_and_decode(&bytes);
        }
    }
}

#[test]
fn hostile_shapes_are_refused_in_bounded_space() {
    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let deep = open.repeat(10_000);
        let (parsed, spent) = bytes_requested_by(|| parse(deep.as_bytes()));
        let err = parsed.unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep, "{open}");
        assert!(
            spent <= budget(deep.len()),
            "{spent} bytes for {} of input",
            deep.len()
        );
    }
    // Wide rather than deep: the densest inputs per byte.
    for unit in ["1,", "\"\",", "[],", "{},", "\"\":0,"] {
        let body = unit.repeat(20_000);
        let (open, close) = if unit.contains(':') {
            ('{', '}')
        } else {
            ('[', ']')
        };
        let doc = format!("{open}{}{close}", body.trim_end_matches(','));
        let (parsed, spent) = bytes_requested_by(|| parse(doc.as_bytes()));
        assert!(parsed.is_ok(), "{unit}");
        assert!(
            spent <= budget(doc.len()),
            "{spent} bytes for {} of input ({unit})",
            doc.len()
        );
    }
}
