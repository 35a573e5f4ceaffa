//! Subcommand implementations, one module each, over the flag parser and
//! the input, analyzer and telemetry plumbing they share.

mod analyze;
mod explain;
mod profile;
mod query;
mod report;
mod simulate;
mod soak;
mod store;
mod stream;
mod trace;

pub use analyze::analyze;
pub use explain::explain;
pub use profile::profile;
pub use query::query;
pub use report::report;
pub use simulate::simulate;
pub use soak::soak;
pub use store::store;
pub use stream::stream;
pub use trace::trace;

use citysee::Analyzer;
use citysee::{run_scenario, Campaign, Scenario};
use eventlog::logger::LocalLog;
use eventlog::{archive, PacketId};
use netsim::{NodeId, SimDuration};
use refill::telemetry::{AtomicRecorder, Recorder};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "\
refill — reconstruct network behavior from individual, lossy logs

USAGE:
  refill simulate [--scale small|standard|paper] [--seed N] [--out DIR]
  refill analyze  --logs DIR_OR_FILE [--sink N] [--period SECS] [--stats] [--telemetry FILE]
  refill trace    --logs DIR_OR_FILE --packet ORIGIN:SEQNO [--sink N] [--dot] [--telemetry FILE]
  refill explain  ORIGIN:SEQNO [--logs DIR_OR_FILE] [--sink N] [--seed N] [--format text|json]
  refill profile  [--logs DIR_OR_FILE] [--sink N] [--seed N] [--workers N]
                  [--format table|json] [--telemetry FILE]
  refill report   [--scale small|standard|paper] [--seed N]
  refill stream   [--frames FILE|-] [--sink N] [--seed N]
                  [--late-records N] [--late-us N] [--metrics-every N]
                  [--store DIR] [--quiet] [--telemetry FILE]
  refill store    --out DIR [--scale small|standard|paper] [--seed N]
                  [--logs DIR_OR_FILE] [--sink N] [--period SECS] [--compact]
  refill query    --store DIR [--origin N] [--seqno LO:HI] [--since US] [--until US]
                  [--cause LABEL] [--disposition observed|intra|inter]
                  [--fig fig4|fig5|fig8] [--stats]
  refill soak     [--seed N] [--cases N] [--faults SPEC] [--quiet]
                  [--telemetry FILE] [--prometheus FILE]
  refill help

  stream reconstructs online: framed records (eventlog::frame wire format)
  are decoded from --frames (- for stdin), windows close per-node as
  watermarks pass (--late-records / --late-us lateness), rolling reports
  print as they close, and the converged summary follows. With no --frames
  it simulates one CitySee-like day and replays its upload stream.
  --metrics-every N emits a JSON-lines telemetry delta (counters, stage
  timings, histograms since the previous delta) every N absorbed records.
  analyze --stats prints reconstruction throughput after the run.
  --telemetry FILE writes the full pipeline telemetry snapshot (counters,
  stage timings, histograms) as JSON; --prometheus FILE writes the same
  snapshot in Prometheus text exposition format (both accepted wherever
  --telemetry is).
  explain narrates one packet's provenance: which events were logged,
  which were inferred (and by which FSM rule), where the loss happened
  and why, with a confidence score. With no --logs it simulates one
  CitySee-like day first (--seed picks which).
  profile runs the analyzer's pass (index, reconstruct, diagnose)
  with telemetry attached and prints a per-stage breakdown; single-threaded
  by default so stage totals add up to wall time, --workers N for the same
  pass on N threads. With no --logs it simulates one CitySee-like day
  first. --format json prints the full telemetry snapshot as JSON instead
  of the table.
  store persists a run into a durable, crash-recoverable segment store:
  the merged log entries plus the reports with their diagnosis sidecars. Without --logs it simulates a scenario (truth fates included,
  scenario.json saved alongside for topology-dependent figures); with
  --logs it reconstructs and diagnoses an archive. --compact merges the
  segments into one time-sorted segment afterwards.
  query evaluates predicates over a store without re-running
  reconstruction, using segment min/max pushdown. --since/--until (local
  clock, micros) select event rows only; --cause/--disposition select
  report rows only. --fig renders a figure CSV (Figures 4, 5 and 8) from
  the stored sidecars, byte-identical to the in-memory analysis.
  stream --store DIR appends every absorbed record and emitted report to
  a store as it runs; re-running after a kill resumes from the durable
  prefix and converges to the same reports as an uninterrupted run. It
  combines with --metrics-every, and --telemetry then counts the store's
  appends and recovery too. A store written under another block format
  version is refused and left as it is.
  soak runs seeded fault-injection conformance cases: each case pushes
  one synthetic scenario through all six driver paths (sequential,
  parallel, fused, cached cold then warm, streaming, store kill-and-resume)
  under injected frame corruption, reader failures and filesystem faults,
  asserting byte-identical reports everywhere. --faults takes a preset
  (none|light|heavy) and/or key=value rates (frame, truncate, garbage,
  reader, stall, store, sync, rename, skew, dup, late). Every case's
  derived seed is echoed; any failure prints a single-case reproduction
  command. Fault totals surface as faults_injected / faults_survived in
  the telemetry exposition.";

/// What one subcommand accepts: `--key value` flags and boolean `--key`
/// switches. The USAGE text above is the same list.
struct FlagSpec {
    cmd: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

/// Tiny flag parser: `--key value` pairs plus boolean `--key` switches,
/// checked against the subcommand's [`FlagSpec`].
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], spec: &FlagSpec) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if spec.switches.contains(&name) {
                switches.push(name.to_owned());
            } else if spec.values.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                pairs.push((name.to_owned(), v.clone()));
            } else {
                return Err(format!("unknown flag --{name} for 'refill {}'", spec.cmd));
            }
        }
        Ok(Flags { pairs, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn parse_packet(spec: &str) -> Result<PacketId, String> {
    let (o, s) = spec
        .split_once(':')
        .ok_or("packet must be ORIGIN:SEQNO, e.g. 17:4")?;
    let origin: u16 = o.parse().map_err(|_| "bad origin id")?;
    let seqno: u32 = s.parse().map_err(|_| "bad seqno")?;
    Ok(PacketId::new(NodeId(origin), seqno))
}

/// `--sink N`, if given.
fn parse_sink(flags: &Flags) -> Result<Option<NodeId>, String> {
    match flags.get("sink") {
        Some(s) => Ok(Some(NodeId(s.parse().map_err(|_| "bad sink id")?))),
        None => Ok(None),
    }
}

/// `--seed N` applied to `scenario`, if given.
fn apply_seed(flags: &Flags, scenario: &mut Scenario) -> Result<(), String> {
    if let Some(seed) = flags.get("seed") {
        scenario.seed = seed.parse().map_err(|_| "bad seed")?;
    }
    Ok(())
}

/// The scenario `--scale small|standard|paper` (default small) and `--seed`
/// name.
fn scenario_from_flags(flags: &Flags) -> Result<Scenario, String> {
    let mut scenario = match flags.get("scale").unwrap_or("small") {
        "small" => Scenario::small(),
        "standard" => Scenario::standard(),
        "paper" => Scenario::paper(),
        other => return Err(format!("unknown scale '{other}'")),
    };
    apply_seed(flags, &mut scenario)?;
    Ok(scenario)
}

/// The stand-in for a missing input flag (`missing` names it): one simulated
/// CitySee-like day, seeded from `--seed`.
fn simulate_day(flags: &Flags, missing: &str) -> Result<Campaign, String> {
    let mut scenario = Scenario {
        days: 1,
        ..Scenario::small()
    };
    apply_seed(flags, &mut scenario)?;
    eprintln!(
        "no {missing} given; simulating one CitySee-like day ({} nodes, seed {})…",
        scenario.nodes, scenario.seed
    );
    Ok(run_scenario(&scenario))
}

fn read_archive(path: &str) -> Result<Vec<LocalLog>, String> {
    let p = Path::new(path);
    let file = if p.is_dir() { p.join("logs.jsonl") } else { p.to_path_buf() };
    let f = File::open(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    archive::read_logs(BufReader::new(f)).map_err(|e| e.to_string())
}

/// The logs a command works on, and the sink it should assume.
struct Input {
    logs: Vec<LocalLog>,
    /// `--sink`, else the simulated deployment's.
    sink: Option<NodeId>,
}

/// The `--logs` archive, or a simulated day when there is none.
fn load_input(flags: &Flags) -> Result<Input, String> {
    let sink = parse_sink(flags)?;
    match flags.get("logs") {
        Some(path) => Ok(Input {
            logs: read_archive(path)?,
            sink,
        }),
        None => {
            let campaign = simulate_day(flags, "--logs")?;
            Ok(Input {
                sink: sink.or(Some(campaign.topology.sink())),
                logs: campaign.collected,
            })
        }
    }
}

/// The analyzer an operator holding only an archive runs: CitySee's logging
/// vocabulary, the input's sink, `--period SECS` (default 30) and no outage
/// schedule.
fn build_analyzer(
    flags: &Flags,
    input: &Input,
    recorder: &Option<Arc<AtomicRecorder>>,
) -> Result<Analyzer, String> {
    // Seconds that overflow the microsecond clock are no period either.
    let period = match flags.get("period") {
        Some(p) => p.parse::<u64>().ok().and_then(|s| s.checked_mul(1_000_000)),
        None => Some(30_000_000),
    };
    let period = SimDuration::from_micros(period.ok_or("bad period")?);
    let recon = attach_recorder(Reconstructor::new(CtpVocabulary::citysee()), recorder);
    let analyzer = Analyzer::new(recon, &input.logs, period);
    Ok(match input.sink {
        Some(sink) => analyzer.with_sink(sink),
        None => analyzer,
    })
}

/// Recorder requested via `--telemetry FILE` or `--prometheus FILE`, or
/// `None`.
fn recorder_for(flags: &Flags) -> Option<Arc<AtomicRecorder>> {
    if flags.get("telemetry").is_some() || flags.get("prometheus").is_some() {
        Some(Arc::new(AtomicRecorder::new()))
    } else {
        None
    }
}

/// Attach `recorder` (when present) to a reconstructor.
fn attach_recorder(recon: Reconstructor, recorder: &Option<Arc<AtomicRecorder>>) -> Reconstructor {
    match recorder {
        Some(r) => recon.with_recorder(r.clone()),
        None => recon,
    }
}

/// Write the `--telemetry FILE` (JSON) and `--prometheus FILE` (text
/// exposition) snapshots, if requested.
fn write_telemetry(flags: &Flags, recorder: Option<&AtomicRecorder>) -> Result<(), String> {
    let Some(rec) = recorder else { return Ok(()) };
    if let Some(path) = flags.get("telemetry") {
        std::fs::write(path, rec.snapshot().render_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("telemetry written to {path}");
    }
    if let Some(path) = flags.get("prometheus") {
        std::fs::write(path, rec.snapshot().render_prometheus())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("prometheus exposition written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::analyze::analyze_cmd_inner;
    use super::explain::explain_cmd_inner;
    use super::profile::profile_cmd_inner;
    use super::query::query_cmd_inner;
    use super::soak::soak_cmd_inner;
    use super::store::store_cmd_inner;
    use super::stream::stream_cmd_inner;
    use super::*;
    use citysee::analyze as analyze_campaign;
    use netsim::json::{self, Json, ToJson};
    use std::io::BufWriter;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Every subcommand's flag table, in USAGE order.
    const SPECS: [&FlagSpec; 10] = [
        &simulate::FLAGS,
        &analyze::FLAGS,
        &trace::FLAGS,
        &explain::FLAGS,
        &profile::FLAGS,
        &report::FLAGS,
        &stream::FLAGS,
        &store::FLAGS,
        &query::FLAGS,
        &soak::FLAGS,
    ];

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = Flags::parse(
            &args(&["--logs", "x", "--dot", "--sink", "0"]),
            &trace::FLAGS,
        )
        .unwrap();
        assert_eq!(f.get("logs"), Some("x"));
        assert_eq!(f.get("sink"), Some("0"));
        assert!(f.has("dot"));
        assert!(!f.has("quiet"));
    }

    #[test]
    fn flags_reject_stray_args() {
        assert!(Flags::parse(&args(&["oops"]), &trace::FLAGS).is_err());
        assert!(Flags::parse(&args(&["--logs"]), &trace::FLAGS).is_err());
    }

    /// A misspelt flag used to be stored and never read, so `profile --log
    /// DIR` simulated a day instead of reading DIR.
    #[test]
    fn every_subcommand_rejects_an_unknown_flag() {
        type Cmd = fn(&[String]) -> Result<(), String>;
        let commands: [(Cmd, &str); 10] = [
            (simulate, "--scal"),
            (analyze, "--log"),
            (trace, "--pakcet"),
            (explain, "--logz"),
            (profile, "--log"),
            (report, "--sead"),
            (stream, "--frame"),
            (store, "--compat"),
            (query, "--stor"),
            (soak, "--case"),
        ];
        for ((run, flag), spec) in commands.into_iter().zip(SPECS) {
            let err = run(&args(&[flag, "x"])).unwrap_err();
            let name = flag.trim_start_matches("--");
            assert_eq!(
                err,
                format!("unknown flag --{name} for 'refill {}'", spec.cmd)
            );
        }
        // The positional packet of `explain` does not hide one either.
        assert!(explain(&args(&["17:4", "--logz", "x"]))
            .unwrap_err()
            .starts_with("unknown flag --logz"));
    }

    #[test]
    fn every_flag_usage_names_is_accepted() {
        // A synopsis is the line naming the command plus its indented
        // continuation lines; the prose below the synopses is indented less.
        let mut named: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines() {
            let words = || line.split(|c: char| !(c.is_alphanumeric() || c == '-'));
            if let Some(rest) = line.strip_prefix("  refill ") {
                let cmd = rest.split_whitespace().next().unwrap();
                named.push((cmd, Vec::new()));
            } else if !line.starts_with("        ") {
                continue;
            }
            let (_, flags) = named
                .last_mut()
                .expect("a synopsis precedes its continuation");
            flags.extend(words().filter_map(|w| w.strip_prefix("--")));
        }
        named.retain(|(cmd, _)| *cmd != "help");
        assert_eq!(
            named.iter().map(|(cmd, _)| *cmd).collect::<Vec<_>>(),
            SPECS.map(|s| s.cmd),
            "USAGE lists the subcommands the flag tables cover"
        );
        for ((cmd, flags), spec) in named.iter().zip(SPECS) {
            assert!(!flags.is_empty(), "no flags parsed for {cmd}");
            for flag in flags {
                let arg = format!("--{flag}");
                let taken = if spec.switches.contains(flag) {
                    Flags::parse(&[arg], spec)
                } else {
                    Flags::parse(&[arg, "x".into()], spec)
                };
                assert!(
                    taken.is_ok(),
                    "'refill {cmd}' refuses --{flag}, which USAGE names"
                );
            }
            // `--prometheus` rides wherever `--telemetry` does.
            assert_eq!(
                spec.values.contains(&"telemetry"),
                spec.values.contains(&"prometheus"),
                "{cmd}"
            );
        }
    }

    #[test]
    fn packet_spec_parses() {
        let p = parse_packet("17:4").unwrap();
        assert_eq!(p.origin, NodeId(17));
        assert_eq!(p.seqno, 4);
        assert!(parse_packet("17").is_err());
        assert!(parse_packet("a:b").is_err());
    }

    #[test]
    fn stream_reads_frames_from_file() {
        use eventlog::frame::{encode_records, NodeRecord};
        use eventlog::logger::LogEntry;
        use eventlog::{Event, EventKind};
        let p = PacketId::new(NodeId(1), 0);
        let recs = [
            NodeRecord::new(
                NodeId(1),
                LogEntry {
                    event: Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
                    local_ts: None,
                },
            ),
            NodeRecord::new(
                NodeId(2),
                LogEntry {
                    event: Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p),
                    local_ts: None,
                },
            ),
        ];
        let dir = std::env::temp_dir().join("refill-stream-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let frames = dir.join("frames.bin");
        std::fs::write(&frames, encode_records(recs.iter())).unwrap();
        let tele = dir.join("stream-telemetry.json");
        let out = stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--telemetry",
            tele.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("frames: 2 decoded, 0 corrupt"), "got: {out}");
        assert!(out.contains("packets: 1 converged"), "got: {out}");
        let parsed = json::parse(&std::fs::read(&tele).unwrap()).unwrap();
        assert!(parsed.get("counters").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_rejects_bad_flags() {
        assert!(stream_cmd_inner(&args(&["--late-records", "banana"])).is_err());
        assert!(stream_cmd_inner(&args(&["--frames", "/definitely/not/here"])).is_err());
        assert!(stream_cmd_inner(&args(&["--metrics-every", "soon"])).is_err());
    }

    #[test]
    fn stream_has_no_lane_size_to_set() {
        // No report depends on the lanes, so there is nothing to tune.
        let removed = "--lane-capacity";
        let err = stream_cmd_inner(&args(&[removed, "8"])).unwrap_err();
        assert_eq!(err, format!("unknown flag {removed} for 'refill stream'"));
    }

    #[test]
    fn stream_metrics_every_emits_parseable_jsonl_deltas() {
        use eventlog::frame::{encode_records, NodeRecord};
        use eventlog::logger::LogEntry;
        use eventlog::{Event, EventKind};
        let p = PacketId::new(NodeId(1), 0);
        let recs = [
            NodeRecord::new(
                NodeId(1),
                LogEntry {
                    event: Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
                    local_ts: None,
                },
            ),
            NodeRecord::new(
                NodeId(2),
                LogEntry {
                    event: Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p),
                    local_ts: None,
                },
            ),
        ];
        let dir = std::env::temp_dir().join("refill-stream-metrics-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let frames = dir.join("frames.bin");
        std::fs::write(&frames, encode_records(recs.iter())).unwrap();
        // --quiet suppresses rolling reports, so every brace-opening line
        // is a metrics delta.
        let out = stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--quiet",
            "--metrics-every",
            "1",
        ]))
        .unwrap();
        let deltas: Vec<Json> = out
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| json::parse(l.as_bytes()).expect("metrics line is JSON"))
            .collect();
        assert!(!deltas.is_empty(), "expected JSONL deltas, got: {out}");
        for d in &deltas {
            assert!(d.get("counters").is_some(), "delta is a snapshot: {d:?}");
        }
        // The deltas partition the run: per-counter sums equal the totals,
        // so stream_records must add up to the records ingested.
        let records: u64 = deltas
            .iter()
            .flat_map(|d| d["counters"].as_array().unwrap())
            .filter(|c| c["name"].as_str() == Some("stream_records"))
            .map(|c| c["value"].as_u64().unwrap())
            .sum();
        assert_eq!(records, 2, "got: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_narrates_provenance_from_an_archive() {
        use eventlog::{Event, EventKind, LocalLog};
        // Table II, Case 1: node 2's entire log is lost, so the recv at
        // node 2 and the trans to node 3 must both be inferred.
        let p = PacketId::new(NodeId(1), 0);
        let n1 = LocalLog::from_events(
            NodeId(1),
            vec![Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p)],
        );
        let n3 = LocalLog::from_events(
            NodeId(3),
            vec![Event::new(NodeId(3), EventKind::Recv { from: NodeId(2) }, p)],
        );
        let dir = std::env::temp_dir().join("refill-explain-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("logs.jsonl");
        let f = File::create(&path).unwrap();
        archive::write_logs(&[n1, n3], BufWriter::new(f)).unwrap();

        let text = explain_cmd_inner(&args(&["1:0", "--logs", path.to_str().unwrap()])).unwrap();
        assert!(text.contains("inferred"), "got: {text}");
        assert!(text.contains('['), "inferred events are bracketed: {text}");
        assert!(text.contains("confidence"), "got: {text}");

        // --packet works like the positional form, and --format json
        // returns the same narrative as machine-readable fields.
        let json = explain_cmd_inner(&args(&[
            "--packet",
            "1:0",
            "--logs",
            path.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        let parsed = json::parse(json.as_bytes()).unwrap();
        assert_eq!(parsed["observed"].as_u64(), Some(2));
        assert!(parsed["inferred"].as_u64().unwrap() >= 2, "got: {json}");
        assert!(parsed["timeline"].as_array().is_some());
        let c = parsed["confidence"].as_f64().unwrap();
        assert!(c > 0.0 && c < 1.0, "partially inferred flow: {c}");

        assert!(explain_cmd_inner(&args(&["--logs", path.to_str().unwrap()])).is_err());
        assert!(explain_cmd_inner(&args(&[
            "9:9",
            "--logs",
            path.to_str().unwrap()
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seconds past `u64::MAX` microseconds used to overflow in
    /// `SimDuration::from_secs`: a panic in a debug build, a wrong period
    /// in a release one.
    #[test]
    fn a_period_past_the_microsecond_clock_is_refused() {
        use eventlog::{Event, EventKind, LocalLog};
        let p = PacketId::new(NodeId(1), 0);
        let log = LocalLog::from_events(
            NodeId(1),
            vec![Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p)],
        );
        let dir = std::env::temp_dir().join("refill-period-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("logs.jsonl");
        archive::write_logs(&[log], BufWriter::new(File::create(&path).unwrap())).unwrap();
        let logs = path.to_str().unwrap();
        let run = |period: &str| analyze_cmd_inner(&args(&["--logs", logs, "--period", period]));
        assert_eq!(run("18446744073709552").unwrap_err(), "bad period");
        assert_eq!(run("-1").unwrap_err(), "bad period");
        assert!(run("18446744073709").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_then_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("refill-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        simulate(&args(&["--scale", "small", "--out", dir.to_str().unwrap()])).unwrap();
        assert!(dir.join("logs.jsonl").is_file());
        assert!(dir.join("scenario.json").is_file());
        assert!(dir.join("truth_summary.json").is_file());
        let report = analyze_cmd_inner(&args(&[
            "--logs",
            dir.to_str().unwrap(),
            "--sink",
            "0",
            "--period",
            "20",
        ]))
        .unwrap();
        assert!(report.contains("loss causes:"));
        assert!(report.contains("top loss positions:"));
        assert!(!report.contains("reconstruction stats:"));

        let with_stats = analyze_cmd_inner(&args(&[
            "--logs",
            dir.to_str().unwrap(),
            "--sink",
            "0",
            "--stats",
        ]))
        .unwrap();
        assert!(with_stats.contains("reconstruction stats:"));
        assert!(with_stats.contains("packets/sec"));

        let tele = dir.join("telemetry.json");
        analyze_cmd_inner(&args(&[
            "--logs",
            dir.to_str().unwrap(),
            "--sink",
            "0",
            "--telemetry",
            tele.to_str().unwrap(),
        ]))
        .unwrap();
        let parsed = json::parse(&std::fs::read(&tele).unwrap()).unwrap();
        assert!(parsed.get("stages").is_some(), "snapshot has a stages section");
        assert!(parsed.get("counters").is_some(), "snapshot has a counters section");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Operator == measured: `refill analyze` runs the pass
    /// `citysee::analyze` (what the benchmark times) runs, so given the same
    /// sink, period and (empty) outage list both tell the same story.
    #[test]
    fn analyze_prints_what_the_measured_analysis_folds() {
        use refill::diagnose::{CauseBreakdown, PositionBreakdown};
        // An archive carries no outage schedule: leave the scenario none.
        let scenario = Scenario {
            outage_days: Some(Vec::new()),
            ..Scenario::small()
        };
        let campaign = run_scenario(&scenario);
        let sink = campaign.topology.sink();
        let dir = std::env::temp_dir().join("refill-analyze-equivalence-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("logs.jsonl");
        let f = File::create(&path).unwrap();
        archive::write_logs(&campaign.collected, BufWriter::new(f)).unwrap();
        let printed = analyze_cmd_inner(&args(&[
            "--logs",
            path.to_str().unwrap(),
            "--sink",
            &sink.0.to_string(),
            "--period",
            &scenario.packet_interval().as_secs().to_string(),
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // The command visits the packets the logs mention; the campaign
        // analysis also keeps a record for those only the truth knows.
        let analysis = analyze_campaign(&campaign);
        let index = eventlog::PacketIndex::group_logs(&campaign.collected);
        let diagnoses: Vec<_> = analysis
            .records
            .iter()
            .filter(|r| index.get(r.packet).is_some())
            .map(|r| &r.diagnosis)
            .collect();
        let breakdown = CauseBreakdown::from_diagnoses(diagnoses.iter().copied());
        let positions = PositionBreakdown::from_diagnoses(diagnoses.iter().copied());
        let mut expected = vec![
            format!("{} packets reconstructed", diagnoses.len()),
            format!(
                "delivered: {} | lost: {}\n",
                breakdown.delivered_total, breakdown.lost_total
            ),
            format!(
                "routing loops detected: {} | lost events inferred: {}\n",
                analysis.transport.loops_detected, analysis.flow_score.inferred
            ),
        ];
        let mut causes = String::from("loss causes:\n");
        for cause in citysee::figures::CAUSE_ORDER {
            let pct = breakdown.percent(cause);
            if pct > 0.0 {
                causes.push_str(&format!("  {:>14}: {:5.1}%\n", cause.label(), pct));
            }
        }
        expected.push(causes + "\n");
        let mut hotspots = String::from("top loss positions:\n");
        for (node, count) in positions.hotspots().into_iter().take(8) {
            let mark = if node == sink { "  <- sink" } else { "" };
            hotspots.push_str(&format!("  {node}: {count}{mark}\n"));
        }
        expected.push(hotspots + "\n");
        assert!(breakdown.lost_total > 0 && analysis.flow_score.inferred > 0);
        for section in expected {
            assert!(
                printed.contains(&section),
                "missing {section:?} in:\n{printed}"
            );
        }
    }

    #[test]
    fn profile_counters_do_not_depend_on_workers() {
        let counters = |workers: &str| {
            let out = profile_cmd_inner(&args(&["--format", "json", "--workers", workers]));
            let snapshot = json::parse(out.unwrap().as_bytes()).unwrap();
            let counters = snapshot["counters"].as_array().unwrap().to_vec();
            assert!(
                counters.iter().any(|c| {
                    c["name"].as_str() == Some("packets_reconstructed")
                        && c["value"].as_u64() > Some(0)
                }),
                "{counters:?}"
            );
            counters
        };
        assert_eq!(counters("1"), counters("2"));
    }

    #[test]
    fn fig8_refuses_a_scenario_it_cannot_build_and_names_the_field() {
        let dir = std::env::temp_dir().join("refill-fig8-bad-scenario-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let small = Scenario::small();
        for (scenario, expected) in [
            (Scenario { days: 0, ..small.clone() }, "days must be at least 1"),
            (Scenario { nodes: 0, ..small.clone() }, "nodes must be at least 1"),
            (Scenario { day_secs: 0, ..small.clone() }, "day_secs must be at least 1"),
        ] {
            let text = scenario.to_json().to_pretty().unwrap();
            std::fs::write(dir.join("scenario.json"), text).unwrap();
            let error = query_cmd_inner(&args(&["--store", dir.to_str().unwrap(), "--fig", "fig8"]))
                .unwrap_err();
            assert!(error.contains("scenario.json") && error.ends_with(expected), "{error}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_then_query_reproduces_figures_byte_for_byte() {
        use citysee::figures::{
            fig4_source_view, fig5_loss_positions, fig8_spatial_received, render_fig8_csv,
            render_loss_points_csv,
        };
        let dir = std::env::temp_dir().join("refill-store-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        let summary = store_cmd_inner(&args(&["--out", dir.to_str().unwrap()])).unwrap();
        assert!(summary.contains("event rows"), "got: {summary}");
        assert!(dir.join("MANIFEST.json").is_file());
        assert!(dir.join("scenario.json").is_file());

        // The same scenario (same defaults, same seed) analyzed in memory
        // is the reference the stored figures must reproduce exactly.
        let campaign = run_scenario(&Scenario::small());
        let analysis = analyze_campaign(&campaign);
        let fig4 = query_cmd_inner(&args(&["--store", dir.to_str().unwrap(), "--fig", "fig4"]))
            .unwrap();
        assert_eq!(fig4, render_loss_points_csv(&fig4_source_view(&analysis)));
        let fig5 = query_cmd_inner(&args(&["--store", dir.to_str().unwrap(), "--fig", "fig5"]))
            .unwrap();
        assert_eq!(fig5, render_loss_points_csv(&fig5_loss_positions(&analysis)));
        let fig8 = query_cmd_inner(&args(&["--store", dir.to_str().unwrap(), "--fig", "fig8"]))
            .unwrap();
        assert_eq!(
            fig8,
            render_fig8_csv(&fig8_spatial_received(&campaign, &analysis))
        );

        // Predicate summaries and pushdown accounting.
        let out = query_cmd_inner(&args(&["--store", dir.to_str().unwrap(), "--stats"])).unwrap();
        assert!(out.contains("matched"), "got: {out}");
        assert!(out.contains("pushdown:"), "got: {out}");
        let narrowed = query_cmd_inner(&args(&[
            "--store",
            dir.to_str().unwrap(),
            "--origin",
            "1",
            "--seqno",
            "0:2",
        ]))
        .unwrap();
        assert!(narrowed.contains("matched"), "got: {narrowed}");

        // Compaction must not change any figure.
        let recompacted = store_cmd_inner(&args(&[
            "--out",
            dir.to_str().unwrap(),
            "--compact",
        ]))
        .unwrap();
        assert!(recompacted.contains("compacted"), "got: {recompacted}");
        let fig4_after =
            query_cmd_inner(&args(&["--store", dir.to_str().unwrap(), "--fig", "fig4"])).unwrap();
        assert_eq!(fig4_after, fig4, "compaction changed figure 4");

        assert!(query_cmd_inner(&args(&[
            "--store",
            dir.to_str().unwrap(),
            "--cause",
            "banana"
        ]))
        .is_err());
        assert!(query_cmd_inner(&args(&[
            "--store",
            dir.to_str().unwrap(),
            "--disposition",
            "psychic"
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--disposition` reads `origins` straight off the stored report; the
    /// counts are what the version-2 rows (template + rename vector,
    /// rehydrated per scanned row) matched on the same store, but for
    /// `intra` and `inter` (194 and 892 then), re-frozen when the merge
    /// stopped ordering the (timestamped) logs by their clocks, and `intra`
    /// again (193 then) when the kernel stopped reading the interleave of a
    /// packet's evidence.
    #[test]
    fn query_disposition_matches_the_packets_it_always_did() {
        let dir = std::env::temp_dir().join("refill-store-disposition-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        store_cmd_inner(&args(&["--out", dir.to_str().unwrap()])).unwrap();
        for (disposition, matched) in [("observed", 2092), ("intra", 192), ("inter", 891)] {
            let out = query_cmd_inner(&args(&[
                "--store",
                dir.to_str().unwrap(),
                "--disposition",
                disposition,
            ]))
            .unwrap();
            let want = format!("matched 0 event rows and {matched} report rows ({matched} packets)");
            assert!(out.starts_with(&want), "--disposition {disposition}: {out}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_store_checkpoints_and_resumes() {
        use eventlog::frame::{encode_records, NodeRecord};
        use eventlog::logger::LogEntry;
        use eventlog::{Event, EventKind};
        let p = PacketId::new(NodeId(1), 0);
        let recs = [
            NodeRecord::new(
                NodeId(1),
                LogEntry {
                    event: Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
                    local_ts: None,
                },
            ),
            NodeRecord::new(
                NodeId(2),
                LogEntry {
                    event: Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p),
                    local_ts: None,
                },
            ),
        ];
        let dir = std::env::temp_dir().join("refill-stream-store-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let frames = dir.join("frames.bin");
        std::fs::write(&frames, encode_records(recs.iter())).unwrap();
        let store_dir = dir.join("store");

        let first = stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--store",
            store_dir.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        assert!(first.contains("store: 2 event rows"), "got: {first}");
        assert!(store_dir.join("MANIFEST.json").is_file());

        // Run again over the same frames: the durable records are skipped
        // on the wire and replayed into the reconstructor instead, and the
        // converged answer is unchanged.
        let second = stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--store",
            store_dir.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        assert!(second.contains("packets: 1 converged"), "got: {second}");
        assert!(second.contains("store: 2 event rows"), "got: {second}");

        // The stored rows answer queries without any reconstruction.
        let out = query_cmd_inner(&args(&["--store", store_dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("matched 2 event rows"), "got: {out}");

        // A store and a metrics cadence are two observers of one run (they
        // used to exclude each other): deltas, then the summary, and the
        // store note last.
        let both = stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--store",
            store_dir.to_str().unwrap(),
            "--quiet",
            "--metrics-every",
            "64",
        ]))
        .unwrap();
        assert!(both.starts_with('{'), "a delta line comes first: {both}");
        let last = both.lines().last().unwrap();
        assert!(last.starts_with("store: 2 event rows"), "got: {both}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store's instrumentation had no writer: `stream --store` opened
    /// its store with a recorder nobody read.
    #[test]
    fn stream_store_telemetry_counts_what_the_store_wrote() {
        let campaign = run_scenario(&Scenario {
            days: 1,
            ..Scenario::small()
        });
        let dir = std::env::temp_dir().join("refill-stream-store-telemetry-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let frames = dir.join("frames.bin");
        let bytes = eventlog::frame::encode_records(&campaign.upload_records());
        std::fs::write(&frames, bytes).unwrap();
        let tele = dir.join("telemetry.json");
        stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--store",
            dir.join("store").to_str().unwrap(),
            "--quiet",
            "--telemetry",
            tele.to_str().unwrap(),
        ]))
        .unwrap();
        let snapshot = json::parse(&std::fs::read(&tele).unwrap()).unwrap();
        let named = |section: &str, name: &str| -> Json {
            let rows = snapshot[section].as_array().unwrap();
            let row = rows.iter().find(|r| r["name"].as_str() == Some(name));
            row.unwrap_or_else(|| panic!("no {name} in {section}")).clone()
        };
        let counter = |name: &str| named("counters", name)["value"].as_u64().unwrap();
        assert!(counter("stream_records") > 0);
        assert_eq!(counter("store_events_appended"), counter("stream_records"));
        assert!(counter("store_reports_appended") > 0);
        assert_eq!(named("stages", "store_recover")["calls"].as_u64(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn soak_converges_and_echoes_replayable_seeds() {
        let out = soak_cmd_inner(&args(&["--seed", "7", "--cases", "3", "--faults", "light"]))
            .unwrap();
        assert!(out.contains("soak: master seed 7, 3 case(s)"), "{out}");
        assert!(out.contains("3/3 case(s) converged"), "{out}");
        // One echoed seed line per case, each replayable standalone.
        let case_lines: Vec<&str> = out
            .lines()
            .filter(|l| l.trim_start().starts_with("seed "))
            .collect();
        assert_eq!(case_lines.len(), 3, "{out}");
        let first_seed = case_lines[0]
            .split_whitespace()
            .nth(1)
            .unwrap()
            .to_string();
        let replay = soak_cmd_inner(&args(&[
            "--seed", &first_seed, "--cases", "1", "--faults", "light",
        ]))
        .unwrap();
        assert!(replay.contains("1/1 case(s) converged"), "{replay}");
    }

    #[test]
    fn soak_quiet_keeps_only_the_summary() {
        let out =
            soak_cmd_inner(&args(&["--seed", "3", "--cases", "2", "--quiet"])).unwrap();
        assert!(out.contains("2/2 case(s) converged"), "{out}");
        assert!(
            !out.lines().any(|l| l.trim_start().starts_with("seed ")),
            "{out}"
        );
    }

    #[test]
    fn soak_rejects_bad_inputs() {
        assert!(soak_cmd_inner(&args(&["--faults", "bogus=1"])).is_err());
        assert!(soak_cmd_inner(&args(&["--seed", "x"])).is_err());
        assert!(soak_cmd_inner(&args(&["--cases", "-1"])).is_err());
    }

    #[test]
    fn profile_format_json_emits_one_snapshot_document() {
        let out = profile_cmd_inner(&args(&["--format", "json"])).unwrap();
        let parsed = json::parse(out.as_bytes()).unwrap();
        assert!(parsed.get("stages").is_some(), "got: {out}");
        assert!(parsed.get("counters").is_some(), "got: {out}");
        assert!(profile_cmd_inner(&args(&["--format", "yaml"])).is_err());
    }

    #[test]
    fn profile_table_has_a_row_per_analyzer_stage() {
        let out = profile_cmd_inner(&[]).unwrap();
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| *l != "stage timings:")
            .take_while(|l| *l != "counters:")
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        for stage in ["index", "transition", "diagnose"] {
            assert!(rows.contains(&stage), "no {stage} row in:\n{out}");
        }
    }
}
