//! Subcommand implementations, one module each, over the flag parser and
//! the input, analyzer and telemetry plumbing they share.

mod analyze;
mod explain;
mod profile;
mod report;
mod simulate;
mod soak;
mod stream;
mod trace;

pub use analyze::analyze;
pub use explain::explain;
pub use profile::profile;
pub use report::report;
pub use simulate::simulate;
pub use soak::soak;
pub use stream::stream;
pub use trace::trace;

use citysee::Analyzer;
use citysee::{run_scenario, Campaign, Scenario};
use eventlog::frame;
use eventlog::logger::LocalLog;
use eventlog::PacketId;
use netsim::{NodeId, SimDuration};
use refill::telemetry::{AtomicRecorder, Counter, Recorder};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "\
refill — reconstruct network behavior from individual, lossy logs

USAGE:
  refill simulate [--scale small|standard|paper] [--seed N] [--out DIR]
  refill analyze  --logs LOGS [--sink N] [--period SECS] [--stats] [--telemetry FILE]
  refill trace    --logs LOGS --packet ORIGIN:SEQNO [--sink N] [--dot] [--telemetry FILE]
  refill explain  ORIGIN:SEQNO [--logs LOGS] [--sink N] [--seed N] [--format text|json]
  refill profile  [--logs LOGS] [--sink N] [--seed N] [--workers N]
                  [--format table|json] [--telemetry FILE]
  refill report   [--scale small|standard|paper] [--seed N]
  refill stream   [--logs LOGS] [--sink N] [--seed N]
                  [--late-records N] [--late-us N] [--metrics-every N]
                  [--quiet] [--telemetry FILE]
  refill soak     [--seed N] [--cases N] [--faults SPEC] [--quiet]
                  [--telemetry FILE] [--prometheus FILE]
  refill help

  LOGS is one log file format, the eventlog::frame records simulate writes
  to DIR/logs.frames: a file, a directory holding logs.frames, or - for
  stdin. Corrupt runs in it are skipped and counted (on stderr).
  stream reconstructs online: the records of --logs are decoded as they
  arrive, windows close per-node as watermarks pass (--late-records /
  --late-us lateness), rolling reports print as they close, and the
  converged summary follows. With no --logs it simulates one CitySee-like
  day and replays its upload stream, the bytes simulate writes.
  --metrics-every N emits a JSON-lines telemetry delta (counters, stage
  timings, histograms since the previous delta) every N records handed
  to the stream. A killed stream is re-run with the same --logs.
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
  soak runs seeded fault-injection conformance cases: each case pushes
  one synthetic scenario through all five driver paths (sequential,
  parallel, fused, cached cold then warm, streaming) under injected frame
  corruption and reader failures, asserting byte-identical reports
  everywhere. --faults takes a preset (none|light|heavy) and/or key=value
  rates (frame, truncate, garbage, reader, stall, skew, dup, late). Every
  case's derived seed is echoed; any failure prints a single-case
  reproduction command. Fault totals surface as faults_injected /
  faults_survived in the telemetry exposition.";

/// Run subcommand `cmd` on `args`.
pub fn run(cmd: &str, args: &[String]) -> Result<(), String> {
    match cmd {
        "simulate" => simulate(args),
        "analyze" => analyze(args),
        "trace" => trace(args),
        "explain" => explain(args),
        "profile" => profile(args),
        "report" => report(args),
        "stream" => stream(args),
        "soak" => soak(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

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

/// The stand-in for a missing `--logs`: one simulated CitySee-like day,
/// seeded from `--seed`.
fn simulate_day(flags: &Flags) -> Result<Campaign, String> {
    let mut scenario = Scenario {
        days: 1,
        ..Scenario::small()
    };
    apply_seed(flags, &mut scenario)?;
    eprintln!(
        "no --logs given; simulating one CitySee-like day ({} nodes, seed {})…",
        scenario.nodes, scenario.seed
    );
    Ok(run_scenario(&scenario))
}

/// The file a run directory keeps its logs in: the campaign's upload
/// stream as frames.
const LOGS_FILE: &str = "logs.frames";

/// `campaign`'s log file: its upload stream as frames.
fn logs_bytes(campaign: &Campaign) -> Vec<u8> {
    frame::encode_records(&campaign.upload_records())
}

/// Write `campaign`'s [`logs_bytes`] to `dir`'s [`LOGS_FILE`] — the bytes
/// `refill stream` replays when it is given no input.
fn write_logs(dir: &Path, campaign: &Campaign) -> Result<PathBuf, String> {
    let path = dir.join(LOGS_FILE);
    std::fs::write(&path, logs_bytes(campaign)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The bytes `--logs PATH` names: a frame file, a directory's
/// [`LOGS_FILE`], or stdin for `-`.
fn open_logs(path: &str) -> Result<Box<dyn Read + Send>, String> {
    if path == "-" {
        return Ok(Box::new(std::io::stdin()));
    }
    let p = Path::new(path);
    let file = if p.is_dir() { p.join(LOGS_FILE) } else { p.to_path_buf() };
    let f = File::open(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(Box::new(f))
}

/// The logs a command works on, and the sink it should assume.
struct Input {
    logs: Vec<LocalLog>,
    /// `--sink`, else the simulated deployment's.
    sink: Option<NodeId>,
}

/// The `--logs` frames regrouped into per-node logs, or a simulated day when
/// there are none. The decoder's counters go to `recorder`, and corrupt runs
/// are reported on stderr.
fn load_input(flags: &Flags, recorder: &Option<Arc<AtomicRecorder>>) -> Result<Input, String> {
    let sink = parse_sink(flags)?;
    let Some(path) = flags.get("logs") else {
        let campaign = simulate_day(flags)?;
        return Ok(Input {
            sink: sink.or(Some(campaign.topology.sink())),
            logs: campaign.collected,
        });
    };
    let (logs, stats) = frame::read_logs(open_logs(path)?).map_err(|e| format!("{path}: {e}"))?;
    if let Some(r) = recorder {
        r.add(Counter::FramesDecoded, stats.decoded);
        r.add(Counter::FramesCorrupt, stats.corrupt);
    }
    if stats.corrupt > 0 {
        eprintln!(
            "{path}: {} frames decoded, {} corrupt runs skipped",
            stats.decoded, stats.corrupt
        );
    }
    Ok(Input { logs, sink })
}

/// The analyzer an operator holding only the logs runs: CitySee's logging
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
    use super::soak::soak_cmd_inner;
    use super::stream::stream_cmd_inner;
    use super::*;
    use citysee::analyze as analyze_campaign;
    use eventlog::frame::NodeRecord;
    use netsim::json::{self, Json};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// `logs` as a frame file at `path`, one node's records after another's.
    fn write_frames(path: &Path, logs: &[LocalLog]) {
        let records: Vec<NodeRecord> = logs
            .iter()
            .flat_map(|log| log.entries.iter().map(|&e| NodeRecord::new(log.node, e)))
            .collect();
        std::fs::write(path, frame::encode_records(&records)).unwrap();
    }

    /// Every subcommand's flag table, in USAGE order.
    const SPECS: [&FlagSpec; 8] = [
        &simulate::FLAGS,
        &analyze::FLAGS,
        &trace::FLAGS,
        &explain::FLAGS,
        &profile::FLAGS,
        &report::FLAGS,
        &stream::FLAGS,
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
        let commands: [(Cmd, &FlagSpec, &str); 9] = [
            (simulate, &simulate::FLAGS, "--scal"),
            (analyze, &analyze::FLAGS, "--log"),
            (trace, &trace::FLAGS, "--pakcet"),
            (explain, &explain::FLAGS, "--logz"),
            (profile, &profile::FLAGS, "--log"),
            (report, &report::FLAGS, "--sead"),
            (stream, &stream::FLAGS, "--frames"),
            // The segment store it checkpointed into is gone.
            (stream, &stream::FLAGS, "--store"),
            (soak, &soak::FLAGS, "--case"),
        ];
        for (run, spec, flag) in commands {
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

    /// `refill store` and `refill query` went with the segment store: the
    /// logs file answers their questions through `analyze`, `trace` and
    /// `explain`.
    #[test]
    fn the_store_commands_are_unknown() {
        for cmd in ["store", "query"] {
            let err = run(cmd, &args(&["--out", "x"])).unwrap_err();
            assert!(err.starts_with(&format!("unknown command '{cmd}'\n")), "{err}");
        }
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
            "--logs",
            frames.to_str().unwrap(),
            "--telemetry",
            tele.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("frames: 2 decoded, 0 corrupt"), "got: {out}");
        assert!(out.contains("packets: 1 converged"), "got: {out}");
        assert_window_ledger(&out);
        let parsed = json::parse(&std::fs::read(&tele).unwrap()).unwrap();
        assert!(parsed.get("counters").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `refill stream`'s summary balances its window ledger: every packet's
    /// window was closed once more than it was reopened.
    fn assert_window_ledger(out: &str) {
        let number = |prefix: &str, key: &str| -> u64 {
            let line = out.lines().find(|l| l.starts_with(prefix));
            let line = line.unwrap_or_else(|| panic!("no {prefix} line: {out}"));
            let field = line.split(" | ").find_map(|f| f.trim().strip_prefix(key));
            let field = field.unwrap_or_else(|| panic!("no {key} in {line}"));
            field.split_whitespace().next().unwrap().parse().unwrap()
        };
        let closed = number("records:", "windows closed: ");
        let reopened = number("records:", "late reopens: ");
        let packets = number("packets:", "packets: ");
        assert_eq!(closed - reopened, packets, "{out}");
    }

    #[test]
    fn stream_window_ledger_balances_on_a_simulated_day() {
        let out = stream_cmd_inner(&args(&["--quiet", "--seed", "3"])).unwrap();
        assert!(out.contains("packets: "), "got: {out}");
        assert_window_ledger(&out);
    }

    #[test]
    fn stream_rejects_bad_flags() {
        assert!(stream_cmd_inner(&args(&["--late-records", "banana"])).is_err());
        assert!(stream_cmd_inner(&args(&["--logs", "/definitely/not/here"])).is_err());
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
            "--logs",
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

    /// A point lookup's snapshot accounts for every entry it walked:
    /// Σ `node_log_events` is the frames decoded from the file, and its one
    /// group holds the packet's.
    #[test]
    fn trace_telemetry_counts_every_entry_of_the_logs() {
        let campaign = run_scenario(&Scenario {
            days: 1,
            ..Scenario::small()
        });
        let dir = std::env::temp_dir().join("refill-trace-telemetry-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_logs(&dir, &campaign).unwrap();
        let entries: usize = campaign.collected.iter().map(LocalLog::len).sum();
        let logs = campaign.collected.iter().filter(|log| !log.is_empty()).count();
        let packet = campaign.collected[0].entries[0].event.packet;
        let in_logs = campaign.collected.iter().flat_map(LocalLog::events);
        let mentions = in_logs.filter(|e| e.packet == packet).count();
        let tele = dir.join("trace.json");
        trace(&args(&[
            "--logs",
            dir.to_str().unwrap(),
            "--packet",
            &format!("{}:{}", packet.origin.0, packet.seqno),
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
        let walked = named("histograms", "node_log_events");
        assert_eq!(walked["count"].as_u64(), Some(logs as u64));
        assert_eq!(walked["sum"].as_u64(), Some(entries as u64));
        assert_eq!(named("counters", "frames_decoded")["value"].as_u64(), Some(entries as u64));
        assert_eq!(named("counters", "indexed_packets")["value"].as_u64(), Some(1));
        let group = named("histograms", "group_events");
        assert_eq!(group["sum"].as_u64(), Some(mentions as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_narrates_provenance_from_a_logs_file() {
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
        let path = dir.join("two-nodes.frames");
        write_frames(&path, &[n1, n3]);

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
        let path = dir.join("one-node.frames");
        write_frames(&path, &[log]);
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
        assert!(dir.join(LOGS_FILE).is_file());
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

        // The online path reads the same file and reports every packet the
        // batch pass reconstructed.
        let streamed = stream_cmd_inner(&args(&["--logs", dir.to_str().unwrap(), "--quiet"])).unwrap();
        let packets = report.split_whitespace().next().unwrap();
        assert!(
            streamed.contains(&format!("packets: {packets} converged")),
            "{packets} packets in batch, streamed: {streamed}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `refill simulate`'s file is the upload stream `refill stream` replays
    /// when it has no input: streaming one is streaming the other.
    #[test]
    fn streaming_a_written_day_is_streaming_the_simulated_one() {
        let seed = "5";
        let mut scenario = Scenario {
            days: 1,
            ..Scenario::small()
        };
        scenario.seed = seed.parse().unwrap();
        let dir = std::env::temp_dir().join("refill-stream-written-day-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_logs(&dir, &run_scenario(&scenario)).unwrap();
        let read = stream_cmd_inner(&args(&["--logs", dir.to_str().unwrap()])).unwrap();
        let simulated = stream_cmd_inner(&args(&["--seed", seed])).unwrap();
        assert!(read.contains("packets: "), "{read}");
        assert_eq!(read, simulated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Operator == measured: `refill analyze` runs the pass
    /// `citysee::analyze` (what the benchmark times) runs, so given the same
    /// sink, period and (empty) outage list both tell the same story.
    #[test]
    fn analyze_prints_what_the_measured_analysis_folds() {
        use refill::diagnose::{CauseBreakdown, PositionBreakdown};
        // A logs file carries no outage schedule: leave the scenario none.
        let scenario = Scenario {
            outage_days: Some(Vec::new()),
            ..Scenario::small()
        };
        let campaign = run_scenario(&scenario);
        let sink = campaign.topology.sink();
        let dir = std::env::temp_dir().join("refill-analyze-equivalence-test");
        std::fs::create_dir_all(&dir).unwrap();
        write_logs(&dir, &campaign).unwrap();
        let printed = analyze_cmd_inner(&args(&[
            "--logs",
            dir.to_str().unwrap(),
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
