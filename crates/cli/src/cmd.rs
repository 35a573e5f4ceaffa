//! Subcommand implementations and minimal flag parsing.

use citysee::figures::{fig9_breakdown, render_fig9_ascii};
use citysee::{analyze as analyze_campaign, run_scenario, Scenario};
use eventlog::archive;
use eventlog::event::BASE_STATION;
use eventlog::{merge_logs_recorded, PacketId};
use netsim::json::{self, Json, ToJson};
use netsim::{NodeId, SimDuration};
use refill::diagnose::{Diagnoser, PositionBreakdown};
use refill::parallel::{available_workers, reconstruct_fused, reconstruct_parallel};
use refill::telemetry::{AtomicRecorder, Recorder, Stage, StageTimer};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

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
  refill stream   [--frames FILE|-] [--sink N] [--lane-capacity N]
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
  and why, with a ledger confidence score. With no --logs it simulates
  one CitySee-like day first.
  profile runs the whole pipeline with telemetry attached and prints a
  per-stage breakdown; single-threaded by default so stage totals add up
  to wall time, or --workers N for the fused columnar parallel driver.
  With no --logs it simulates one CitySee-like day first. --format json
  prints the full telemetry snapshot as JSON instead of the table.
  store persists a run into a durable, crash-recoverable segment store:
  packed event rows plus node-abstract report templates with diagnosis
  sidecars. Without --logs it simulates a scenario (truth fates included,
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
  prefix and converges to the same reports as an uninterrupted run.
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

/// Tiny flag parser: `--key value` pairs plus boolean `--key` switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switch_names: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if switch_names.contains(&name) {
                switches.push(name.to_owned());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                pairs.push((name.to_owned(), v.clone()));
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

/// `refill simulate`.
pub fn simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let mut scenario = match flags.get("scale").unwrap_or("small") {
        "small" => Scenario::small(),
        "standard" => Scenario::standard(),
        "paper" => Scenario::paper(),
        other => return Err(format!("unknown scale '{other}'")),
    };
    if let Some(seed) = flags.get("seed") {
        scenario.seed = seed.parse().map_err(|_| "bad seed")?;
    }
    let out = PathBuf::from(flags.get("out").unwrap_or("refill-run"));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    eprintln!(
        "simulating '{}' ({} nodes, {} days, seed {})…",
        scenario.name, scenario.nodes, scenario.days, scenario.seed
    );
    let campaign = run_scenario(&scenario);

    // Archive the collected logs.
    let logs_path = out.join("logs.jsonl");
    let f = File::create(&logs_path).map_err(|e| e.to_string())?;
    archive::write_logs(&campaign.collected, BufWriter::new(f)).map_err(|e| e.to_string())?;

    // Scenario (for reproducibility) and a truth summary (for reference).
    std::fs::write(
        out.join("scenario.json"),
        scenario.to_json().to_pretty().map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let losses_by_cause: std::collections::BTreeMap<_, _> = campaign
        .sim
        .truth
        .losses_by_cause()
        .into_iter()
        .map(|(k, v)| (k.label(), v))
        .collect();
    let summary = Json::obj([
        ("generated", campaign.sim.truth.packet_count().to_json()),
        (
            "delivered",
            campaign.sim.counters.get("delivered").to_json(),
        ),
        (
            "delivery_ratio",
            campaign.sim.truth.delivery_ratio().to_json(),
        ),
        (
            "losses_by_cause",
            Json::Obj(
                losses_by_cause
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.to_json()))
                    .collect(),
            ),
        ),
        ("sink", campaign.topology.sink().to_json()),
        (
            "packet_period_secs",
            scenario.packet_interval().as_secs().to_json(),
        ),
    ]);
    std::fs::write(
        out.join("truth_summary.json"),
        summary.to_pretty().map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;

    println!(
        "wrote {} ({} log entries from {} nodes), scenario.json, truth_summary.json",
        logs_path.display(),
        campaign.collected.iter().map(|l| l.len()).sum::<usize>(),
        campaign.collected.len(),
    );
    println!(
        "next: refill analyze --logs {} --sink {} --period {}",
        logs_path.display(),
        campaign.topology.sink().0,
        scenario.packet_interval().as_secs()
    );

    // Also run the built-in analysis so the user sees the headline.
    let analysis = analyze_campaign(&campaign);
    println!();
    print!("{}", render_fig9_ascii(&fig9_breakdown(&campaign, &analysis)));
    Ok(())
}

fn read_archive(path: &str) -> Result<Vec<eventlog::logger::LocalLog>, String> {
    let p = Path::new(path);
    let file = if p.is_dir() { p.join("logs.jsonl") } else { p.to_path_buf() };
    let f = File::open(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    archive::read_logs(BufReader::new(f)).map_err(|e| e.to_string())
}

fn build_reconstructor(flags: &Flags) -> Result<(Reconstructor, Option<NodeId>), String> {
    let sink = match flags.get("sink") {
        Some(s) => Some(NodeId(s.parse().map_err(|_| "bad sink id")?)),
        None => None,
    };
    let mut recon = Reconstructor::new(CtpVocabulary::citysee());
    if let Some(s) = sink {
        recon = recon.with_sink(s);
    }
    Ok((recon, sink))
}

/// `refill report`: simulate a scenario and print the full management
/// report (includes ground-truth scoring, so it is simulation-only).
pub fn report(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let mut scenario = match flags.get("scale").unwrap_or("small") {
        "small" => Scenario::small(),
        "standard" => Scenario::standard(),
        "paper" => Scenario::paper(),
        other => return Err(format!("unknown scale '{other}'")),
    };
    if let Some(seed) = flags.get("seed") {
        scenario.seed = seed.parse().map_err(|_| "bad seed")?;
    }
    eprintln!("simulating and analyzing '{}'…", scenario.name);
    let campaign = run_scenario(&scenario);
    let analysis = analyze_campaign(&campaign);
    print!("{}", citysee::render_management_report(&campaign, &analysis));
    Ok(())
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
fn write_telemetry(flags: &Flags, recorder: &Option<Arc<AtomicRecorder>>) -> Result<(), String> {
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

/// `refill analyze`.
pub fn analyze_cmd_inner(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["stats"])?;
    let logs = read_archive(flags.get("logs").ok_or("--logs is required")?)?;
    let (recon, sink) = build_reconstructor(&flags)?;
    let recorder = recorder_for(&flags);
    let recon = attach_recorder(recon, &recorder);
    let period: u64 = flags
        .get("period")
        .map(|p| p.parse().map_err(|_| "bad period"))
        .transpose()?
        .unwrap_or(30);

    let merged = merge_logs_recorded(&logs, &**recon.recorder());
    let t0 = Instant::now();
    let reports = reconstruct_parallel(&recon, &merged, available_workers());
    let recon_secs = t0.elapsed().as_secs_f64();

    // Source view (if the archive has a base-station log).
    let no_bs_log = eventlog::logger::LocalLog::new(BASE_STATION);
    let bs = logs
        .iter()
        .find(|l| l.node == BASE_STATION)
        .unwrap_or(&no_bs_log);
    let source_view =
        baselines::source_view::SourceView::from_bs_log(bs, SimDuration::from_secs(period));

    let diagnoser = Diagnoser::new();
    let diagnoser = match sink {
        Some(s) => diagnoser.with_sink(s),
        None => diagnoser,
    };
    let diagnoses: Vec<_> = reports
        .iter()
        .map(|r| diagnoser.diagnose(r, source_view.estimate_time(r.packet)))
        .collect();

    use refill::diagnose::CauseBreakdown;
    let breakdown = CauseBreakdown::from_diagnoses(diagnoses.iter());
    let positions = PositionBreakdown::from_diagnoses(diagnoses.iter());

    let mut out = String::new();
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "{} packets reconstructed from {} nodes' logs ({} events)",
        reports.len(),
        logs.len(),
        merged.len()
    );
    let _ = writeln!(
        out,
        "delivered: {} | lost: {}",
        breakdown.delivered_total, breakdown.lost_total
    );
    let _ = writeln!(out, "\nloss causes:");
    for cause in citysee::figures::CAUSE_ORDER {
        let pct = breakdown.percent(cause);
        if pct > 0.0 {
            let _ = writeln!(out, "  {:>14}: {:5.1}%", cause.label(), pct);
        }
    }
    let _ = writeln!(out, "\ntop loss positions:");
    for (node, count) in positions.hotspots().into_iter().take(8) {
        let mark = if Some(node) == sink { "  <- sink" } else { "" };
        let _ = writeln!(out, "  {node}: {count}{mark}");
    }
    let loops = reports.iter().filter(|r| r.has_routing_loop()).count();
    let inferred: usize = reports.iter().map(|r| r.flow.inferred_count()).sum();
    let _ = writeln!(
        out,
        "\nrouting loops detected: {loops} | lost events inferred: {inferred}"
    );
    if flags.has("stats") {
        let packets = reports.len();
        let throughput = if recon_secs > 0.0 {
            packets as f64 / recon_secs
        } else {
            0.0
        };
        let _ = writeln!(out, "\nreconstruction stats:");
        let _ = writeln!(
            out,
            "  throughput: {packets} packets in {recon_secs:.3}s ({throughput:.0} packets/sec)"
        );
    }
    write_telemetry(&flags, &recorder)?;
    Ok(out)
}

/// `refill analyze`, printing.
pub fn analyze(args: &[String]) -> Result<(), String> {
    print!("{}", analyze_cmd_inner(args)?);
    Ok(())
}

/// `refill trace`.
pub fn trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["dot"])?;
    let logs = read_archive(flags.get("logs").ok_or("--logs is required")?)?;
    let packet = parse_packet(flags.get("packet").ok_or("--packet is required")?)?;
    let (recon, _) = build_reconstructor(&flags)?;
    let recorder = recorder_for(&flags);
    let recon = attach_recorder(recon, &recorder);

    let merged = merge_logs_recorded(&logs, &**recon.recorder());
    let index = merged.packet_index_recorded(&**recon.recorder());
    let events = index
        .get(packet)
        .ok_or_else(|| format!("no events for packet {packet} in the archive"))?;

    let report = recon.reconstruct_packet(packet, events);

    if flags.has("dot") {
        print!("{}", report.flow.to_dot());
        write_telemetry(&flags, &recorder)?;
        return Ok(());
    }
    println!("packet {packet}");
    println!(
        "  path : {}",
        report
            .path
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!("  flow : {}", report.flow);
    println!(
        "  {} observed, {} inferred, {} omitted, delivered: {}",
        report.flow.observed_count(),
        report.flow.inferred_count(),
        report.omitted.len(),
        report.delivered,
    );
    let diag = Diagnoser::new().diagnose(&report, None);
    if let Some(cause) = diag.cause {
        println!(
            "  verdict: {} at {}",
            cause.label(),
            diag.loss_node.map(|n| n.to_string()).unwrap_or_default()
        );
    }
    write_telemetry(&flags, &recorder)?;
    Ok(())
}

/// `refill explain`, printing.
pub fn explain(args: &[String]) -> Result<(), String> {
    print!("{}", explain_cmd_inner(args)?);
    Ok(())
}

/// `refill explain`, returning the printed output (testable): a provenance
/// narrative for one packet — observed vs inferred events, the FSM rule
/// behind each inference, loss position and cause, and the ledger
/// confidence score.
pub fn explain_cmd_inner(args: &[String]) -> Result<String, String> {
    use refill::provenance::{ProvenanceSink, TraceSampler};

    // The packet may be given positionally (`refill explain 17:4`) or via
    // `--packet`, matching `refill trace`.
    let (positional, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.as_str()), &args[1..]),
        _ => (None, args),
    };
    let flags = Flags::parse(rest, &[])?;
    let spec = positional
        .or_else(|| flags.get("packet"))
        .ok_or("explain needs a packet: `refill explain ORIGIN:SEQNO` (or --packet)")?;
    let packet = parse_packet(spec)?;

    let mut sink_from_sim = None;
    let logs = match flags.get("logs") {
        Some(path) => read_archive(path)?,
        None => {
            let mut scenario = Scenario {
                days: 1,
                ..Scenario::small()
            };
            if let Some(seed) = flags.get("seed") {
                scenario.seed = seed.parse().map_err(|_| "bad seed")?;
            }
            eprintln!(
                "no --logs given; simulating one CitySee-like day ({} nodes, seed {})…",
                scenario.nodes, scenario.seed
            );
            let campaign = run_scenario(&scenario);
            sink_from_sim = Some(campaign.topology.sink());
            campaign.collected
        }
    };
    let (mut recon, mut sink) = build_reconstructor(&flags)?;
    if sink.is_none() {
        if let Some(s) = sink_from_sim {
            recon = recon.with_sink(s);
            sink = Some(s);
        }
    }
    // Full-capture ledger: the disposition for the narrative comes from the
    // sink rather than being assumed at the call site.
    let prov = Arc::new(ProvenanceSink::new(TraceSampler::always()));
    let recon = recon.with_provenance(Arc::clone(&prov));

    let merged = merge_logs_recorded(&logs, &**recon.recorder());
    let index = merged.packet_index_recorded(&**recon.recorder());
    let events = index
        .get(packet)
        .ok_or_else(|| format!("no events for packet {packet} in the archive"))?;
    let report = recon.reconstruct_packet(packet, events);
    let disposition = prov.ledger().get(packet).map(|f| f.disposition);

    let diagnoser = match sink {
        Some(s) => Diagnoser::new().with_sink(s),
        None => Diagnoser::new(),
    };
    let explanation = refill::explain::explain(&report, &diagnoser, disposition);
    match flags.get("format").unwrap_or("text") {
        "text" => Ok(explanation.render_text()),
        "json" => {
            let mut s = explanation.render_json();
            s.push('\n');
            Ok(s)
        }
        other => Err(format!("unknown format '{other}' (expected text or json)")),
    }
}

/// `refill profile`: run the whole reconstruction pipeline single-threaded
/// with telemetry attached and print the per-stage breakdown. Without
/// `--logs`, one CitySee-like day is simulated first so the command works
/// standalone.
///
/// Single-threaded by default on purpose: stage totals then add up to
/// wall-clock time instead of summing CPU time across workers, which
/// makes the table directly readable as "where did the time go".
///
/// `--workers N` (N > 1) switches to the fused columnar parallel driver
/// instead: every stage row then sums CPU time across workers, so the
/// table reads as "where did the work go" and the stage totals exceed
/// wall time by roughly the achieved parallelism.
pub fn profile(args: &[String]) -> Result<(), String> {
    print!("{}", profile_cmd_inner(args)?);
    Ok(())
}

/// `refill profile`, returning the printed output (testable). With
/// `--format json` the output is the full telemetry snapshot as JSON —
/// the same document `--telemetry FILE` writes — instead of the table.
pub fn profile_cmd_inner(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &[])?;
    let format = flags.get("format").unwrap_or("table");
    if !matches!(format, "table" | "json") {
        return Err(format!("unknown format '{format}' (expected table or json)"));
    }
    let mut sink_from_sim = None;
    let logs = match flags.get("logs") {
        Some(path) => read_archive(path)?,
        None => {
            let mut scenario = Scenario {
                days: 1,
                ..Scenario::small()
            };
            if let Some(seed) = flags.get("seed") {
                scenario.seed = seed.parse().map_err(|_| "bad seed")?;
            }
            eprintln!(
                "no --logs given; simulating one CitySee-like day ({} nodes, seed {})…",
                scenario.nodes, scenario.seed
            );
            let campaign = run_scenario(&scenario);
            sink_from_sim = Some(campaign.topology.sink());
            campaign.collected
        }
    };
    let (mut recon, mut sink) = build_reconstructor(&flags)?;
    if sink.is_none() {
        if let Some(s) = sink_from_sim {
            recon = recon.with_sink(s);
            sink = Some(s);
        }
    }
    let recorder = Arc::new(AtomicRecorder::new());
    let recon = recon.with_recorder(recorder.clone());
    let diagnoser = match sink {
        Some(s) => Diagnoser::new().with_sink(s),
        None => Diagnoser::new(),
    };

    let workers: usize = flags
        .get("workers")
        .map(|w| w.parse().map_err(|_| "bad worker count"))
        .transpose()?
        .unwrap_or(1);

    let t0 = Instant::now();
    let mut packets = 0usize;
    if workers > 1 {
        // Fused columnar driver: merge, index, and reconstruction all run
        // inside it, so no separate merge here.
        let reports = reconstruct_fused(&recon, &logs, workers);
        for report in &reports {
            let _span = StageTimer::start(&*recorder, Stage::Diagnose);
            let _ = diagnoser.diagnose(report, None);
        }
        packets = reports.len();
    } else {
        let merged = merge_logs_recorded(&logs, &*recorder);
        let index = merged.packet_index_recorded(&*recorder);
        for (id, events) in index.iter() {
            let report = recon.reconstruct_packet(id, events);
            {
                let _span = StageTimer::start(&*recorder, Stage::Diagnose);
                let _ = diagnoser.diagnose(&report, None);
            }
            packets += 1;
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    let snapshot = recorder.snapshot();
    let mut out = String::new();
    use std::fmt::Write as _;
    if format == "json" {
        // Machine-readable mode: stdout is exactly one JSON document.
        out.push_str(&snapshot.render_json());
        out.push('\n');
    } else {
        out.push_str(&snapshot.render_table());
        let throughput = if secs > 0.0 { packets as f64 / secs } else { 0.0 };
        let mode = if workers > 1 {
            format!("fused columnar, {workers} workers")
        } else {
            "single-threaded".to_owned()
        };
        let _ = writeln!(
            out,
            "\n{packets} packets in {secs:.3}s ({throughput:.0} packets/sec, {mode})"
        );
    }
    if let Some(path) = flags.get("telemetry") {
        std::fs::write(path, snapshot.render_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("telemetry written to {path}");
    }
    if let Some(path) = flags.get("prometheus") {
        std::fs::write(path, snapshot.render_prometheus()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("prometheus exposition written to {path}");
    }
    Ok(out)
}

/// `refill stream`: online reconstruction over framed records.
pub fn stream(args: &[String]) -> Result<(), String> {
    print!("{}", stream_cmd_inner(args)?);
    Ok(())
}

/// `refill stream`, returning the printed output (testable).
pub fn stream_cmd_inner(args: &[String]) -> Result<String, String> {
    use refill_stream::{
        run_stream_checkpointed, run_stream_metered, DriverConfig, Replay, StreamConfig,
        StreamReconstructor,
    };

    let flags = Flags::parse(args, &["quiet"])?;
    let metrics_every: Option<u64> = flags
        .get("metrics-every")
        .map(|v| v.parse().map_err(|_| "bad metrics interval"))
        .transpose()?;
    let (recon, _) = build_reconstructor(&flags)?;
    // Interval deltas need a real recorder even when no snapshot file was
    // asked for — a Noop recorder would emit all-zero deltas.
    let recorder = match recorder_for(&flags) {
        Some(r) => Some(r),
        None if metrics_every.is_some() => Some(Arc::new(AtomicRecorder::new())),
        None => None,
    };
    let recon = attach_recorder(recon, &recorder);

    let mut config = StreamConfig::default();
    if let Some(v) = flags.get("lane-capacity") {
        config.lane_capacity = v.parse().map_err(|_| "bad lane capacity")?;
    }
    if let Some(v) = flags.get("late-records") {
        config.lateness.records = v.parse().map_err(|_| "bad lateness record quota")?;
    }
    if let Some(v) = flags.get("late-us") {
        config.lateness.micros = v.parse().map_err(|_| "bad lateness microseconds")?;
    }
    let mut stream = StreamReconstructor::with_config(recon, config);

    let quiet = flags.has("quiet");
    // Two independent sinks write interleaved output (rolling reports and
    // metrics deltas), so the buffer lives behind a RefCell.
    let out = std::cell::RefCell::new(String::new());
    use std::fmt::Write as _;
    let emit = |r: &refill::PacketReport| {
        if !quiet {
            let mut o = out.borrow_mut();
            let _ = writeln!(o, "packet {} | {}", r.packet, r.flow);
        }
    };
    let metrics = |snap: &refill::telemetry::TelemetrySnapshot| {
        if let Ok(line) = snap.to_json().to_compact() {
            let mut o = out.borrow_mut();
            let _ = writeln!(o, "{line}");
        }
    };

    let reader: Box<dyn std::io::Read + Send> = match flags.get("frames") {
        Some("-") => Box::new(std::io::stdin()),
        Some(path) => {
            let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            Box::new(BufReader::new(f))
        }
        None => {
            // No input: simulate one CitySee-like day and replay its
            // upload stream through the same framed path.
            let mut scenario = Scenario {
                days: 1,
                ..Scenario::small()
            };
            if let Some(seed) = flags.get("seed") {
                scenario.seed = seed.parse().map_err(|_| "bad seed")?;
            }
            eprintln!(
                "no --frames given; simulating one CitySee-like day ({} nodes, seed {})…",
                scenario.nodes, scenario.seed
            );
            let campaign = run_scenario(&scenario);
            let bytes = Replay::from_campaign(&campaign, f64::INFINITY).encode();
            Box::new(std::io::Cursor::new(bytes))
        }
    };

    let mut store_note = None;
    let summary = match flags.get("store") {
        Some(dir) => {
            use refill_store::{SegmentStore, StoreCheckpoint};
            if metrics_every.is_some() {
                return Err("--metrics-every is not supported with --store".into());
            }
            let (st, _) = SegmentStore::open(dir).map_err(|e| e.to_string())?;
            let mut ckpt = StoreCheckpoint::new(st);
            let resume = ckpt.resume_records().map_err(|e| e.to_string())?;
            if !resume.is_empty() {
                eprintln!(
                    "resuming from {} durable records in {dir}…",
                    resume.len()
                );
                for rec in resume {
                    stream.ingest(rec);
                }
            }
            let summary = run_stream_checkpointed(
                reader,
                &mut stream,
                DriverConfig::default(),
                |r| emit(r),
                &mut ckpt,
            )
            .map_err(|e| e.to_string())?;
            let st = ckpt.finish().map_err(|e| e.to_string())?;
            store_note = Some(format!(
                "store: {} event rows, {} report rows in {} segments at {dir}",
                st.total_events(),
                st.total_reports(),
                st.segments().len()
            ));
            summary
        }
        None => run_stream_metered(
            reader,
            &mut stream,
            DriverConfig::default(),
            |r| emit(r),
            metrics_every,
            |s| metrics(s),
        )
        .map_err(|e| e.to_string())?,
    };

    let mut out = out.into_inner();
    let stats = summary.stats;
    let _ = writeln!(
        out,
        "\nframes: {} decoded, {} corrupt runs skipped",
        summary.frames.decoded, summary.frames.corrupt
    );
    let _ = writeln!(
        out,
        "records: {} | windows closed: {} | late reopens: {} | backpressure stalls: {}",
        stats.records, stats.windows_closed, stats.windows_reopened, stats.backpressure
    );
    let _ = writeln!(
        out,
        "packets: {} converged ({} reports emitted mid-stream)",
        summary.reports.len(),
        summary.rolling_reports
    );
    if let Some(note) = store_note {
        let _ = writeln!(out, "{note}");
    }
    write_telemetry(&flags, &recorder)?;
    Ok(out)
}

/// `refill store`, printing.
pub fn store(args: &[String]) -> Result<(), String> {
    print!("{}", store_cmd_inner(args)?);
    Ok(())
}

/// `refill store`, returning the printed output (testable): persist a
/// run's merged events and reconstructed reports (with diagnosis
/// sidecars) into a durable segment store. Without `--logs` a scenario is
/// simulated first and the sidecars carry ground-truth fates; with
/// `--logs` an archive is reconstructed and diagnosed (no truth).
pub fn store_cmd_inner(args: &[String]) -> Result<String, String> {
    use refill_store::{ReportRow, SegmentStore, Sidecar};
    let flags = Flags::parse(args, &["compact"])?;
    let out_dir = PathBuf::from(flags.get("out").ok_or("--out is required")?);

    let (event_rows, report_rows, scenario_json) = match flags.get("logs") {
        Some(path) => {
            let logs = read_archive(path)?;
            let (recon, sink) = build_reconstructor(&flags)?;
            let period: u64 = flags
                .get("period")
                .map(|p| p.parse().map_err(|_| "bad period"))
                .transpose()?
                .unwrap_or(30);
            let bs = logs
                .iter()
                .find(|l| l.node == BASE_STATION)
                .cloned()
                .unwrap_or_else(|| eventlog::logger::LocalLog::new(BASE_STATION));
            let source_view = baselines::source_view::SourceView::from_bs_log(
                &bs,
                SimDuration::from_secs(period),
            );
            let diagnoser = match sink {
                Some(s) => Diagnoser::new().with_sink(s),
                None => Diagnoser::new(),
            };
            let columns = eventlog::merge_logs_store(&logs);
            let event_rows: Vec<_> = columns
                .records()
                .iter()
                .copied()
                .zip(columns.ts_column().iter().copied())
                .collect();
            let merged = columns.to_merged();
            let index = merged.packet_index();
            let rows: Vec<ReportRow> = index
                .iter()
                .map(|(id, events)| {
                    let report = recon.reconstruct_packet(id, events);
                    let est_time = source_view.estimate_time(id);
                    let diagnosis = diagnoser.diagnose(&report, est_time);
                    ReportRow::from_report(
                        &report,
                        Some(Sidecar {
                            est_time,
                            diagnosis,
                            fate: None,
                        }),
                    )
                })
                .collect();
            (event_rows, rows, None)
        }
        None => {
            // Simulation mode: scenario.json rides along so
            // `query --fig fig8` can rebuild the topology.
            let mut scenario = match flags.get("scale").unwrap_or("small") {
                "small" => Scenario::small(),
                "standard" => Scenario::standard(),
                "paper" => Scenario::paper(),
                other => return Err(format!("unknown scale '{other}'")),
            };
            if let Some(seed) = flags.get("seed") {
                scenario.seed = seed.parse().map_err(|_| "bad seed")?;
            }
            eprintln!(
                "simulating and analyzing '{}' (seed {})…",
                scenario.name, scenario.seed
            );
            let campaign = run_scenario(&scenario);
            let analysis = analyze_campaign(&campaign);
            let (_, _, _, config) = scenario.build();
            let recon = Reconstructor::new(CtpVocabulary {
                log_origin: config.log_origin,
                log_enqueue: config.log_enqueue,
            })
            .with_sink(campaign.topology.sink());
            let index = campaign.merged.packet_index();
            let rows: Vec<ReportRow> = analysis
                .records
                .iter()
                .map(|r| {
                    let events = index.get(r.packet).unwrap_or(&[]);
                    let report = recon.reconstruct_packet(r.packet, events);
                    ReportRow::from_report(
                        &report,
                        Some(Sidecar {
                            est_time: r.est_time,
                            diagnosis: r.diagnosis.clone(),
                            fate: Some(r.fate),
                        }),
                    )
                })
                .collect();
            let columns = eventlog::merge_logs_store(&campaign.collected);
            let event_rows: Vec<_> = columns
                .records()
                .iter()
                .copied()
                .zip(columns.ts_column().iter().copied())
                .collect();
            let json = scenario.to_json().to_pretty().map_err(|e| e.to_string())?;
            (event_rows, rows, Some(json))
        }
    };

    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let (st, recovery) = SegmentStore::open(&out_dir).map_err(|e| e.to_string())?;
    let mut st = st;
    for chunk in event_rows.chunks(4096) {
        st.append_events(chunk).map_err(|e| e.to_string())?;
    }
    for chunk in report_rows.chunks(512) {
        st.append_reports(chunk).map_err(|e| e.to_string())?;
    }
    st.sync().map_err(|e| e.to_string())?;
    if let Some(json) = scenario_json {
        std::fs::write(out_dir.join("scenario.json"), json).map_err(|e| e.to_string())?;
    }

    let mut out = String::new();
    use std::fmt::Write as _;
    if recovery.torn_bytes > 0 || recovery.pruned_files > 0 {
        let _ = writeln!(
            out,
            "recovered existing store ({} torn bytes truncated, {} stray files pruned)",
            recovery.torn_bytes, recovery.pruned_files
        );
    }
    let _ = writeln!(
        out,
        "store {} holds {} event rows and {} report rows in {} segments",
        out_dir.display(),
        st.total_events(),
        st.total_reports(),
        st.segments().len()
    );
    if flags.has("compact") {
        let report = st.compact().map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "compacted {} segments into 1 ({} superseded reports dropped)",
            report.merged_segments, report.dropped_reports
        );
    }
    let _ = writeln!(
        out,
        "next: refill query --store {} [--fig fig4|fig5|fig8]",
        out_dir.display()
    );
    Ok(out)
}

fn parse_cause(s: &str) -> Result<refill::DiagnosedCause, String> {
    citysee::figures::CAUSE_ORDER
        .into_iter()
        .find(|c| {
            let label = c.label();
            label == s || label.replace(' ', "_") == s
        })
        .ok_or_else(|| {
            let labels: Vec<String> = citysee::figures::CAUSE_ORDER
                .into_iter()
                .map(|c| c.label().replace(' ', "_"))
                .collect();
            format!("unknown cause '{s}' (expected one of: {})", labels.join(", "))
        })
}

/// `refill query`, printing.
pub fn query(args: &[String]) -> Result<(), String> {
    print!("{}", query_cmd_inner(args)?);
    Ok(())
}

/// `refill query`, returning the printed output (testable): evaluate
/// predicates over a segment store without re-running reconstruction.
/// `--fig` renders a figure CSV from the stored sidecars instead of the
/// summary (over the converged per-packet view of the matched reports).
pub fn query_cmd_inner(args: &[String]) -> Result<String, String> {
    use refill::provenance::EntryOrigin;
    use refill_store::{Query, SegmentStore};
    let flags = Flags::parse(args, &["stats"])?;
    let dir = PathBuf::from(flags.get("store").ok_or("--store is required")?);
    let (store, _) = SegmentStore::open(&dir).map_err(|e| e.to_string())?;

    let mut q = Query::default();
    if let Some(v) = flags.get("origin") {
        q.origin = Some(NodeId(v.parse().map_err(|_| "bad origin id")?));
    }
    if let Some(v) = flags.get("seqno") {
        let (lo, hi) = match v.split_once(':') {
            Some((a, b)) => (
                a.parse().map_err(|_| "bad seqno range")?,
                b.parse().map_err(|_| "bad seqno range")?,
            ),
            None => {
                let n: u32 = v.parse().map_err(|_| "bad seqno")?;
                (n, n)
            }
        };
        q.seqno = Some((lo, hi));
    }
    let since = flags
        .get("since")
        .map(|v| v.parse::<u64>().map_err(|_| "bad --since"))
        .transpose()?;
    let until = flags
        .get("until")
        .map(|v| v.parse::<u64>().map_err(|_| "bad --until"))
        .transpose()?;
    if since.is_some() || until.is_some() {
        q.ts = Some((since.unwrap_or(0), until.unwrap_or(u64::MAX)));
    }
    if let Some(v) = flags.get("cause") {
        q.cause = Some(parse_cause(v)?);
    }
    if let Some(v) = flags.get("disposition") {
        q.disposition = Some(match v {
            "observed" => EntryOrigin::Observed,
            "intra" | "intra-jump" => EntryOrigin::IntraJump,
            "inter" | "inter-forced" => EntryOrigin::InterForced,
            other => {
                return Err(format!(
                    "unknown disposition '{other}' (expected observed, intra or inter)"
                ))
            }
        });
    }

    let result = store.query(&q).map_err(|e| e.to_string())?;

    // Converged per-packet view of the matched reports: last write wins,
    // sorted by packet id (the same view `latest_reports` exposes).
    let mut latest = std::collections::BTreeMap::new();
    for row in &result.reports {
        latest.insert(row.packet, row.clone());
    }

    if let Some(figure) = flags.get("fig") {
        let records = latest
            .values()
            .map(|row| {
                let sidecar = row.sidecar.clone().ok_or_else(|| {
                    format!("report row for {} has no diagnosis sidecar", row.packet)
                })?;
                Ok(citysee::PacketRecord {
                    packet: row.packet,
                    est_time: sidecar.est_time,
                    diagnosis: sidecar.diagnosis,
                    fate: sidecar.fate.unwrap_or(eventlog::PacketFate::Delivered {
                        at: netsim::SimTime::ZERO,
                    }),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        use citysee::figures as figs;
        return match figure {
            "fig4" => Ok(figs::render_loss_points_csv(&figs::fig4_from_records(
                &records,
            ))),
            "fig5" => Ok(figs::render_loss_points_csv(&figs::fig5_from_records(
                &records,
            ))),
            "fig8" => {
                let path = dir.join("scenario.json");
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "{}: {e} (fig8 needs the scenario.json a simulation-built store carries)",
                        path.display()
                    )
                })?;
                let scenario: Scenario = json::decode(text.as_bytes())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let (topology, _, _, _) = scenario.build();
                Ok(figs::render_fig8_csv(&figs::fig8_from_records(
                    &records, &topology,
                )))
            }
            other => Err(format!(
                "unknown figure '{other}' (expected fig4, fig5 or fig8)"
            )),
        };
    }

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "matched {} event rows and {} report rows ({} packets)",
        result.events.len(),
        result.reports.len(),
        latest.len()
    );
    // Loss-cause table over the converged view, mirroring `analyze`.
    let lost: Vec<_> = latest
        .values()
        .filter_map(|r| r.sidecar.as_ref())
        .filter(|s| !s.diagnosis.delivered)
        .collect();
    if !lost.is_empty() {
        let _ = writeln!(out, "\nloss causes ({} lost):", lost.len());
        for cause in citysee::figures::CAUSE_ORDER {
            let count = lost
                .iter()
                .filter(|s| {
                    s.diagnosis.cause.unwrap_or(refill::DiagnosedCause::Unknown) == cause
                })
                .count();
            if count > 0 {
                let _ = writeln!(
                    out,
                    "  {:>14}: {count} ({:.1}%)",
                    cause.label(),
                    100.0 * count as f64 / lost.len() as f64
                );
            }
        }
    }
    if flags.has("stats") {
        let s = result.stats;
        let _ = writeln!(
            out,
            "\npushdown: {}/{} segments scanned ({} skipped); \
             {} event rows scanned, {} report rows scanned",
            s.segments_scanned,
            s.segments_total,
            s.segments_skipped,
            s.event_rows_scanned,
            s.report_rows_scanned
        );
    }
    Ok(out)
}

/// `refill soak`.
pub fn soak(args: &[String]) -> Result<(), String> {
    print!("{}", soak_cmd_inner(args)?);
    Ok(())
}

/// `refill soak`, returning the printed output (testable): seeded
/// fault-injection conformance cases across all six driver paths. A
/// divergence returns `Err` (nonzero exit) carrying every failure's
/// standalone reproduction command.
pub fn soak_cmd_inner(args: &[String]) -> Result<String, String> {
    use refill_testkit::{run_soak, FaultSpec, SoakConfig};
    use std::fmt::Write as _;

    let flags = Flags::parse(args, &["quiet"])?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad seed"))
        .transpose()?
        .unwrap_or(1);
    let cases: u32 = flags
        .get("cases")
        .map(|s| s.parse().map_err(|_| "bad cases"))
        .transpose()?
        .unwrap_or(64);
    let spec = FaultSpec::parse(flags.get("faults").unwrap_or("light"))?;
    let quiet = flags.has("quiet");
    let recorder = recorder_for(&flags);
    let noop = refill::telemetry::NoopRecorder;
    let rec: &dyn Recorder = match &recorder {
        Some(r) => &**r,
        None => &noop,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "soak: master seed {seed}, {cases} case(s), faults {}",
        spec.render()
    );
    let config = SoakConfig { seed, cases, spec };
    let report = run_soak(&config, rec, |case_seed, result| match result {
        Ok(o) => {
            if !quiet {
                let _ = writeln!(
                    out,
                    "  seed {case_seed:>20}  converged  {:>4} records  {:>3} reports  {:>3} fault(s)",
                    o.records_survived, o.reports, o.faults_injected
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  seed {case_seed:>20}  DIVERGED   [{}]", e.driver);
        }
    });
    let _ = writeln!(
        out,
        "{}/{} case(s) converged, {} fault(s) injected and survived, {} record(s), {} report(s)",
        report.converged, report.cases, report.faults_injected,
        report.records_survived, report.reports
    );
    write_telemetry(&flags, &recorder)?;

    if report.failures.is_empty() {
        Ok(out)
    } else {
        for failure in &report.failures {
            let _ = writeln!(out, "\n{failure}");
        }
        Err(format!(
            "{out}\nsoak: {} of {} case(s) diverged",
            report.failures.len(),
            report.cases
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = Flags::parse(&args(&["--logs", "x", "--dot", "--sink", "0"]), &["dot"]).unwrap();
        assert_eq!(f.get("logs"), Some("x"));
        assert_eq!(f.get("sink"), Some("0"));
        assert!(f.has("dot"));
        assert!(!f.has("quiet"));
    }

    #[test]
    fn flags_reject_stray_args() {
        assert!(Flags::parse(&args(&["oops"]), &[]).is_err());
        assert!(Flags::parse(&args(&["--logs"]), &[]).is_err());
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

        assert!(stream_cmd_inner(&args(&[
            "--frames",
            frames.to_str().unwrap(),
            "--store",
            store_dir.to_str().unwrap(),
            "--metrics-every",
            "1",
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[ignore = "kernel finding, ROADMAP item 3: reports depend on the cross-node interleave, so the stream legs (arrival order) diverge from batch (merge order) on untimestamped or duplicated entries; every other lane of these cases converges"]
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
}
