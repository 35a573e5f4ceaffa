//! Benchmark harness for the REFILL pipeline: one workload per process.
//!
//! ```text
//! refill-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with tracing off;
//! `--trace 1` is the traced run that produces the per-layer metrics and
//! writes `benchmark/out/<workload>.trace.json`. Every metric is printed as a
//! `metric <name> <value> <unit>` line; the last line of standard output is
//! the JSON result object. Any failed internal check panics, so the
//! process exits non-zero without a result line.

use refill_benchmark::layers;
use refill_benchmark::measure::{
    cpu_seconds, max, median, metric, min, peak_rss_mib, time_once, Metric, Yardstick,
};
use refill_benchmark::spans::Tracer;
use refill_benchmark::workload;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{
    analysis_tools, check_report, check_stream, check_trace, generate, reference_reports,
    report_op, score_reports, stream_op_bytes, stream_reference, trace_op, GenStats, Input, Kind,
    Quality, Spec, StreamReference, Tally, TRACE_BATCH, WORKLOADS,
};

use eventlog::{merge_logs, PacketId};
use refill::diagnose::Diagnoser;
use refill::trace::{PacketReport, Reconstructor};

/// Where the traced run writes its spans, relative to the repository root
/// (`run.sh` runs the harness from there).
const TRACE_DIR: &str = "benchmark/out";

/// `machine.noise_ratio` outside this band marks a run as noisy.
const NOISE_BAND: std::ops::RangeInclusive<f64> = 0.85..=1.15;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2015u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name}; choose one of {}",
                names.join(", ")
            )
        })?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Rounds the untraced window is split into; each round runs on a freshly
/// generated copy of the input. Where a process's buffers land in memory
/// moves this machine's timings by 10-20 % for the life of the process;
/// regenerating spreads one run over several placements, and it spreads
/// the set-up samples over the run as well.
const ROUNDS: usize = 5;

/// Generate the input at least `min_reps` times, and on until `min_total_s`
/// of generation has been timed or `max_reps` is reached; every
/// generation's timings are appended to `gens` and the last input is
/// kept. Generations must agree: the input is a function of the seed.
fn set_up(
    args: &Args,
    gens: &mut Vec<GenStats>,
    min_reps: usize,
    min_total_s: f64,
    max_reps: usize,
) -> Input {
    let mut reps = 0;
    let mut total_s = 0.0;
    loop {
        let input = generate(&args.spec, args.seed, args.smoke);
        if let Some(first) = gens.first() {
            assert_eq!(
                (first.events_logged, first.events_collected),
                (input.stats.events_logged, input.stats.events_collected),
                "the same seed must generate the same input"
            );
        }
        gens.push(input.stats);
        reps += 1;
        total_s += input.stats.total_s;
        if reps >= min_reps && (total_s >= min_total_s || reps >= max_reps) {
            return input;
        }
    }
}

/// One workload's operation with its reference, ready to repeat on any
/// generation of the input.
struct Bench {
    kind: Kind,
    recon: Reconstructor,
    diagnoser: Diagnoser,
    /// *report* and *trace*: reference reports by packet.
    reference: HashMap<PacketId, PacketReport>,
    /// *stream*: the batch reference over the decoder's survivors.
    stream_reference: Option<StreamReference>,
    /// Selects the *trace* batch; callers advance it between operations.
    batch: usize,
    /// *stream*: reports of the latest operation that were not
    /// byte-identical to the batch reference.
    not_identical: u64,
}

impl Bench {
    /// Build the references, outside every timed region.
    fn new(kind: Kind, input: &Input) -> Bench {
        let (recon, diagnoser) = analysis_tools(&input.campaign);
        let sink = input.campaign.topology.sink();
        let mut reference = HashMap::new();
        let mut stream_ref = None;
        match kind {
            Kind::Report => {
                reference = reference_reports(&recon, &merge_logs(&input.campaign.collected));
            }
            Kind::Trace => {
                // Only the sampled packets are ever traced, so the
                // reference log is cut down to their events (merged order
                // kept) before the sequential reference driver runs.
                let wanted: HashSet<PacketId> = input.trace_sample.iter().copied().collect();
                let mut merged = merge_logs(&input.campaign.collected);
                merged.events.retain(|e| wanted.contains(&e.packet));
                reference = reference_reports(&recon, &merged);
            }
            Kind::Stream => {
                let framed = input.framed.as_ref().expect("stream input is framed");
                stream_ref = Some(stream_reference(&framed.bytes, sink));
            }
        }
        Bench {
            kind,
            recon,
            diagnoser,
            reference,
            stream_reference: stream_ref,
            batch: 0,
            not_identical: 0,
        }
    }

    /// Run the operation once on `input`; returns its wall time and the
    /// tally of its answers against the reference. The `warm_up` operation
    /// is also scored against ground truth, and as a *trace* operation it
    /// answers for the whole sample instead of one batch. Checking and
    /// scoring happen after the clock stops.
    fn run(
        &mut self,
        input: &mut Input,
        tracer: &Tracer,
        warm_up: bool,
    ) -> (f64, Tally, Option<Quality>) {
        let campaign = &mut input.campaign;
        match self.kind {
            Kind::Report => {
                let (out, secs) = time_once(|| tracer.span("op", || report_op(campaign, tracer)));
                let tally = check_report(&out, &self.reference, &self.recon, &self.diagnoser);
                let quality = warm_up.then_some(Quality {
                    flow: out.analysis.flow_score,
                    cause: out.analysis.cause_score,
                });
                campaign.merged = Default::default();
                (secs, tally, quality)
            }
            Kind::Trace => {
                let sample = &input.trace_sample;
                let ids = if warm_up {
                    &sample[..]
                } else {
                    let batches = sample.len().div_ceil(TRACE_BATCH).max(1);
                    let start = (self.batch % batches) * TRACE_BATCH;
                    &sample[start..(start + TRACE_BATCH).min(sample.len())]
                };
                let (traced, secs) = time_once(|| {
                    tracer.span("op", || {
                        trace_op(
                            &campaign.collected,
                            &self.recon,
                            &self.diagnoser,
                            ids,
                            tracer,
                        )
                    })
                });
                let tally = check_trace(&traced, &self.reference);
                let quality = warm_up.then(|| {
                    score_reports(traced.iter().map(|t| &t.report), campaign, &self.diagnoser)
                });
                (secs, tally, quality)
            }
            Kind::Stream => {
                let framed = input.framed.as_ref().expect("stream input is framed");
                let sink = campaign.topology.sink();
                let (summary, secs) = time_once(|| {
                    tracer.span("op", || stream_op_bytes(&framed.bytes, sink, tracer))
                });
                let reference = self
                    .stream_reference
                    .as_ref()
                    .expect("stream reference built");
                let (tally, not_identical) = check_stream(&summary, reference);
                self.not_identical = not_identical;
                let quality =
                    warm_up.then(|| score_reports(&summary.reports, campaign, &self.diagnoser));
                (secs, tally, quality)
            }
        }
    }
}

/// Repeat the operation back to back (closed loop, one at a time) until
/// `seconds` have passed and at least one operation ran; returns each
/// operation's wall seconds and the tally of all their answers.
fn measure_window(bench: &mut Bench, input: &mut Input, seconds: f64) -> (Vec<f64>, Tally) {
    let quiet = Tracer::off();
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (secs, t, _) = bench.run(input, &quiet, false);
        bench.batch += 1;
        walls.push(secs);
        tally.add(t);
    }
    (walls, tally)
}

/// The untraced run: every end-to-end metric.
///
/// The window is split into [`ROUNDS`] rounds; each generates the input
/// afresh (twice at least, and on until 0.4 s of set-up has been timed, at
/// most four times) and then repeats the operation for its share of the
/// window. `setup_s` and `op_wall_s` are the **median over the rounds of
/// the round's fastest** generation and operation. Noise on this machine
/// (steal, page reclaim) only ever adds time, in bursts of seconds: within
/// a round the fastest sample is the one least touched by it, and the
/// median across rounds discards a round that was lucky or wholly inside
/// a burst. Plain medians over all operations of a run moved 2-4 times as
/// much between runs of one commit.
fn run_end_to_end(args: &Args) -> (Vec<Metric>, Tally) {
    let (rounds, round_s, min_gens, max_gens) = if args.smoke {
        (1, 0.0, 1, 1)
    } else {
        (ROUNDS, args.seconds / ROUNDS as f64, 2, 4)
    };
    let mut gens = Vec::new();
    let mut round_setup_s = Vec::new();
    let mut round_input = |gens: &mut Vec<GenStats>| {
        let first_gen = gens.len();
        let input = set_up(args, gens, min_gens, 0.4, max_gens);
        let round_gens: Vec<f64> = gens[first_gen..].iter().map(|g| g.total_s).collect();
        round_setup_s.push(min(&round_gens));
        input
    };

    let mut input = round_input(&mut gens);
    println!(
        "# input: {} events logged, {} collected",
        input.stats.events_logged, input.stats.events_collected
    );
    let mut bench = Bench::new(args.spec.kind, &input);
    // Discarded warm-up; its answers are checked, and they are what is scored.
    let (_, mut tally, quality) = bench.run(&mut input, &Tracer::off(), true);
    let quality = quality.expect("the warm-up operation is scored");
    if bench.kind == Kind::Stream {
        println!(
            "# stream: {} of {} converged reports are not byte-identical to batch reconstruction",
            bench.not_identical, tally.attempted
        );
    }

    let mut yardstick = Yardstick::new();
    let memcpy_before = yardstick.gib_per_s();
    let mut walls = Vec::new();
    let mut round_op_s = Vec::new();
    for round in 0..rounds {
        if round > 0 {
            // At most one generation of the input is resident at a time.
            drop(input);
            input = round_input(&mut gens);
        }
        let (round_walls, round_tally) = measure_window(&mut bench, &mut input, round_s);
        round_op_s.push(min(&round_walls));
        walls.extend(round_walls);
        tally.add(round_tally);
    }

    let noise = yardstick.gib_per_s() / memcpy_before;
    let setups: Vec<f64> = gens.iter().map(|g| g.total_s).collect();
    for (what, v) in [("operation", &walls), ("set-up", &setups)] {
        println!(
            "# {what} wall seconds: n {} min {:.6} median {:.6} max {:.6}",
            v.len(),
            min(v),
            median(v),
            max(v)
        );
    }
    println!("# machine.noise_ratio {noise:.4} (memcpy yardstick after / before the rounds)");
    if !NOISE_BAND.contains(&noise) && !args.smoke {
        println!("# noisy: machine.noise_ratio outside {NOISE_BAND:?}");
    }

    let metrics = vec![
        metric("setup_s", median(&round_setup_s), "s"),
        metric("op_wall_s", median(&round_op_s), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("flow_precision", quality.flow.precision(), "ratio"),
        metric("flow_recall", quality.flow.recall(), "ratio"),
        metric("cause_accuracy", quality.cause.cause_accuracy(), "ratio"),
    ];
    (metrics, tally)
}

/// The traced run: every per-layer metric, and the span file.
fn run_traced(args: &Args) -> (Vec<Metric>, Tally) {
    let reps = if args.smoke { 1 } else { 3 };
    let mut gens = Vec::new();
    let mut input = set_up(args, &mut gens, reps, 0.0, reps);
    let gen_median = |f: fn(&GenStats) -> f64| median(&gens.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        metric("sim.simulate_s", gen_median(|g| g.simulate_s), "s"),
        metric(
            "sim.events_logged",
            input.stats.events_logged as f64,
            "count",
        ),
        metric("collect.collect_s", gen_median(|g| g.collect_s), "s"),
        metric(
            "collect.kept_ratio",
            input.stats.events_collected as f64 / input.stats.events_logged as f64,
            "ratio",
        ),
    ];
    let mut yardstick = Yardstick::new();
    let mut bench = Bench::new(args.spec.kind, &input);
    let quiet = Tracer::off();
    let tracer = Tracer::on();
    let (_, mut tally, _) = bench.run(&mut input, &quiet, true);

    // The operation, alternately untraced and traced (the same *trace*
    // batch for both members of a pair), for half the window; the other
    // half goes to the isolated layers below.
    let memcpy_before = yardstick.gib_per_s();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut cpu_s = 0.0;
    let t0 = Instant::now();
    let seconds = if args.smoke { 0.0 } else { args.seconds / 2.0 };
    while untraced.len() < reps || t0.elapsed().as_secs_f64() < seconds {
        let cpu0 = cpu_seconds();
        let (secs, t, _) = bench.run(&mut input, &quiet, false);
        cpu_s += cpu_seconds() - cpu0;
        untraced.push(secs);
        tally.add(t);
        tracer.set_rep(traced.len() as u32);
        let (secs, t, _) = bench.run(&mut input, &tracer, false);
        traced.push(secs);
        tally.add(t);
        bench.batch += 1;
    }

    metrics.extend(layers::measure_layers(
        &mut input.campaign,
        args.seed,
        reps,
        memcpy_before,
    ));
    let memcpy_after = yardstick.gib_per_s();

    metrics.extend([
        metric("machine.memcpy_gib_per_s", memcpy_before, "GiB/s"),
        metric("machine.noise_ratio", memcpy_after / memcpy_before, "ratio"),
        metric(
            "trace.overhead_ratio",
            median(&traced) / median(&untraced),
            "ratio",
        ),
        metric("trace.coverage", tracer.coverage("op"), "ratio"),
        metric("op.cpu_s", cpu_s / untraced.len() as f64, "s"),
        metric("op.wall_min_s", min(&untraced), "s"),
        metric("op.wall_max_s", max(&untraced), "s"),
        metric("op.reps", untraced.len() as f64, "count"),
    ]);

    println!(
        "# spans of the traced operation ({} repetitions):",
        traced.len()
    );
    println!(
        "# {:<28} {:>8} {:>12} {:>12}",
        "name", "calls", "total_s", "self_s"
    );
    for (name, t) in tracer.totals() {
        println!(
            "# {name:<28} {:>8} {:>12.6} {:>12.6}",
            t.calls, t.total_s, t.self_s
        );
    }
    std::fs::create_dir_all(TRACE_DIR).expect("trace directory can be created");
    let path = format!("{TRACE_DIR}/{}.trace.json", args.spec.name);
    std::fs::write(&path, tracer.to_json(args.spec.name, args.seed)).expect("trace file written");
    println!("# spans written to {path}");
    (metrics, tally)
}

/// The result object the benchmark contract asks for on the last line.
fn result_json(metrics: &[Metric], tally: Tally) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("refill-benchmark: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# workload {} seed {} trace {} threads {}{}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        if args.smoke { " (smoke scale)" } else { "" }
    );
    let (metrics, tally) = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    for m in &metrics {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations attempted {} failed {}",
        tally.attempted, tally.failed
    );
    println!("{}", result_json(&metrics, tally));
    if tally.failed > 0 {
        eprintln!(
            "refill-benchmark: {} of {} answers differ from the reference",
            tally.failed, tally.attempted
        );
        std::process::exit(1);
    }
}
