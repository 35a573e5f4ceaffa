//! `refill query`.

use super::{FlagSpec, Flags};
use citysee::Scenario;
use netsim::json;
use netsim::NodeId;
use std::path::PathBuf;

pub(super) const FLAGS: FlagSpec = FlagSpec {
    cmd: "query",
    values: &[
        "store",
        "origin",
        "seqno",
        "since",
        "until",
        "cause",
        "disposition",
        "fig",
    ],
    switches: &["stats"],
};

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
    use refill_store::{latest_per_packet, Query, SegmentStore};
    let flags = Flags::parse(args, &FLAGS)?;
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
    let (event_rows, report_rows) = (result.events.len(), result.reports.len());
    let latest = latest_per_packet(result.reports);

    if let Some(figure) = flags.get("fig") {
        let records = latest
            .iter()
            .map(|row| {
                let sidecar = row.sidecar.clone().ok_or_else(|| {
                    format!("report row for {} has no diagnosis sidecar", row.report.packet)
                })?;
                Ok(citysee::PacketRecord {
                    packet: row.report.packet,
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
                scenario
                    .validate()
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Ok(figs::render_fig8_csv(&figs::fig8_from_records(
                    &records,
                    &scenario.topology(),
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
        "matched {event_rows} event rows and {report_rows} report rows ({} packets)",
        latest.len()
    );
    // Loss-cause table over the converged view, mirroring `analyze`.
    let lost: Vec<_> = latest
        .iter()
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
