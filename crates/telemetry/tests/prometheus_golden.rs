//! Golden-file check on the Prometheus text exposition.
//!
//! The exposition is a wire contract: a metric or stage rename, a
//! reordered family, or a bucket-format change silently breaks every
//! dashboard scraping it. This test pins the full output — all counters,
//! all stage families, all histograms, including the zero-valued ones —
//! against a checked-in golden file, so any name/label drift fails the
//! build with a readable diff.
//!
//! The recorder setup is fully deterministic: exact counter increments and
//! exact stage nanoseconds (no timers), so the rendering is byte-stable
//! across runs and machines.

use refill_telemetry::{AtomicRecorder, Counter, Hist, Recorder, Stage};

const GOLDEN: &str = include_str!("golden/prometheus.txt");

fn deterministic_snapshot_text() -> String {
    let rec = AtomicRecorder::new();
    rec.add(Counter::CacheHits, 3);
    rec.add(Counter::EventsInferred, 7);
    rec.record_stage(Stage::Index, 1_500);
    rec.record_stage(Stage::Transition, 2_500);
    rec.observe(Hist::FlowEntries, 0);
    rec.observe(Hist::FlowEntries, 3);
    rec.observe(Hist::FlowEntries, 9);
    rec.snapshot().render_prometheus()
}

#[test]
fn exposition_matches_golden_file() {
    let rendered = deterministic_snapshot_text();
    if rendered != GOLDEN {
        // Line through the first divergence for a readable failure.
        for (i, (got, want)) in rendered.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "prometheus exposition drifted at line {} — if intentional, \
                 regenerate crates/telemetry/tests/golden/prometheus.txt",
                i + 1
            );
        }
        // Same prefix, different length.
        panic!(
            "prometheus exposition length drifted: {} rendered lines vs {} golden lines",
            rendered.lines().count(),
            GOLDEN.lines().count()
        );
    }
}

#[test]
fn golden_file_covers_every_metric_family() {
    // Belt and braces: the golden file itself must mention every counter,
    // stage, and histogram, so deleting a family from the renderer cannot
    // slip through via a stale golden file.
    for c in Counter::ALL {
        assert!(
            GOLDEN.contains(&format!("refill_{} ", c.name())),
            "golden file missing counter {}",
            c.name()
        );
    }
    for s in Stage::ALL {
        assert!(
            GOLDEN.contains(&format!("refill_stage_{}_calls ", s.name())),
            "golden file missing stage {}",
            s.name()
        );
        assert!(
            GOLDEN.contains(&format!("refill_stage_{}_ns_total ", s.name())),
            "golden file missing stage total {}",
            s.name()
        );
    }
    for h in Hist::ALL {
        assert!(
            GOLDEN.contains(&format!("# TYPE refill_{} histogram", h.name())),
            "golden file missing histogram {}",
            h.name()
        );
        assert!(
            GOLDEN.contains(&format!("refill_{}_count ", h.name())),
            "golden file missing histogram count {}",
            h.name()
        );
    }
}
