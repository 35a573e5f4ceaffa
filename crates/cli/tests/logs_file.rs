//! The one log file through the `refill` binary: every frame of a damaged
//! file is accounted for, and a file without a single record is refused
//! with an error, not a panic.

use citysee::{run_scenario, Scenario};
use eventlog::frame::encode_records;
use netsim::json::{self, Json};
use refill_testkit::TempDir;
use std::io::Write;
use std::process::{Command, Output, Stdio};

fn refill(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_refill"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("refill starts");
    child.stdin.take().unwrap().write_all(stdin).unwrap();
    child.wait_with_output().expect("refill runs")
}

/// A simulated day's log file with garbage spliced in at three offsets,
/// two of them inside a frame.
fn damaged_day() -> Vec<u8> {
    let campaign = run_scenario(&Scenario {
        days: 1,
        ..Scenario::small()
    });
    let mut bytes = encode_records(&campaign.upload_records());
    for at in [bytes.len() / 4, bytes.len() / 2 + 7, 3 * bytes.len() / 4 + 13] {
        bytes.splice(at..at, *b"\x00garbage\xEF\x17\xEF");
    }
    bytes
}

#[test]
fn every_frame_decoded_is_a_logged_event_and_the_damage_is_reported() {
    let dir = TempDir::new("cli-damaged-logs");
    let logs = dir.path().join("damaged.frames");
    std::fs::write(&logs, damaged_day()).unwrap();
    let tele = dir.path().join("t.json");
    let out = refill(
        &[
            "analyze",
            "--logs",
            logs.to_str().unwrap(),
            "--sink",
            "0",
            "--telemetry",
            tele.to_str().unwrap(),
        ],
        b"",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    let snapshot = json::parse(&std::fs::read(&tele).unwrap()).unwrap();
    let named = |section: &str, name: &str| -> Json {
        let rows = snapshot[section].as_array().unwrap();
        let row = rows.iter().find(|r| r["name"].as_str() == Some(name));
        row.unwrap_or_else(|| panic!("no {name} in {section}")).clone()
    };
    let decoded = named("counters", "frames_decoded")["value"].as_u64().unwrap();
    let corrupt = named("counters", "frames_corrupt")["value"].as_u64().unwrap();
    assert_eq!(named("histograms", "node_log_events")["sum"].as_u64(), Some(decoded));
    assert!(corrupt > 0 && corrupt <= 3, "{corrupt} corrupt runs");
    let line = format!("{decoded} frames decoded, {corrupt} corrupt runs skipped");
    assert!(stderr.contains(&line), "{line:?} not in: {stderr}");
}

#[test]
fn a_file_without_a_record_is_an_error_not_a_panic() {
    let dir = TempDir::new("cli-empty-logs");
    let empty = dir.path().join("empty.frames");
    std::fs::write(&empty, b"").unwrap();
    for (path, stdin) in [
        (empty.to_str().unwrap(), &b""[..]),
        ("-", &b"no frame in here at all"[..]),
    ] {
        for cmd in ["analyze", "trace", "profile"] {
            let mut args = vec![cmd, "--logs", path];
            if cmd == "trace" {
                args.extend(["--packet", "1:0"]);
            }
            let out = refill(&args, stdin);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {path}: {stderr}");
            assert!(stderr.contains("no log records decoded"), "{cmd} {path}: {stderr}");
        }
    }
    // A directory is read as its logs.frames.
    let out = refill(&["analyze", "--logs", dir.path().to_str().unwrap()], b"");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("logs.frames"), "{stderr}");
}
