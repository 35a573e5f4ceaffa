//! Fault plans: what to break, how often, and from which seed.
//!
//! A [`FaultSpec`] holds the per-boundary fault rates; a [`FaultPlan`]
//! binds a spec to a seed. Everything downstream — which frame gets a
//! burst, where the reader dies, which write tears — is a pure function
//! of the plan, so any failure reproduces from the printed seed and spec
//! alone.

use netsim::{Rng, RngFactory};

/// Per-boundary fault rates. All probabilities are per-opportunity (per
/// frame, per record, per filesystem operation), in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-frame probability of a ≤ 4-byte XOR burst. CRC-32 detects every
    /// burst of ≤ 32 bits, so a corrupted frame is always *detected*
    /// corruption, never a silently altered record.
    pub frame_corrupt: f64,
    /// Probability the encoded stream is truncated mid-record at a seeded
    /// point (the tail becomes one corrupt run at EOF).
    pub frame_truncate: f64,
    /// Per-boundary probability of injecting a run of garbage bytes
    /// between frames.
    pub frame_garbage: f64,
    /// Probability the stream reader fails with an IO error after a
    /// seeded prefix (exercises flush-the-prefix-then-surface).
    pub reader_error: f64,
    /// Probability the reader delivers pathologically small chunks
    /// (channel stalls / backpressure on the ingest side).
    pub reader_stall: f64,
    /// Per-write probability of a torn write in the store (a prefix of
    /// the buffer lands, then an error surfaces).
    pub store_write: f64,
    /// Per-fsync probability of failure in the store.
    pub store_sync: f64,
    /// Per-rename probability of failure (manifest commit).
    pub store_rename: f64,
    /// Maximum per-node clock-skew magnitude, in microseconds, applied as
    /// a constant offset to every timestamp a node logs.
    pub clock_skew_us: u64,
    /// Per-entry probability a node's log entry is duplicated in place
    /// (retransmission double-logging).
    pub dup_records: f64,
    /// Per-round probability a node withholds its next record for a few
    /// upload rounds (late/straggling records in the interleave).
    pub late_records: f64,
}

impl FaultSpec {
    /// No faults at all — the conformance baseline.
    pub fn none() -> FaultSpec {
        FaultSpec {
            frame_corrupt: 0.0,
            frame_truncate: 0.0,
            frame_garbage: 0.0,
            reader_error: 0.0,
            reader_stall: 0.0,
            store_write: 0.0,
            store_sync: 0.0,
            store_rename: 0.0,
            clock_skew_us: 0,
            dup_records: 0.0,
            late_records: 0.0,
        }
    }

    /// Occasional faults at every boundary.
    pub fn light() -> FaultSpec {
        FaultSpec {
            frame_corrupt: 0.02,
            frame_truncate: 0.1,
            frame_garbage: 0.01,
            reader_error: 0.1,
            reader_stall: 0.2,
            store_write: 0.02,
            store_sync: 0.02,
            store_rename: 0.02,
            clock_skew_us: 2_000_000,
            dup_records: 0.02,
            late_records: 0.1,
        }
    }

    /// A hostile environment: frequent faults everywhere.
    pub fn heavy() -> FaultSpec {
        FaultSpec {
            frame_corrupt: 0.15,
            frame_truncate: 0.5,
            frame_garbage: 0.1,
            reader_error: 0.4,
            reader_stall: 0.6,
            store_write: 0.15,
            store_sync: 0.15,
            store_rename: 0.15,
            clock_skew_us: 3_600_000_000, // an hour of skew
            dup_records: 0.1,
            late_records: 0.4,
        }
    }

    /// Parse a spec string: a preset name (`none` | `light` | `heavy`),
    /// optionally followed by comma-separated `key=value` overrides, or
    /// overrides alone (over `none`).
    ///
    /// Keys: `frame` (corrupt), `truncate`, `garbage`, `reader`, `stall`,
    /// `store` (write), `sync`, `rename`, `skew` (µs), `dup`, `late`.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::none();
        for (i, part) in spec.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part {
                "none" | "light" | "heavy" if i == 0 => {
                    out = match part {
                        "none" => FaultSpec::none(),
                        "light" => FaultSpec::light(),
                        _ => FaultSpec::heavy(),
                    };
                    continue;
                }
                _ => {}
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec item '{part}' (want key=value)"))?;
            let prob = || -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad value '{value}' for {key}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("{key} must be in [0, 1], got {value}"));
                }
                Ok(v)
            };
            match key {
                "frame" => out.frame_corrupt = prob()?,
                "truncate" => out.frame_truncate = prob()?,
                "garbage" => out.frame_garbage = prob()?,
                "reader" => out.reader_error = prob()?,
                "stall" => out.reader_stall = prob()?,
                "store" => out.store_write = prob()?,
                "sync" => out.store_sync = prob()?,
                "rename" => out.store_rename = prob()?,
                "dup" => out.dup_records = prob()?,
                "late" => out.late_records = prob()?,
                "skew" => {
                    out.clock_skew_us = value
                        .parse()
                        .map_err(|_| format!("bad value '{value}' for skew (want µs)"))?;
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(out)
    }

    /// The canonical `key=value` rendering `parse` accepts back.
    pub fn render(&self) -> String {
        format!(
            "frame={},truncate={},garbage={},reader={},stall={},store={},sync={},rename={},skew={},dup={},late={}",
            self.frame_corrupt,
            self.frame_truncate,
            self.frame_garbage,
            self.reader_error,
            self.reader_stall,
            self.store_write,
            self.store_sync,
            self.store_rename,
            self.clock_skew_us,
            self.dup_records,
            self.late_records,
        )
    }
}

/// A spec bound to a seed: the complete, replayable description of one
/// faulty run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed every fault decision derives from.
    pub seed: u64,
    /// The fault rates.
    pub spec: FaultSpec,
}

impl FaultPlan {
    /// Bind `spec` to `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan { seed, spec }
    }

    /// The independent RNG stream for one fault lane (`"scenario"`,
    /// `"frames"`, `"reader"`, `"store"`, …).
    pub fn lane(&self, tag: &str) -> Rng {
        RngFactory::new(self.seed).stream(tag, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(FaultSpec::parse("none").unwrap(), FaultSpec::none());
        assert_eq!(FaultSpec::parse("light").unwrap(), FaultSpec::light());
        assert_eq!(FaultSpec::parse("heavy").unwrap(), FaultSpec::heavy());
    }

    #[test]
    fn overrides_compose_with_presets() {
        let s = FaultSpec::parse("light,frame=0.5,skew=123").unwrap();
        assert_eq!(s.frame_corrupt, 0.5);
        assert_eq!(s.clock_skew_us, 123);
        assert_eq!(s.reader_error, FaultSpec::light().reader_error);
    }

    #[test]
    fn render_roundtrips() {
        for spec in [FaultSpec::none(), FaultSpec::light(), FaultSpec::heavy()] {
            assert_eq!(FaultSpec::parse(&spec.render()).unwrap(), spec);
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultSpec::parse("frame").is_err());
        assert!(FaultSpec::parse("frame=2.0").is_err());
        assert!(FaultSpec::parse("bogus=0.1").is_err());
        assert!(FaultSpec::parse("frame=x").is_err());
    }

    #[test]
    fn lanes_are_independent_and_replayable() {
        let plan = FaultPlan::new(99, FaultSpec::light());
        assert_eq!(plan.lane("frames").next_u64(), plan.lane("frames").next_u64());
        assert_ne!(plan.lane("frames").next_u64(), plan.lane("reader").next_u64());
    }
}
