//! Clocks, order statistics and the machine yardsticks.

use std::hint::black_box;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Wall seconds of one call.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall seconds of `reps` calls after one discarded warm-up,
/// plus the last call's result.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    black_box(f());
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, s) = time_once(&mut f);
        secs.push(s);
        last = Some(out);
    }
    (last.expect("reps >= 1"), median(&secs))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line present");
    kib / 1024.0
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th overall, in clock ticks (USER_HZ is 100 on Linux).
    let rest = &stat[stat.rfind(')').expect("comm field present") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / 100.0
}

/// Machine memory-bandwidth yardstick (ROADMAP item 2(c): merge and pack
/// rates are read against it): copy a 16 MiB buffer and sum the copy.
///
/// The two buffers are allocated once and reused, so a reading taken
/// after the workload touches the same pages as the one taken before it;
/// with fresh allocations the allocator's state after the workload moved
/// the second reading by 15–20 % on its own.
pub struct Yardstick {
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    const WORDS: usize = (16 << 20) / 8;

    pub fn new() -> Yardstick {
        Yardstick {
            src: (0..Self::WORDS as u64).collect(),
            dst: vec![0; Self::WORDS],
        }
    }

    /// GiB/s of buffer copied and summed, best of 40: single copies swing
    /// by 2x on a shared machine, the best of 40 by a few percent.
    pub fn gib_per_s(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..40 {
            let ((), s) = time_once(|| {
                self.dst.copy_from_slice(black_box(&self.src));
                black_box(self.dst.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
            });
            best = best.min(s);
        }
        (Self::WORDS * 8) as f64 / best / (1u64 << 30) as f64
    }
}
