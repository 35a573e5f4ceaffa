//! The conformance property: for ANY seed and ANY fault rates, all six
//! driver paths converge on byte-identical reports over whatever records
//! survived the injected hostility — and the store lanes either surface
//! typed errors or recover to a durable prefix, never diverge silently.
//!
//! Every failure here is replayable from the seed and spec its message
//! prints (`refill soak --seed … --cases 1 --faults …`); proptest shrinks
//! toward the minimal seed/rate combination.

use proptest::prelude::*;
use refill::telemetry::NoopRecorder;
use refill_testkit::{run_case, ConformanceError, FaultPlan, FaultSpec};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

#[test]
fn preset_sweep_converges() {
    for spec in [FaultSpec::none(), FaultSpec::light(), FaultSpec::heavy()] {
        for seed in 0..10u64 {
            let plan = FaultPlan::new(seed, spec);
            if let Err(e) = run_case(&plan, &NoopRecorder) {
                panic!("{e}");
            }
        }
    }
}

#[test]
fn failure_messages_carry_a_replayable_command() {
    let err = ConformanceError {
        seed: 42,
        spec: FaultSpec::light(),
        driver: "stream",
        detail: "synthetic".into(),
    };
    let msg = err.to_string();
    assert!(msg.contains("refill soak --seed 42 --cases 1 --faults "), "{msg}");
    // The printed spec parses back to the spec that failed.
    let faults = msg.rsplit("--faults ").next().unwrap().trim();
    assert_eq!(FaultSpec::parse(faults).unwrap(), err.spec);
}

fn spec_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        (0.0f64..=0.25, 0.0f64..=0.6, 0.0f64..=0.15),
        (0.0f64..=0.5, 0.0f64..=0.7),
        (0.0f64..=0.25, 0.0f64..=0.25, 0.0f64..=0.25),
        0u64..=4_000_000_000,
        (0.0f64..=0.15, 0.0f64..=0.5),
    )
        .prop_map(
            |(
                (frame_corrupt, frame_truncate, frame_garbage),
                (reader_error, reader_stall),
                (store_write, store_sync, store_rename),
                clock_skew_us,
                (dup_records, late_records),
            )| FaultSpec {
                frame_corrupt,
                frame_truncate,
                frame_garbage,
                reader_error,
                reader_stall,
                store_write,
                store_sync,
                store_rename,
                clock_skew_us,
                dup_records,
                late_records,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(),
        ..ProptestConfig::default()
    })]

    /// THE acceptance property: (scenario, fault plan) pairs drawn across
    /// the whole rate space, every one converging across all six paths.
    #[test]
    fn any_fault_plan_converges(seed in any::<u64>(), spec in spec_strategy()) {
        let plan = FaultPlan::new(seed, spec);
        if let Err(e) = run_case(&plan, &NoopRecorder) {
            prop_assert!(false, "{}", e);
        }
    }
}
