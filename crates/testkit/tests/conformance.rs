//! The conformance property: for ANY seed and ANY fault rates, all five
//! driver paths converge on byte-identical reports over whatever records
//! survived the injected hostility, and a reader fault surfaces as an error
//! after the stream converged on the decodable prefix.
//!
//! Every failure here is replayable from the seed and spec its message
//! prints (`refill soak --seed … --cases 1 --faults …`), and from the
//! property runner's own case seed.

use netsim::prop::check;
use netsim::Rng;
use refill::telemetry::NoopRecorder;
use refill_testkit::{run_case, ConformanceError, FaultPlan, FaultSpec};

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

/// A spec drawn across the whole rate space.
fn arb_spec(rng: &mut Rng) -> FaultSpec {
    FaultSpec {
        frame_corrupt: rng.gen_range(0.0..=0.25),
        frame_truncate: rng.gen_range(0.0..=0.6),
        frame_garbage: rng.gen_range(0.0..=0.15),
        reader_error: rng.gen_range(0.0..=0.5),
        reader_stall: rng.gen_range(0.0..=0.7),
        clock_skew_us: rng.gen_range(0..=4_000_000_000),
        dup_records: rng.gen_range(0.0..=0.15),
        late_records: rng.gen_range(0.0..=0.5),
    }
}

/// THE acceptance property: (scenario, fault plan) pairs drawn across
/// the whole rate space, every one converging across all five paths.
///
/// Conformance failures minimize further than a case seed: every
/// `ConformanceError` prints a standalone `refill soak --seed N --cases 1
/// --faults SPEC` line. When pinning a seed in the regression list below,
/// record that command beside it so the case stays reproducible even if
/// `arb_spec` changes shape.
#[test]
fn any_fault_plan_converges() {
    check("any_fault_plan_converges", 24, &[], |rng| {
        let plan = FaultPlan::new(rng.gen(), arb_spec(rng));
        if let Err(e) = run_case(&plan, &NoopRecorder) {
            panic!("{e}");
        }
    });
}
