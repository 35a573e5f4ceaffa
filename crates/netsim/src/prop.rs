//! The workspace's one property runner: seeded cases, replayable by seed.
//!
//! A property is a closure that draws its inputs from the [`Rng`] it is
//! handed and asserts. [`check`] runs it on the listed regression seeds
//! first and then on `cases` fresh ones, case `i` of the property `name`
//! seeded with `mix(fnv1a(name) ^ i)` — a function of the name and the
//! index only, so a run is the same on every machine and a new property
//! never shifts another's cases. The case count is the `PROPTEST_CASES`
//! environment variable when set, else the count the call site asks for.
//!
//! There is no shrinking. A failing case is re-raised with its `u64` seed
//! and the literal to paste into that call's regression list, which pins
//! the case for good — the `refill soak --seed` discipline.

use crate::rng::{fnv1a, mix, Rng, FNV_OFFSET};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A vector of `len` (drawn first) items, each drawn by `item`.
pub fn vec_of<T>(rng: &mut Rng, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    (0..rng.gen_range(len)).map(|_| item(rng)).collect()
}

/// The seed of case `i` of the property `name`.
fn case_seed(name: &str, i: u64) -> u64 {
    mix(fnv1a(FNV_OFFSET, name.as_bytes()) ^ i)
}

/// Run `property` on every seed in `regressions`, then on `cases` derived
/// seeds (`PROPTEST_CASES` overrides `cases`). Panics with the seed of the
/// first failing case.
pub fn check(name: &str, cases: u64, regressions: &[u64], property: impl Fn(&mut Rng)) {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    let derived = (0..cases).map(|i| case_seed(name, i));
    for seed in regressions.iter().copied().chain(derived) {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed))));
        if let Err(payload) = outcome {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            panic!(
                "property `{name}` failed on seed {seed:#018x}: {why}\n  \
                 to pin this case, add {seed:#018x} to the regression list of check(\"{name}\", ..)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn failure_of(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the property must fail");
        payload
            .downcast_ref::<String>()
            .expect("a formatted message")
            .clone()
    }

    #[test]
    fn a_failing_property_reports_a_seed_that_replays_the_failure() {
        let property = |rng: &mut Rng| {
            let v = rng.gen_range(0..4u32);
            assert!(v != 3, "drew {v}");
        };
        let msg = failure_of(|| check("deliberately_failing", 64, &[], property));
        assert!(
            msg.contains("property `deliberately_failing` failed on seed 0x"),
            "{msg}"
        );
        assert!(
            msg.contains("drew 3"),
            "the property's own message survives: {msg}"
        );
        let hex = msg.split("seed 0x").nth(1).expect("seed printed");
        let seed = u64::from_str_radix(&hex[..16], 16).expect("sixteen hex digits");
        assert!(
            msg.contains(&format!("add {seed:#018x} to the regression list")),
            "{msg}"
        );

        // Pasted into the regression list, the seed fails the same way, and
        // first: no derived case runs before it.
        let runs = AtomicU64::new(0);
        let replay = failure_of(|| {
            check("deliberately_failing", 64, &[seed], |rng| {
                runs.fetch_add(1, Ordering::Relaxed);
                property(rng)
            })
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert!(
            replay.contains(&format!("{seed:#018x}")) && replay.contains("drew 3"),
            "{replay}"
        );
    }

    #[test]
    fn the_case_count_is_the_call_sites_unless_proptest_cases_is_set() {
        let runs = AtomicU64::new(0);
        check("counting", 17, &[1, 2], |_| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        let derived = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(17);
        assert_eq!(runs.load(Ordering::Relaxed), 2 + derived);
    }

    #[test]
    fn seeds_depend_on_the_name_and_the_index_only() {
        assert_eq!(case_seed("a", 0), case_seed("a", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        let seen = std::sync::Mutex::new(Vec::new());
        check("a", 3, &[], |rng| seen.lock().unwrap().push(rng.clone()));
        let want: Vec<Rng> = (0..3).map(|i| Rng::new(case_seed("a", i))).collect();
        if std::env::var_os("PROPTEST_CASES").is_none() {
            assert_eq!(*seen.lock().unwrap(), want);
        }
    }
}
