//! What `citysee::analyze` holds beside the campaign it reads.
//!
//! The campaign already holds the merged log and the ground truth; the
//! analysis groups both as row numbers and gathers one packet's events at a
//! time, so its heap high-water above what was live when it started stays
//! far below one more copy of those two arrays.
//!
//! A test binary of its own with one test in it: the high-water mark is the
//! whole process's.

use citysee::{analyze, run_scenario, Scenario};
use std::mem::size_of_val;

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

/// Heap bytes `analyze` may hold above what was live when it started.
const BOUND: usize = 1_800_000;

#[test]
fn analyze_keeps_no_second_copy_of_its_inputs() {
    let campaign = run_scenario(&Scenario::small());
    let copies = size_of_val(campaign.merged.events.as_slice())
        + size_of_val(campaign.sim.truth.events.as_slice());

    netsim::alloc::reset_peak();
    let start = netsim::alloc::live_bytes();
    let analysis = analyze(&campaign);
    let high_water = netsim::alloc::peak_bytes() - start;
    assert_eq!(analysis.records.len(), campaign.sim.truth.packet_count());

    println!("analyze: high-water {high_water} B above start; the two copies {copies} B");
    // Measured 1.47 MB on two workers, 1.22 on one, 1.49 on 64. A grouping
    // that copied the merged log and the truth would need 2.24 MB for the
    // copies alone.
    assert!(copies > BOUND, "{copies} B of copies");
    assert!(
        high_water <= BOUND,
        "{high_water} B above start (bound {BOUND})"
    );
}
