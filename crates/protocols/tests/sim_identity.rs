//! What `Simulator::run` produces is pinned, not just its shape: a 64-bit
//! digest over every log entry, every truth event, every fate and path, the
//! counters, the energy ledger and the clocks of three campaigns, frozen on
//! the commit before the scheduler got its FIFO lanes. The event queue, the
//! counters and every handler sit under it; `citysee`'s `analysis_identity`
//! pins the same campaigns through `analyze`, this one points at the
//! simulator when it breaks. Below it, the shape of one cost: counting on
//! a name the set already holds does not reach the allocator.

use citysee::Scenario;
use eventlog::{EventKind, TruthEvent};
use netsim::metrics::CounterSet;
use netsim::SimDuration;
use protocols::sim::{SimOutput, Simulator};
use protocols::SimConfig;
use std::fmt::Debug;

// --- frozen digests ------------------------------------------------------

/// FNV-1a over the `Debug` rendering of whatever it is fed: every type in
/// [`SimOutput`] derives `Debug`, so nothing a reader of it can see stays
/// out of the digest.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, what: &dyn Debug) {
        for b in format!("{what:?}\n").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(out: &SimOutput) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.feed(&out.logs.len());
    for log in &out.logs {
        h.feed(&(log.node, log.entries.len()));
        for entry in &log.entries {
            h.feed(&(entry.event, entry.local_ts));
        }
    }
    h.feed(&out.truth.events.len());
    for event in &out.truth.events {
        h.feed(event);
    }
    // The two maps hash by packet id; their iteration order is not output.
    let mut ids: Vec<_> = out.truth.fates.keys().copied().collect();
    ids.sort_unstable();
    h.feed(&(ids.len(), out.truth.paths.len()));
    for id in ids {
        h.feed(&(id, out.truth.fates[&id], out.truth.paths.get(&id)));
    }
    h.feed(&out.counters);
    h.feed(&out.energy);
    h.feed(&out.clocks);
    h.0
}

fn simulate(scenario: &Scenario, tweak: impl FnOnce(&mut SimConfig)) -> SimOutput {
    let (topology, table, faults, mut config) = scenario.build();
    tweak(&mut config);
    Simulator::new(topology, table, faults, config).run()
}

/// Frozen on the parent of the commit that introduced this file.
const SMALL_DIGEST: u64 = 0x2c7f_fa6a_b6fc_21ff;
const LOSSY_DIGEST: u64 = 0xece4_fd25_8581_939a;
const HANDLERS_DIGEST: u64 = 0xf3b9_6942_bd5c_12ab;

#[test]
fn small_campaign_is_the_frozen_one() {
    let got = digest(&simulate(&Scenario::small(), |_| {}));
    assert_eq!(got, SMALL_DIGEST, "small {got:#018x}");
}

/// The logger settings of the benchmark's `citysee-lossy` workload: failed
/// writes draw from the node streams, so every later draw shifts.
#[test]
fn lossy_logger_campaign_is_the_frozen_one() {
    let mut scenario = Scenario::small();
    scenario.logger.write_failure_prob = 0.05;
    scenario.logger.timestamps = false;
    let got = digest(&simulate(&scenario, |_| {}));
    assert_eq!(got, LOSSY_DIGEST, "lossy {got:#018x}");
}

/// The handlers no CitySee preset reaches: reboots (random delays), software
/// acknowledgements, `enqueue` logging, and generation without jitter, where
/// every node's `Gen` falls on the same instants at one constant delay.
#[test]
fn reboot_software_ack_campaign_is_the_frozen_one() {
    let out = simulate(&Scenario::small(), |config| {
        config.reboot_mean_interval = Some(SimDuration::from_secs(90));
        config.software_ack = true;
        config.packet_jitter = 0.0;
        config.log_enqueue = true;
    });
    assert!(out.counters.get("reboots") > 0, "{:?}", out.counters);
    let enqueued = |te: &&TruthEvent| matches!(te.event.kind, EventKind::Enqueue);
    assert!(out.truth.events.iter().filter(enqueued).count() > 1_000);
    let got = digest(&out);
    assert_eq!(got, HANDLERS_DIGEST, "handlers {got:#018x}");
}

// --- the shape of the cost -----------------------------------------------

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

fn requests_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, requests) = netsim::alloc::requested_by(f);
    (out, requests.calls)
}

#[test]
fn counting_on_a_known_name_does_not_allocate() {
    let mut counters = CounterSet::new();
    // First use of a name inserts it, and pays for its key.
    let ((), first) = requests_of(|| counters.incr("transmissions"));
    assert!(first > 0);
    assert_eq!(counters.get("transmissions"), 1);
    // (It was one request for a `String` on each of these.)
    let ((), later) = requests_of(|| {
        for _ in 0..10_000 {
            counters.incr("transmissions");
        }
        counters.add("transmissions", 5);
    });
    assert_eq!(later, 0, "10 001 updates of an existing counter");
    assert_eq!(counters.get("transmissions"), 10_006);

    // Name order, merging and equality are what they were.
    counters.add("generated", 3);
    counters.add("delivered", 0);
    let listed: Vec<(&str, u64)> = counters.iter().collect();
    assert_eq!(listed, [("delivered", 0), ("generated", 3), ("transmissions", 10_006)]);
    let mut other = CounterSet::new();
    other.add("generated", 4);
    other.add("reboots", 1);
    other.merge(&counters);
    assert_eq!(other.get("generated"), 7);
    assert_eq!(other.iter().count(), 4);
    let mut same = CounterSet::new();
    for (name, value) in other.iter() {
        same.add(name, value);
    }
    assert_eq!(same, other);
    same.incr("reboots");
    assert_ne!(same, other);
}
