//! The §V-D implications, quantified.
//!
//! Two design questions the paper raises from REFILL's results, run as
//! controlled experiments on the substrate:
//!
//! 1. **Node loss vs link loss (§V-D.3)** — "with up to 30 retransmissions
//!    for each packet, packet losses due to low link quality become very
//!    low". Sweep the retry budget and watch timeout (link) losses vanish
//!    while node losses — and the energy bill — remain.
//! 2. **ACK mechanism (§V-D.5)** — hardware ACKs lose hardware-acked
//!    packets inside the receiver; software ACKs retry them instead, at
//!    the cost of extra transmissions ("this will introduce delay for the
//!    ACK, which decreases the transmission efficiency").

use citysee::Scenario;
use eventlog::LossCause;
use netsim::link::LinkModel;
use protocols::sim::Simulator;

fn run_with(
    scenario: &Scenario,
    tweak: impl FnOnce(&mut protocols::SimConfig),
) -> protocols::sim::SimOutput {
    let (topology, table, faults, mut config) = scenario.build();
    tweak(&mut config);
    let _ = LinkModel::build_table; // (table built by scenario)
    Simulator::new(topology, table, faults, config).run()
}

fn main() {
    let mut scenario = bench::scenario_from_env().unwrap_or_else(|e| bench::exit_with(&e));
    if std::env::var("REFILL_DAYS").is_err() {
        scenario.days = scenario.days.min(6);
    }

    // --- 1. Retry-budget sweep -------------------------------------------
    println!("§V-D.3 — node loss vs link loss (retry budget sweep):");
    println!(
        "{:>8} {:>10} {:>13} {:>12} {:>10} {:>14}",
        "retries", "delivery", "timeout-loss", "node-loss", "mean-retx", "energy (J)"
    );
    let mut csv = String::from("max_retries,delivery,timeout_share,node_share,retx,energy_j\n");
    for retries in [1u32, 3, 10, 30] {
        let out = run_with(&scenario, |c| c.max_retries = retries);
        let by_cause = out.truth.losses_by_cause();
        let lost: usize = by_cause.values().sum();
        let share = |c: LossCause| {
            100.0 * by_cause.get(&c).copied().unwrap_or(0) as f64 / lost.max(1) as f64
        };
        let timeout_share = share(LossCause::TimeoutLoss);
        let node_share = share(LossCause::ReceivedLoss) + share(LossCause::AckedLoss);
        let retx = out.counters.get("retransmissions") as f64
            / out.counters.get("generated").max(1) as f64;
        let energy_j = out.energy.network_total_mj() / 1e3;
        println!(
            "{:>8} {:>9.1}% {:>12.1}% {:>11.1}% {:>10.2} {:>14.1}",
            retries,
            100.0 * out.truth.delivery_ratio(),
            timeout_share,
            node_share,
            retx,
            energy_j
        );
        csv.push_str(&format!(
            "{retries},{:.4},{:.4},{:.4},{:.4},{:.1}\n",
            out.truth.delivery_ratio(),
            timeout_share / 100.0,
            node_share / 100.0,
            retx,
            energy_j
        ));
    }
    bench::write_artifact("implications_retries.csv", &csv);

    // --- 2. Hardware vs software ACK -------------------------------------
    println!("\n§V-D.5 — ACK mechanism:");
    println!(
        "{:>10} {:>10} {:>12} {:>14} {:>14}",
        "ack", "delivery", "acked-losses", "transmissions", "energy (J)"
    );
    let mut csv = String::from("ack,delivery,acked_losses,transmissions,energy_j\n");
    for (name, software) in [("hardware", false), ("software", true)] {
        let out = run_with(&scenario, |c| c.software_ack = software);
        let acked = out
            .truth
            .losses_by_cause()
            .get(&LossCause::AckedLoss)
            .copied()
            .unwrap_or(0);
        println!(
            "{:>10} {:>9.1}% {:>12} {:>14} {:>14.1}",
            name,
            100.0 * out.truth.delivery_ratio(),
            acked,
            out.counters.get("transmissions"),
            out.energy.network_total_mj() / 1e3
        );
        csv.push_str(&format!(
            "{name},{:.4},{acked},{},{:.1}\n",
            out.truth.delivery_ratio(),
            out.counters.get("transmissions"),
            out.energy.network_total_mj() / 1e3
        ));
    }
    bench::write_artifact("implications_ack.csv", &csv);
    println!(
        "\nsoftware ACKs convert acked losses into retransmissions — better delivery,\n\
         more channel use; the paper's predicted trade-off."
    );
}
