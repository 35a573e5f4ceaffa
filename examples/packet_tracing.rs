//! Per-packet tracing over a simulated deployment.
//!
//! Runs a small CitySee-like campaign, then prints detailed traces — the
//! paper's "event flows" — for a handful of interesting packets: one
//! delivered end-to-end, one lost at the sink, and one lost mid-network.
//!
//! Run with: `cargo run --release --example packet_tracing`

use citysee::{run_scenario, Analyzer, Scenario};

fn main() {
    let scenario = Scenario::small();
    println!(
        "simulating '{}': {} nodes, {} days…",
        scenario.name, scenario.nodes, scenario.days
    );
    let campaign = run_scenario(&scenario);
    println!(
        "  {} packets generated, {:.1}% delivered\n",
        campaign.sim.truth.packet_count(),
        100.0 * campaign.sim.truth.delivery_ratio()
    );

    // What an operator runs: the deployment's vocabulary, sink and outages.
    let analyzer = Analyzer::for_campaign(&campaign);
    let index = analyzer.index(&campaign.collected);

    // Pick: a delivered packet, a sink loss, and a mid-network loss.
    let mut picks = Vec::new();
    let ids = index.ids().to_vec();
    let mut got_delivered = false;
    let mut got_sink_loss = false;
    let mut got_mid_loss = false;
    for id in ids {
        let Some(fate) = campaign.sim.truth.fates.get(&id) else {
            continue;
        };
        match fate {
            eventlog::PacketFate::Delivered { .. } if !got_delivered => {
                picks.push((id, "delivered end-to-end"));
                got_delivered = true;
            }
            eventlog::PacketFate::Lost { at_node, .. }
                if *at_node == campaign.topology.sink() && !got_sink_loss =>
            {
                picks.push((id, "lost at the sink"));
                got_sink_loss = true;
            }
            eventlog::PacketFate::Lost { at_node, .. }
                if *at_node != campaign.topology.sink()
                    && *at_node != id.origin
                    && !got_mid_loss =>
            {
                picks.push((id, "lost mid-network"));
                got_mid_loss = true;
            }
            _ => {}
        }
        if picks.len() == 3 {
            break;
        }
    }

    for (id, why) in picks {
        let (report, diag) = analyzer
            .packet(&campaign.collected, id)
            .expect("picked from the index");
        println!("── packet {id} ({why})");
        println!(
            "   path : {}",
            report
                .path
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        );
        println!("   flow : {}", report.flow);
        println!(
            "   {} observed, {} inferred, {} retransmissions",
            report.flow.observed_count(),
            report.flow.inferred_count(),
            diag.retransmissions
        );
        match (&diag.cause, &campaign.sim.truth.fates[&id]) {
            (None, fate) => println!("   verdict: delivered (truth: {fate:?})"),
            (Some(c), fate) => println!(
                "   verdict: {} at {} (truth: {fate:?})",
                c.label(),
                diag.loss_node.map(|n| n.to_string()).unwrap_or_default()
            ),
        }
        println!();
    }
}
