//! Regenerates **Table II** of the paper: the four lossy-log cases on a
//! three-node chain and the event flows REFILL reconstructs from them,
//! printed next to the paper's expected output.

use eventlog::{merge_logs, Event, EventKind, LocalLog, PacketId};
use netsim::NodeId;
use refill::trace::{CtpVocabulary, Reconstructor};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn p() -> PacketId {
    PacketId::new(n(1), 0)
}

fn ev(node: u16, kind: EventKind) -> Event {
    Event::new(n(node), kind, p())
}

struct Case {
    name: &'static str,
    logs: Vec<LocalLog>,
    expected: &'static str,
    note: &'static str,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "complete log",
            logs: vec![
                LocalLog::from_events(
                    n(1),
                    vec![
                        ev(1, EventKind::Trans { to: n(2) }),
                        ev(1, EventKind::AckRecvd { to: n(2) }),
                    ],
                ),
                LocalLog::from_events(
                    n(2),
                    vec![
                        ev(2, EventKind::Recv { from: n(1) }),
                        ev(2, EventKind::Trans { to: n(3) }),
                        ev(2, EventKind::AckRecvd { to: n(3) }),
                    ],
                ),
                LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
            ],
            expected:
                "1-2 trans, 1-2 recv, 1-2 ack recvd, 2-3 trans, 2-3 recv, 2-3 ack recvd",
            note: "nothing lost, nothing inferred",
        },
        Case {
            name: "Case 1",
            logs: vec![
                LocalLog::from_events(n(1), vec![ev(1, EventKind::Trans { to: n(2) })]),
                LocalLog::from_events(n(3), vec![ev(3, EventKind::Recv { from: n(2) })]),
            ],
            expected: "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv",
            note: "node 2's whole log lost; its hop is inferred",
        },
        Case {
            name: "Case 2",
            logs: vec![LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::Trans { to: n(2) }),
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                ],
            )],
            expected: "1-2 trans, [1-2 recv], 1-2 ack recvd",
            note: "acked but receiver logged nothing: acked loss at node 2",
        },
        Case {
            name: "Case 3",
            logs: vec![LocalLog::from_events(
                n(1),
                vec![
                    ev(1, EventKind::AckRecvd { to: n(2) }),
                    ev(1, EventKind::Trans { to: n(2) }),
                ],
            )],
            expected: "[1-2 trans], [1-2 recv], 1-2 ack recvd, 1-2 trans",
            note: "ack before trans: a retransmission whose first attempt was lost",
        },
        Case {
            name: "Case 4",
            logs: vec![
                LocalLog::from_events(
                    n(1),
                    vec![
                        ev(1, EventKind::Trans { to: n(2) }),
                        ev(1, EventKind::AckRecvd { to: n(2) }),
                        ev(1, EventKind::Recv { from: n(3) }),
                        ev(1, EventKind::Trans { to: n(2) }),
                        ev(1, EventKind::AckRecvd { to: n(2) }),
                    ],
                ),
                LocalLog::from_events(
                    n(2),
                    vec![
                        ev(2, EventKind::Recv { from: n(1) }),
                        ev(2, EventKind::Trans { to: n(3) }),
                        ev(2, EventKind::AckRecvd { to: n(3) }),
                        ev(2, EventKind::Trans { to: n(3) }),
                    ],
                ),
                LocalLog::from_events(
                    n(3),
                    vec![
                        ev(3, EventKind::Recv { from: n(2) }),
                        ev(3, EventKind::Trans { to: n(1) }),
                        ev(3, EventKind::AckRecvd { to: n(1) }),
                    ],
                ),
            ],
            expected: "1-2 trans, 1-2 recv, 1-2 ack recvd, 2-3 trans, 2-3 recv, \
                       2-3 ack recvd, 3-1 trans, 3-1 recv, 3-1 ack recvd, 1-2 trans, \
                       [1-2 recv], 1-2 ack recvd, 2-3 trans",
            note: "routing loop 1→2→3→1→2; lost on node 2's second transmission",
        },
    ]
}

fn main() {
    let recon = Reconstructor::new(CtpVocabulary::table2());
    let mut all_match = true;
    let mut report = String::new();
    for case in cases() {
        let merged = merge_logs(&case.logs);
        let out = recon.reconstruct_packet(p(), merged.packet_index().get(p()).unwrap_or(&[]));
        let got = out.flow.to_string();
        let expected_norm = case.expected.split_whitespace().collect::<Vec<_>>().join(" ");
        let ok = got == expected_norm;
        all_match &= ok;
        println!("== Table II, {} — {}", case.name, case.note);
        println!("   paper : {expected_norm}");
        println!("   refill: {got}   {}", if ok { "[match]" } else { "[MISMATCH]" });
        println!();
        report.push_str(&format!("{}\t{}\t{}\n", case.name, ok, got));
    }
    bench::write_artifact("table2.tsv", &report);
    if all_match {
        println!("all Table II cases reproduce the paper's flows exactly");
    } else {
        println!("MISMATCH against the paper's flows");
        std::process::exit(1);
    }
}
