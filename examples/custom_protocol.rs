//! Using the generic inference-engine machinery for a protocol other than
//! CTP: a request/reply exchange between a client and a server.
//!
//! The `refill::fsm` + `refill::net` layers are label-generic; this example
//! builds the two machines by hand (as Section IV-A describes, FSMs can be
//! written manually from the protocol), wires the inter-node prerequisites,
//! and reconstructs a lossy exchange.
//!
//! Run with: `cargo run --example custom_protocol`

use refill::fsm::{FsmBuilder, StateId};
use refill::net::{ConnectedNet, InterRule};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Msg {
    SendReq,
    RecvReq,
    Work,
    SendReply,
    RecvReply,
}

impl std::fmt::Display for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Msg::SendReq => "send-request",
            Msg::RecvReq => "recv-request",
            Msg::Work => "work",
            Msg::SendReply => "send-reply",
            Msg::RecvReply => "recv-reply",
        };
        f.write_str(s)
    }
}

fn main() {
    // Client: Idle --send-req--> Waiting --recv-reply--> Done.
    let mut cb = FsmBuilder::new("client");
    let c_idle = cb.state("Idle");
    let c_wait = cb.state("Waiting");
    let c_done = cb.state("Done");
    cb.t(c_idle, Msg::SendReq, c_wait)
        .t(c_wait, Msg::RecvReply, c_done);
    let client = cb.build().unwrap();

    // Server: Idle --recv-req--> Got --work--> Worked --send-reply--> Done.
    let mut sb = FsmBuilder::new("server");
    let s_idle = sb.state("Idle");
    let s_got = sb.state("Got");
    let s_worked = sb.state("Worked");
    let s_done = sb.state("Done");
    sb.t(s_idle, Msg::RecvReq, s_got)
        .t(s_got, Msg::Work, s_worked)
        .t(s_worked, Msg::SendReply, s_done);
    let server = sb.build().unwrap();

    // Augmentation derived the intra-node jumps automatically, e.g. a
    // send-reply observed at Idle implies [recv-req, work] were lost:
    let plan = server.plan(server.initial(), &Msg::SendReply).unwrap();
    println!(
        "derived intra-node jump on the server: send-reply at Idle infers {} lost events",
        plan.len() - 1
    );

    // Forcing a peer toward a prerequisite state reads its next step from a
    // table built with the template; it is the search's first step.
    for t in [&client, &server] {
        let states = || (0..t.state_count() as u32).map(StateId);
        for (from, to) in states().flat_map(|from| states().map(move |to| (from, to))) {
            let searched = t.normal_path(from, to).and_then(|p| p.first().copied());
            assert_eq!(t.first_step(from, to), searched);
        }
    }

    // Connect the machines: the server's recv-req requires the client to
    // have sent (Waiting); the client's recv-reply requires the server to
    // have replied (Done).
    let mut net: ConnectedNet<Msg, Msg> = ConnectedNet::new();
    let tc = net.add_template(client);
    let ts = net.add_template(server);
    let c = net.add_engine(tc);
    let s = net.add_engine(ts);
    net.add_rule(
        s,
        Msg::RecvReq,
        InterRule::new(c, &[c_wait], c_wait),
    );
    net.add_rule(
        c,
        Msg::RecvReply,
        InterRule::new(s, &[s_done], s_done),
    );

    // Lossy logs: the client only logged the reply arriving; the server
    // only logged that it worked. Four of six events are missing.
    net.push_event(c, Msg::RecvReply);
    net.push_event(s, Msg::Work);

    let out = net.run(|m| *m, |_, t| t.label);
    println!("\nobserved : client=[recv-reply], server=[work]");
    println!("flow     : {}", out.flow);
    println!(
        "recovered: {} observed + {} inferred, warnings: {:?}",
        out.flow.observed_count(),
        out.flow.inferred_count(),
        out.warnings
    );

    assert_eq!(
        out.flow.to_string(),
        "[send-request], [recv-request], work, [send-reply], recv-reply"
    );
    println!("\n(the complete exchange was reconstructed from two surviving events)");
}
