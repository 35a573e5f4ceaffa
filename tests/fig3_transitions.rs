//! Integration test: the four inter-node transition shapes of Figure 3,
//! through the public `refill::net` API, including the fully-lossy variants
//! the paper describes in prose.

use refill::fsm::{FsmBuilder, FsmTemplate, StateId};
use refill::net::{ConnectedNet, InterRule};

type Net = ConnectedNet<&'static str, &'static str>;

fn chain(name: &str, a: &'static str, b: &'static str) -> FsmTemplate<&'static str> {
    let mut builder = FsmBuilder::new(name);
    let init = builder.state("Init");
    let mid = builder.state("Mid");
    let end = builder.state("End");
    builder.t(init, a, mid).t(mid, b, end);
    builder.build().unwrap()
}

const MID: StateId = StateId(1);
const END: StateId = StateId(2);

fn three_node_net() -> (Net, [refill::net::EngineId; 3]) {
    let mut net = Net::new();
    let t1 = net.add_template(chain("n1", "e1", "e2"));
    let t2 = net.add_template(chain("n2", "e3", "e4"));
    let t3 = net.add_template(chain("n3", "e5", "e6"));
    let n1 = net.add_engine(t1);
    let n2 = net.add_engine(t2);
    let n3 = net.add_engine(t3);
    (net, [n1, n2, n3])
}

fn rule(peer: refill::net::EngineId, state: StateId) -> InterRule {
    InterRule::new(peer, &[state], state)
}

fn push_all(net: &mut Net, engines: [refill::net::EngineId; 3]) {
    for (e, evs) in engines.into_iter().zip([["e1", "e2"], ["e3", "e4"], ["e5", "e6"]]) {
        for ev in evs {
            net.push_event(e, ev);
        }
    }
}

fn run(net: &mut Net) -> refill::net::RunOutput<&'static str> {
    net.run(|e| *e, |_, t| t.label)
}

#[test]
fn fig3a_cascading() {
    let (mut net, [n1, n2, n3]) = three_node_net();
    net.add_rule(n1, "e2", rule(n2, END));
    net.add_rule(n2, "e4", rule(n3, END));
    push_all(&mut net, [n1, n2, n3]);
    let out = run(&mut net);
    // The paper's exact resulting flow.
    assert_eq!(out.flow.to_string(), "e1, e3, e5, e6, e4, e2");
}

#[test]
fn fig3a_single_surviving_event() {
    // "Even when there is only one event e2 on node 1 and all other events
    // are lost, the transition algorithm can generate the correct event
    // flow and infer lost events."
    let (mut net, [n1, n2, n3]) = three_node_net();
    net.add_rule(n1, "e2", rule(n2, END));
    net.add_rule(n2, "e4", rule(n3, END));
    net.push_event(n1, "e2");
    let out = run(&mut net);
    assert_eq!(out.flow.to_string(), "[e1], [e3], [e5], [e6], [e4], e2");
    assert_eq!(out.flow.inferred_count(), 5);
}

#[test]
fn fig3b_one_to_many() {
    // "The events e2 and e6 should occur before e4. The ordering between e1
    // and e5 cannot be determined."
    let (mut net, [n1, n2, n3]) = three_node_net();
    net.add_rule(n2, "e4", rule(n1, END));
    net.add_rule(n2, "e4", rule(n3, END));
    push_all(&mut net, [n1, n2, n3]);
    let out = run(&mut net);
    let pos = |l: &str| out.flow.payloads().position(|x| *x == l).unwrap();
    assert!(out.flow.happens_before(pos("e2"), pos("e4")));
    assert!(out.flow.happens_before(pos("e6"), pos("e4")));
    assert!(out.flow.concurrent(pos("e1"), pos("e5")));
}

#[test]
fn fig3c_many_to_one() {
    // "The event e3 must occur after e1 and e5" — i.e. e3 is the
    // prerequisite for both, so it precedes them (and e2, e6).
    let (mut net, [n1, n2, n3]) = three_node_net();
    net.add_rule(n1, "e1", rule(n2, MID));
    net.add_rule(n3, "e5", rule(n2, MID));
    push_all(&mut net, [n1, n2, n3]);
    let out = run(&mut net);
    let pos = |l: &str| out.flow.payloads().position(|x| *x == l).unwrap();
    for after in ["e1", "e2", "e5", "e6"] {
        assert!(
            out.flow.happens_before(pos("e3"), pos(after)),
            "e3 must precede {after}"
        );
    }
}

#[test]
fn fig3d_mixed() {
    // The negotiation shape: node 2 broadcasts (e3 enables e1/e5), then
    // waits for both responses (e2/e6 enable e4).
    let (mut net, [n1, n2, n3]) = three_node_net();
    net.add_rule(n1, "e1", rule(n2, MID));
    net.add_rule(n3, "e5", rule(n2, MID));
    net.add_rule(n2, "e4", rule(n1, END));
    net.add_rule(n2, "e4", rule(n3, END));
    push_all(&mut net, [n1, n2, n3]);
    let out = run(&mut net);
    let pos = |l: &str| out.flow.payloads().position(|x| *x == l).unwrap();
    assert!(out.flow.happens_before(pos("e3"), pos("e1")));
    assert!(out.flow.happens_before(pos("e3"), pos("e5")));
    assert!(out.flow.happens_before(pos("e2"), pos("e4")));
    assert!(out.flow.happens_before(pos("e6"), pos("e4")));
    assert!(out.warnings.is_empty());
    assert!(out.omitted.is_empty());
}

#[test]
fn fig3d_mixed_with_losses() {
    // Same shape, but only e4 survives: the whole negotiation is inferred.
    let (mut net, [n1, n2, n3]) = three_node_net();
    net.add_rule(n1, "e1", rule(n2, MID));
    net.add_rule(n3, "e5", rule(n2, MID));
    net.add_rule(n2, "e4", rule(n1, END));
    net.add_rule(n2, "e4", rule(n3, END));
    net.push_event(n2, "e4");
    let out = run(&mut net);
    assert_eq!(out.flow.observed_count(), 1);
    assert_eq!(out.flow.inferred_count(), 5);
    let pos = |l: &str| out.flow.payloads().position(|x| *x == l).unwrap();
    // All constraints still hold on the inferred flow.
    assert!(out.flow.happens_before(pos("e3"), pos("e1")));
    assert!(out.flow.happens_before(pos("e2"), pos("e4")));
    assert!(out.flow.happens_before(pos("e6"), pos("e4")));
}
