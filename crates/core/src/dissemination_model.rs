//! A second shipped protocol model: one round of data dissemination.
//!
//! The paper motivates its 1-to-many and mixed inter-node transitions with
//! dissemination: "node 2 broadcasts information and then waits for
//! responses from node 1 and node 3" (Figure 3 b/d). This module packages
//! that pattern as a reusable model — a *disseminator* machine that
//! broadcasts an update and collects per-receiver confirmations, and a
//! *receiver* machine per neighbor — demonstrating that the engine layer is
//! not CTP-specific.
//!
//! Labels are `(DissLabel, peer index)` so each receiver's events are
//! distinct on the disseminator's machine (a confirm from receiver 0 is a
//! different edge than one from receiver 2).

use crate::fsm::{FsmBuilder, FsmTemplate, StateId};
use crate::net::{ConnectedNet, EngineId, InterRule, RunOutput};

/// Event types of the dissemination round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DissLabel {
    /// The disseminator broadcast the update (recorded on the disseminator).
    Broadcast,
    /// A receiver got the update (recorded on that receiver).
    RecvUpdate,
    /// A receiver installed/applied the update (recorded on that receiver).
    Install,
    /// A receiver sent its confirmation (recorded on that receiver).
    SendConfirm,
    /// The disseminator received receiver `i`'s confirmation (recorded on
    /// the disseminator; the peer index lives in the label's second slot).
    ConfirmFrom,
    /// The disseminator declared the round complete (all confirms in).
    Complete,
}

/// A label with the peer index it concerns (`usize::MAX` for local events).
pub type PeerLabel = (DissLabel, usize);

/// A built dissemination round: the connected net plus engine handles.
pub struct DisseminationRound {
    /// The connected engine network, ready for events.
    pub net: ConnectedNet<PeerLabel, PeerLabel>,
    /// The disseminator's engine.
    pub disseminator: EngineId,
    /// One engine per receiver.
    pub receivers: Vec<EngineId>,
    /// The disseminator's "broadcast done" state (prerequisite of every
    /// receiver's `RecvUpdate`).
    pub broadcast_done: StateId,
    /// A receiver's "confirm sent" state (prerequisite of the matching
    /// `ConfirmFrom`).
    pub confirm_sent: StateId,
}

/// The disseminator FSM: Idle → Sent → (confirm from each receiver, in any
/// order — modelled as a confirm-counting chain) → Done.
fn disseminator_template(n_receivers: usize) -> FsmTemplate<PeerLabel> {
    let mut b = FsmBuilder::new("disseminator");
    let idle = b.state("Idle");
    let sent = b.state("Sent");
    b.t(idle, (DissLabel::Broadcast, usize::MAX), sent);
    // Confirm collection: one chain state per receiver, in receiver order.
    // (Confirms can arrive in any real order; out-of-order ones reach their
    // chain slot through derived intra-node jumps, inferring the missing
    // earlier confirms — exactly the augmentation's job.)
    let mut cur = sent;
    for i in 0..n_receivers {
        let next = b.state(format!("Confirmed{i}"));
        b.t(cur, (DissLabel::ConfirmFrom, i), next);
        cur = next;
    }
    let done = b.state("Done");
    b.t(cur, (DissLabel::Complete, usize::MAX), done);
    b.build().expect("disseminator template is deterministic")
}

/// The receiver FSM: Idle → Got → Installed → Confirmed.
fn receiver_template(index: usize) -> FsmTemplate<PeerLabel> {
    let mut b = FsmBuilder::new(format!("receiver{index}"));
    let idle = b.state("Idle");
    let got = b.state("Got");
    let installed = b.state("Installed");
    let confirmed = b.state("Confirmed");
    b.t(idle, (DissLabel::RecvUpdate, index), got)
        .t(got, (DissLabel::Install, index), installed)
        .t(installed, (DissLabel::SendConfirm, index), confirmed);
    b.build().expect("receiver template is deterministic")
}

impl DisseminationRound {
    /// Build a round with `n_receivers` receivers, fully wired:
    ///
    /// * each receiver's `RecvUpdate` requires the disseminator's `Sent`
    ///   (many-to-1, Figure 3c);
    /// * each `ConfirmFrom i` requires receiver `i`'s `Confirmed`
    ///   (1-to-many seen from the disseminator, Figure 3b).
    pub fn new(n_receivers: usize) -> Self {
        let mut net: ConnectedNet<PeerLabel, PeerLabel> = ConnectedNet::new();
        let dt = net.add_template(disseminator_template(n_receivers));
        let broadcast_done = net.template(dt).state_by_name("Sent").expect("exists");
        let disseminator = net.add_engine(dt);
        let mut receivers = Vec::with_capacity(n_receivers);
        let mut confirm_sent = StateId(0);
        for i in 0..n_receivers {
            let rt = net.add_template(receiver_template(i));
            confirm_sent = net.template(rt).state_by_name("Confirmed").expect("exists");
            let r = net.add_engine(rt);
            receivers.push(r);
            net.add_rule(
                r,
                (DissLabel::RecvUpdate, i),
                InterRule::new(disseminator, &[broadcast_done], broadcast_done),
            );
            net.add_rule(
                disseminator,
                (DissLabel::ConfirmFrom, i),
                InterRule::new(r, &[confirm_sent], confirm_sent),
            );
        }
        DisseminationRound {
            net,
            disseminator,
            receivers,
            broadcast_done,
            confirm_sent,
        }
    }

    /// Queue an observed event.
    pub fn observe(&mut self, engine: EngineId, label: PeerLabel) {
        self.net.push_event(engine, label);
    }

    /// Run the reconstruction.
    pub fn run(&mut self) -> RunOutput<PeerLabel> {
        self.net.run(|e| *e, |_, t| t.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label_counts(out: &RunOutput<PeerLabel>, label: DissLabel) -> usize {
        out.flow.payloads().filter(|(l, _)| *l == label).count()
    }

    #[test]
    fn complete_round_needs_no_inference() {
        let mut round = DisseminationRound::new(2);
        let d = round.disseminator;
        let (r0, r1) = (round.receivers[0], round.receivers[1]);
        round.observe(d, (DissLabel::Broadcast, usize::MAX));
        for (i, r) in [(0, r0), (1, r1)] {
            round.observe(r, (DissLabel::RecvUpdate, i));
            round.observe(r, (DissLabel::Install, i));
            round.observe(r, (DissLabel::SendConfirm, i));
            round.observe(d, (DissLabel::ConfirmFrom, i));
        }
        round.observe(d, (DissLabel::Complete, usize::MAX));
        let out = round.run();
        assert_eq!(out.flow.inferred_count(), 0);
        assert!(out.omitted.is_empty());
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn complete_alone_reconstructs_the_entire_round() {
        // Only the disseminator's final "complete" survived: everything —
        // the broadcast, both receivers' full lifecycles, both confirms —
        // is inferred through the cascading prerequisites.
        let mut round = DisseminationRound::new(2);
        let d = round.disseminator;
        round.observe(d, (DissLabel::Complete, usize::MAX));
        let out = round.run();
        assert_eq!(out.flow.observed_count(), 1);
        // broadcast + 2×(recv, install, confirm-sent) + 2×confirm-from = 9.
        assert_eq!(out.flow.inferred_count(), 9);
        assert_eq!(label_counts(&out, DissLabel::RecvUpdate), 2);
        assert_eq!(label_counts(&out, DissLabel::SendConfirm), 2);
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn partial_order_keeps_receivers_concurrent() {
        // Figure 3(b): the relative order of the two receivers' events is
        // genuinely undetermined.
        let mut round = DisseminationRound::new(2);
        let d = round.disseminator;
        let (r0, r1) = (round.receivers[0], round.receivers[1]);
        round.observe(d, (DissLabel::Broadcast, usize::MAX));
        for (i, r) in [(0, r0), (1, r1)] {
            round.observe(r, (DissLabel::RecvUpdate, i));
            round.observe(r, (DissLabel::SendConfirm, i));
        }
        let out = round.run();
        let pos = |label: DissLabel, peer: usize| {
            out.flow
                .payloads()
                .position(|(l, p)| *l == label && *p == peer)
                .unwrap()
        };
        let b = out
            .flow
            .payloads()
            .position(|(l, _)| *l == DissLabel::Broadcast)
            .unwrap();
        // Broadcast precedes every receiver event…
        for i in 0..2 {
            assert!(out.flow.happens_before(b, pos(DissLabel::RecvUpdate, i)));
        }
        // …but the receivers are mutually unordered.
        assert!(out
            .flow
            .concurrent(pos(DissLabel::RecvUpdate, 0), pos(DissLabel::RecvUpdate, 1)));
    }

    #[test]
    fn out_of_order_confirms_infer_the_missing_ones() {
        // Only receiver 1's confirm was recorded at the disseminator: the
        // confirm-chain jump infers receiver 0's confirm (and forces
        // receiver 0's whole lifecycle).
        let mut round = DisseminationRound::new(2);
        let d = round.disseminator;
        round.observe(d, (DissLabel::Broadcast, usize::MAX));
        round.observe(d, (DissLabel::ConfirmFrom, 1));
        let out = round.run();
        assert_eq!(label_counts(&out, DissLabel::ConfirmFrom), 2);
        // Receiver 0's lifecycle was forced into existence.
        assert_eq!(label_counts(&out, DissLabel::SendConfirm), 2);
        assert!(out.flow.inferred_count() >= 7);
    }

    #[test]
    fn scales_to_many_receivers() {
        let k = 12;
        let mut round = DisseminationRound::new(k);
        let d = round.disseminator;
        round.observe(d, (DissLabel::Complete, usize::MAX));
        let out = round.run();
        assert_eq!(label_counts(&out, DissLabel::ConfirmFrom), k);
        assert_eq!(label_counts(&out, DissLabel::RecvUpdate), k);
        assert!(out.flow.is_consistent());
    }
}
