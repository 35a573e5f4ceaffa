//! Property tests: signature-memoized reconstruction is report-for-report
//! equivalent to the direct pipeline over arbitrary lossy event soups, and
//! flow signatures are invariant under node renaming.
//!
//! The cases come from `netsim::prop`'s seeded runner; CI also runs them in
//! release mode.

use eventlog::logger::LocalLog;
use eventlog::{merge_logs, Event, EventKind, PacketId};
use netsim::prop::{check, vec_of};
use netsim::{NodeId, Rng};
use refill::sigcache::SigCache;
use refill::trace::{CtpVocabulary, Reconstructor};

/// Raw event soup: (recording node, kind discriminant, peer, packet seqno).
fn arb_soup(rng: &mut Rng) -> Vec<(u16, u8, u16, u32)> {
    vec_of(rng, 0..40, |rng| {
        (
            rng.gen_range(0..6),
            rng.gen_range(0..12),
            rng.gen_range(0..6),
            rng.gen_range(0..4),
        )
    })
}

fn decode(node: u16, kind: u8, peer: u16, packet: PacketId) -> Event {
    let peer = NodeId(peer);
    let kind = match kind {
        0 => EventKind::Recv { from: peer },
        1 => EventKind::Overflow { from: peer },
        2 => EventKind::Dup { from: peer },
        3 => EventKind::Trans { to: peer },
        4 => EventKind::AckRecvd { to: peer },
        5 => EventKind::Origin,
        6 => EventKind::Enqueue,
        7 => EventKind::Timeout { to: peer },
        8 => EventKind::SerialTrans,
        9 => EventKind::BsRecv,
        10 => EventKind::Deliver,
        _ => EventKind::Custom(3),
    };
    Event::new(NodeId(node), kind, packet)
}

/// Split a soup into per-node logs (per-node order preserved by the split,
/// matching the ingestion contract) ready for merging.
fn soup_logs(raw: &[(u16, u8, u16, u32)]) -> Vec<LocalLog> {
    let mut per_node: Vec<Vec<Event>> = vec![Vec::new(); 6];
    for &(node, kind, peer, seq) in raw {
        let packet = PacketId::new(NodeId((seq % 6) as u16), seq);
        per_node[node as usize].push(decode(node, kind, peer, packet));
    }
    per_node
        .into_iter()
        .enumerate()
        .map(|(i, events)| LocalLog::from_events(NodeId(i as u16), events))
        .collect()
}

/// The memoized log driver returns exactly the reports of the direct
/// one, report for report, for every vocabulary — cold, warm (second
/// pass answered from templates), and under a capacity-2 cache that
/// evicts constantly.
#[test]
fn cached_log_reconstruction_equals_direct() {
    check("cached_log_reconstruction_equals_direct", 256, &[], |rng| {
        let merged = merge_logs(&soup_logs(&arb_soup(rng)));
        for vocab in [
            CtpVocabulary::table2(),
            CtpVocabulary::citysee(),
            CtpVocabulary::full(),
        ] {
            let recon = Reconstructor::new(vocab).with_sink(NodeId(5));
            let direct = recon.reconstruct_log(&merged);
            let cache = SigCache::default();
            assert_eq!(&direct, &recon.reconstruct_log_cached(&merged, &cache));
            assert_eq!(&direct, &recon.reconstruct_log_cached(&merged, &cache));
            let tiny = SigCache::new(2);
            assert_eq!(&direct, &recon.reconstruct_log_cached(&merged, &tiny));
        }
    });
}

/// Per-packet equivalence on a single group, cold and warm.
#[test]
fn cached_packet_reconstruction_equals_direct() {
    check(
        "cached_packet_reconstruction_equals_direct",
        256,
        &[],
        |rng| {
            let p = PacketId::new(NodeId(0), 0);
            let events: Vec<Event> = arb_soup(rng)
                .iter()
                .map(|&(node, kind, peer, _)| decode(node, kind, peer, p))
                .collect();
            let recon = Reconstructor::new(CtpVocabulary::citysee());
            let direct = recon.reconstruct_packet(p, &events);
            let cache = SigCache::default();
            assert_eq!(
                &direct,
                &recon.reconstruct_packet_cached(p, &events, &cache)
            );
            assert_eq!(
                &direct,
                &recon.reconstruct_packet_cached(p, &events, &cache)
            );
        },
    );
}

/// Flow signatures are invariant under injective node renaming plus
/// packet re-identification — the property that makes sharing one
/// template across differently-numbered flows sound.
#[test]
fn signature_is_rename_invariant() {
    check("signature_is_rename_invariant", 256, &[], |rng| {
        let raw = arb_soup(rng);
        let shift = rng.gen_range(1..100u16);
        let p = PacketId::new(NodeId(0), 0);
        let q = PacketId::new(NodeId(shift), 7);
        let original: Vec<Event> = raw
            .iter()
            .map(|&(node, kind, peer, _)| decode(node, kind, peer, p))
            .collect();
        let renamed: Vec<Event> = raw
            .iter()
            .map(|&(node, kind, peer, _)| decode(node + shift, kind, peer + shift, q))
            .collect();
        let recon = Reconstructor::new(CtpVocabulary::citysee());
        let sig_a = recon.signature_of(p, &original);
        let sig_b = recon.signature_of(q, &renamed);
        assert!(sig_a.is_some(), "small single-packet groups are cacheable");
        assert_eq!(sig_a, sig_b);
    });
}
