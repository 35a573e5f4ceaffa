//! CTP routing: ETX costs, parent selection, stale-advertisement loops.
//!
//! Section V-A.3: each node picks the parent minimizing
//! `pathETX(parent) + linkETX(self, parent)`; path costs propagate through
//! beacons. We model the *converged* outcome of beaconing directly —
//! computing true path costs from the current (modulated) link qualities —
//! but apply updates **per node with a staleness probability**: a node may
//! keep routing on an old advertisement for a while. Under churn (weather,
//! interference) this produces exactly the transient routing loops that CTP
//! deployments see, which in turn produce the duplicate losses of Figure 5.

use netsim::link::LinkModel;
use netsim::{NodeId, Rng, SimTime, Topology};
use std::collections::BinaryHeap;

/// ETX of a link with PRR `p` (∞ for unusable links).
pub fn link_etx(prr: f64) -> f64 {
    if prr <= 1e-6 {
        f64::INFINITY
    } else {
        1.0 / prr
    }
}

/// The routing state of the whole network.
#[derive(Debug, Clone)]
pub struct RoutingState {
    /// Current parent per node (`None` for the sink and disconnected nodes).
    parents: Vec<Option<NodeId>>,
    /// Advertised (possibly stale) path ETX per node.
    advertised: Vec<f64>,
    sink: NodeId,
}

impl RoutingState {
    /// Initialize: every node converged on the true shortest ETX paths at
    /// time zero.
    pub fn converged(topology: &Topology, links: &LinkModel, at: SimTime) -> Self {
        let n = topology.len();
        let sink = topology.sink();
        let mut state = RoutingState {
            parents: vec![None; n],
            advertised: vec![f64::INFINITY; n],
            sink,
        };
        let costs = true_path_costs(topology, links, at);
        state.advertised.clone_from(&costs);
        for node in topology.nodes() {
            if node == sink {
                continue;
            }
            state.parents[node.index()] =
                best_parent(node, &costs, links, at).map(|(p, _)| p);
        }
        state
    }

    /// The sink.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Current parent of `node`.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents[node.index()]
    }

    /// One routing-update round at time `at`: recompute true costs, then
    /// each node independently refreshes its advertisement and parent with
    /// probability `update_prob` (stale otherwise). Returns how many
    /// parents changed.
    pub fn update_round(
        &mut self,
        topology: &Topology,
        links: &LinkModel,
        at: SimTime,
        update_prob: f64,
        rng: &mut Rng,
    ) -> usize {
        let costs = true_path_costs(topology, links, at);
        let mut changed = 0;
        for node in topology.nodes() {
            if node == self.sink {
                continue;
            }
            if rng.gen::<f64>() >= update_prob {
                continue; // stale this round
            }
            self.advertised[node.index()] = costs[node.index()];
            // Parent selection uses *advertised* (possibly stale) costs of
            // neighbors — the loop-forming ingredient.
            let new_parent = best_parent_advertised(node, &self.advertised, links, at);
            if new_parent != self.parents[node.index()] {
                self.parents[node.index()] = new_parent;
                changed += 1;
            }
        }
        changed
    }

    /// Detect nodes currently on a parent-pointer cycle (routing loop).
    pub fn nodes_in_loops(&self) -> Vec<NodeId> {
        let n = self.parents.len();
        let mut in_loop = vec![false; n];
        for start in 0..n {
            // Walk parent pointers with a visited stamp; O(n · path).
            let mut slow = start;
            let mut seen = vec![false; n];
            loop {
                seen[slow] = true;
                match self.parents[slow] {
                    None => break,
                    Some(p) => {
                        let pi = p.index();
                        if pi == self.sink.index() {
                            break;
                        }
                        if seen[pi] {
                            in_loop[pi] = true;
                            in_loop[start] = start == pi || in_loop[start];
                            // Mark the whole cycle.
                            let mut cur = pi;
                            loop {
                                in_loop[cur] = true;
                                match self.parents[cur] {
                                    Some(next) if next.index() != pi => cur = next.index(),
                                    _ => break,
                                }
                                if cur == pi {
                                    break;
                                }
                            }
                            break;
                        }
                        slow = pi;
                    }
                }
            }
        }
        (0..n)
            .filter(|&i| in_loop[i])
            .map(|i| NodeId(i as u16))
            .collect()
    }
}

/// True shortest path ETX to the sink for every node, via Dijkstra over the
/// current link qualities (edges reversed: cost from node → sink).
pub fn true_path_costs(topology: &Topology, links: &LinkModel, at: SimTime) -> Vec<f64> {
    let n = topology.len();
    let sink = topology.sink();
    let mut dist = vec![f64::INFINITY; n];
    dist[sink.index()] = 0.0;

    // Max-heap on negated cost = min-heap.
    #[derive(PartialEq)]
    struct Item(f64, usize);
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .partial_cmp(&self.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(other.1.cmp(&self.1))
        }
    }

    let mut heap = BinaryHeap::new();
    heap.push(Item(0.0, sink.index()));
    while let Some(Item(d, u)) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        let u_node = NodeId(u as u16);
        // Neighbors that can send *to* u (we relax incoming edges v → u).
        for &v in links.table().neighbors(u_node) {
            let prr = links.prr(v, u_node, at);
            let cost = link_etx(prr);
            if !cost.is_finite() {
                continue;
            }
            let nd = d + cost;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Item(nd, v.index()));
            }
        }
    }
    dist
}

fn best_parent(
    node: NodeId,
    costs: &[f64],
    links: &LinkModel,
    at: SimTime,
) -> Option<(NodeId, f64)> {
    let mut best: Option<(NodeId, f64)> = None;
    for &nb in links.table().neighbors(node) {
        let le = link_etx(links.prr(node, nb, at));
        let total = costs[nb.index()] + le;
        if total.is_finite() && best.is_none_or(|(_, b)| total < b) {
            best = Some((nb, total));
        }
    }
    best
}

fn best_parent_advertised(
    node: NodeId,
    advertised: &[f64],
    links: &LinkModel,
    at: SimTime,
) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64)> = None;
    for &nb in links.table().neighbors(node) {
        let le = link_etx(links.prr(node, nb, at));
        let total = advertised[nb.index()] + le;
        if total.is_finite() && best.is_none_or(|(_, b)| total < b) {
            best = Some((nb, total));
        }
    }
    best.map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::{LinkModelConfig, NoModulation};
    use netsim::topology::Layout;
    use netsim::RngFactory;

    fn setup(n: usize, side: f64) -> (Topology, LinkModel) {
        let f = RngFactory::new(21);
        let topo = Topology::generate(n, side, Layout::JitteredGrid, &f);
        let table = LinkModel::build_table(&topo, &LinkModelConfig::default(), &f);
        (topo, LinkModel::new(table, Box::new(NoModulation)))
    }

    #[test]
    fn link_etx_inverts_prr() {
        assert_eq!(link_etx(1.0), 1.0);
        assert_eq!(link_etx(0.5), 2.0);
        assert!(link_etx(0.0).is_infinite());
    }

    #[test]
    fn sink_has_zero_cost_and_no_parent() {
        let (topo, links) = setup(64, 500.0);
        let costs = true_path_costs(&topo, &links, SimTime::ZERO);
        assert_eq!(costs[topo.sink().index()], 0.0);
        let r = RoutingState::converged(&topo, &links, SimTime::ZERO);
        assert_eq!(r.parent(topo.sink()), None);
    }

    #[test]
    fn most_nodes_get_finite_routes() {
        let (topo, links) = setup(100, 600.0);
        let costs = true_path_costs(&topo, &links, SimTime::ZERO);
        let routed = costs.iter().filter(|c| c.is_finite()).count();
        assert!(routed > 90, "only {routed}/100 nodes routed");
    }

    #[test]
    fn converged_tree_is_loop_free() {
        let (topo, links) = setup(100, 600.0);
        let r = RoutingState::converged(&topo, &links, SimTime::ZERO);
        assert!(r.nodes_in_loops().is_empty());
        // And every routed node's parent chain reaches the sink.
        for node in topo.nodes() {
            if node == topo.sink() || r.parent(node).is_none() {
                continue;
            }
            let mut cur = node;
            let mut hops = 0;
            while let Some(p) = r.parent(cur) {
                cur = p;
                hops += 1;
                assert!(hops <= topo.len(), "parent chain from {node} does not terminate");
            }
            assert_eq!(cur, topo.sink(), "chain from {node} ends at {cur}");
        }
    }

    #[test]
    fn parents_reduce_cost_monotonically() {
        let (topo, links) = setup(64, 500.0);
        let costs = true_path_costs(&topo, &links, SimTime::ZERO);
        let r = RoutingState::converged(&topo, &links, SimTime::ZERO);
        for node in topo.nodes() {
            if let Some(p) = r.parent(node) {
                assert!(
                    costs[p.index()] < costs[node.index()] + 1e-9,
                    "parent {p} of {node} should be closer to the sink"
                );
            }
        }
    }

    #[test]
    fn full_update_round_keeps_convergence() {
        let (topo, links) = setup(64, 500.0);
        let mut r = RoutingState::converged(&topo, &links, SimTime::ZERO);
        let mut rng = Rng::new(3);
        // With stable links and update_prob 1, nothing should change.
        let changed = r.update_round(&topo, &links, SimTime::ZERO, 1.0, &mut rng);
        assert_eq!(changed, 0);
        assert!(r.nodes_in_loops().is_empty());
    }

    #[test]
    fn zero_update_prob_freezes_routes() {
        let (topo, links) = setup(64, 500.0);
        let mut r = RoutingState::converged(&topo, &links, SimTime::ZERO);
        let before: Vec<_> = topo.nodes().map(|n| r.parent(n)).collect();
        let mut rng = Rng::new(3);
        r.update_round(&topo, &links, SimTime::ZERO, 0.0, &mut rng);
        let after: Vec<_> = topo.nodes().map(|n| r.parent(n)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn loop_detection_finds_planted_cycle() {
        let (topo, links) = setup(16, 200.0);
        let mut r = RoutingState::converged(&topo, &links, SimTime::ZERO);
        // Plant a 2-cycle between two non-sink nodes.
        let a = NodeId(3);
        let b = NodeId(4);
        r.parents[a.index()] = Some(b);
        r.parents[b.index()] = Some(a);
        let looped = r.nodes_in_loops();
        assert!(looped.contains(&a) && looped.contains(&b), "{looped:?}");
    }
}
