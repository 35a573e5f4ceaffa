//! Node identity, placement and deployment layouts.
//!
//! CitySee deployed ~1,200 nodes across an urban area with a single sink
//! wired to a backbone mesh node. We model the deployment as points in a
//! 2-D plane; the default layout is a jittered grid (streets are regular,
//! mounting points are not), with the sink near one corner as in Figure 8.

use crate::rng::RngFactory;
use std::fmt;

/// Identifier of a sensor node. The base station is *not* a `NodeId`; it sits
/// behind the sink's serial link (see `protocols::sink`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

crate::json_newtype!(NodeId(u16));

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`, in metres.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Deployment layout strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Nodes on a √n × √n grid with per-node jitter — the default "urban"
    /// deployment.
    JitteredGrid,
    /// Uniformly random placement in the area.
    UniformRandom,
    /// A 1-D chain with fixed spacing — handy for tests and the Table II
    /// three-node examples.
    Chain,
    /// Urban blocks: nodes gather around a handful of cluster centres
    /// (street intersections, building fronts), matching the clumpy spatial
    /// distribution of the paper's Figure 8 map.
    Clustered,
}

/// A concrete deployment: node positions plus the sink.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    sink: NodeId,
    side_m: f64,
}

impl Topology {
    /// Build a topology of `n` nodes with the given layout inside a square of
    /// `side_m` metres. Node 0 is the sink, placed near the south-west corner
    /// (mirroring Figure 8's triangle).
    pub fn generate(n: usize, side_m: f64, layout: Layout, rng_factory: &RngFactory) -> Self {
        assert!(n >= 1, "topology needs at least the sink");
        assert!(n <= usize::from(u16::MAX), "NodeId is 16-bit");
        let mut rng = rng_factory.stream("topology", 0);
        let mut positions = Vec::with_capacity(n);
        match layout {
            Layout::JitteredGrid => {
                let cols = (n as f64).sqrt().ceil() as usize;
                let rows = n.div_ceil(cols);
                let dx = side_m / cols as f64;
                let dy = side_m / rows as f64;
                for i in 0..n {
                    let (r, c) = (i / cols, i % cols);
                    let jx = rng.gen_range(-0.3..0.3) * dx;
                    let jy = rng.gen_range(-0.3..0.3) * dy;
                    positions.push(Position {
                        x: (c as f64 + 0.5) * dx + jx,
                        y: (r as f64 + 0.5) * dy + jy,
                    });
                }
            }
            Layout::UniformRandom => {
                for _ in 0..n {
                    positions.push(Position {
                        x: rng.gen_range(0.0..side_m),
                        y: rng.gen_range(0.0..side_m),
                    });
                }
            }
            Layout::Chain => {
                let spacing = if n > 1 { side_m / (n - 1) as f64 } else { 0.0 };
                for i in 0..n {
                    positions.push(Position {
                        x: i as f64 * spacing,
                        y: 0.0,
                    });
                }
            }
            Layout::Clustered => {
                // One cluster per ~25 nodes, at least 2; Gaussian-ish spread
                // via the sum of two uniforms.
                let clusters = (n / 25).max(2);
                let centers: Vec<Position> = (0..clusters)
                    .map(|_| Position {
                        x: rng.gen_range(0.12..0.88) * side_m,
                        y: rng.gen_range(0.12..0.88) * side_m,
                    })
                    .collect();
                let spread = side_m / (clusters as f64).sqrt() / 3.0;
                for i in 0..n {
                    let c = centers[i % clusters];
                    let dx = (rng.gen_range(-1.0..1.0f64) + rng.gen_range(-1.0..1.0)) * spread;
                    let dy = (rng.gen_range(-1.0..1.0f64) + rng.gen_range(-1.0..1.0)) * spread;
                    positions.push(Position {
                        x: (c.x + dx).clamp(0.0, side_m),
                        y: (c.y + dy).clamp(0.0, side_m),
                    });
                }
            }
        }
        // The sink is node 0; pull it to the corner for grid/random/clustered
        // layouts so the network forms a multi-hop tree toward it.
        if matches!(
            layout,
            Layout::JitteredGrid | Layout::UniformRandom | Layout::Clustered
        ) {
            positions[0] = Position {
                x: side_m * 0.05,
                y: side_m * 0.05,
            };
        }
        Topology {
            positions,
            sink: NodeId(0),
            side_m,
        }
    }

    /// Number of nodes (including the sink).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the topology has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The sink node id.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The deployment square's side in metres.
    pub fn side_m(&self) -> f64 {
        self.side_m
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u16).map(NodeId)
    }

    /// Distance between two nodes in metres.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(&self.position(b))
    }

    /// All nodes within `radius_m` of `node` (excluding itself), sorted by id.
    pub fn neighbors_within(&self, node: NodeId, radius_m: f64) -> Vec<NodeId> {
        self.nodes()
            .filter(|&other| other != node && self.distance(node, other) <= radius_m)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factory() -> RngFactory {
        RngFactory::new(7)
    }

    #[test]
    fn grid_layout_places_all_nodes_in_area() {
        let t = Topology::generate(100, 500.0, Layout::JitteredGrid, &factory());
        assert_eq!(t.len(), 100);
        for n in t.nodes() {
            let p = t.position(n);
            assert!(p.x > -100.0 && p.x < 600.0, "x out of bounds: {}", p.x);
            assert!(p.y > -100.0 && p.y < 600.0, "y out of bounds: {}", p.y);
        }
    }

    #[test]
    fn chain_layout_is_evenly_spaced() {
        let t = Topology::generate(5, 400.0, Layout::Chain, &factory());
        for i in 0..4u16 {
            let d = t.distance(NodeId(i), NodeId(i + 1));
            assert!((d - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn clustered_layout_is_clumpy() {
        let t = Topology::generate(200, 1000.0, Layout::Clustered, &factory());
        // Mean nearest-neighbor distance should be well below the uniform
        // expectation (~0.5 / sqrt(n/area) ≈ 35 m for this density).
        let mut nn_sum = 0.0;
        for a in t.nodes() {
            let mut best = f64::INFINITY;
            for b in t.nodes() {
                if a != b {
                    best = best.min(t.distance(a, b));
                }
            }
            nn_sum += best;
        }
        let mean_nn = nn_sum / t.len() as f64;
        assert!(mean_nn < 30.0, "clusters should pack nodes: mean nn = {mean_nn:.1}");
        // Everything stays inside the square.
        for n in t.nodes() {
            let p = t.position(n);
            assert!((0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y));
        }
    }

    #[test]
    fn sink_is_node_zero_in_corner() {
        let t = Topology::generate(64, 800.0, Layout::JitteredGrid, &factory());
        assert_eq!(t.sink(), NodeId(0));
        let p = t.position(t.sink());
        assert!(p.x < 100.0 && p.y < 100.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(50, 300.0, Layout::UniformRandom, &factory());
        let b = Topology::generate(50, 300.0, Layout::UniformRandom, &factory());
        for n in a.nodes() {
            assert_eq!(a.position(n).x, b.position(n).x);
            assert_eq!(a.position(n).y, b.position(n).y);
        }
    }

    #[test]
    fn neighbors_within_excludes_self_and_far_nodes() {
        let t = Topology::generate(5, 400.0, Layout::Chain, &factory());
        let nb = t.neighbors_within(NodeId(2), 150.0);
        assert_eq!(nb, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn distance_is_symmetric() {
        let t = Topology::generate(20, 300.0, Layout::UniformRandom, &factory());
        assert_eq!(t.distance(NodeId(3), NodeId(9)), t.distance(NodeId(9), NodeId(3)));
    }
}
