//! Radio link quality model.
//!
//! Each directed pair of nodes gets a *base* packet-reception ratio (PRR)
//! from a logistic distance curve with per-link log-normal shadowing — the
//! standard empirical shape for CC2420-class radios: near-perfect links up
//! close, a steep "grey region", and nothing beyond. On top of the static
//! base, time-varying [`QualityModulator`]s (weather, interference bursts)
//! scale quality multiplicatively; the CitySee scenario composes several.

use crate::fx::FxHashMap;
use crate::rng::{Rng, RngFactory};
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};
use rand_distr_free::sample_standard_normal;

/// Parameters of the distance→PRR curve.
#[derive(Debug, Clone)]
pub struct LinkModelConfig {
    /// Distance at which the *median* link has PRR 0.5, in metres.
    pub d50_m: f64,
    /// Width of the grey region: larger values flatten the logistic.
    pub grey_width_m: f64,
    /// Standard deviation of per-link shadowing, expressed in metres of
    /// equivalent distance shift.
    pub shadowing_sigma_m: f64,
    /// Links with base PRR below this are treated as nonexistent.
    pub prr_floor: f64,
    /// Hard connectivity radius: beyond this no link exists regardless of
    /// shadowing (keeps neighbor sets small for large networks).
    pub max_range_m: f64,
}

impl Default for LinkModelConfig {
    fn default() -> Self {
        LinkModelConfig {
            d50_m: 55.0,
            grey_width_m: 10.0,
            shadowing_sigma_m: 8.0,
            prr_floor: 0.05,
            max_range_m: 90.0,
        }
    }
}

/// A time-varying multiplicative modifier on link quality in `[0, 1]`.
pub trait QualityModulator: Send + Sync {
    /// Multiplier applied to the base PRR of `from → to` at time `at`.
    fn factor(&self, from: NodeId, to: NodeId, at: SimTime) -> f64;
}

/// A modulator that never changes anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoModulation;

impl QualityModulator for NoModulation {
    fn factor(&self, _from: NodeId, _to: NodeId, _at: SimTime) -> f64 {
        1.0
    }
}

/// Static per-directed-link base PRR table.
#[derive(Debug, Clone)]
pub struct LinkQualityTable {
    prr: FxHashMap<(NodeId, NodeId), f64>,
    neighbors: Vec<Vec<NodeId>>,
}

impl LinkQualityTable {
    /// Base PRR of the directed link `from → to`, or 0 if no link exists.
    pub fn base_prr(&self, from: NodeId, to: NodeId) -> f64 {
        self.prr.get(&(from, to)).copied().unwrap_or(0.0)
    }

    /// Nodes that `from` has a usable outgoing link to (sorted by id).
    pub fn neighbors(&self, from: NodeId) -> &[NodeId] {
        &self.neighbors[from.index()]
    }

    /// Number of usable directed links.
    pub fn link_count(&self) -> usize {
        self.prr.len()
    }
}

/// The link model: static table + access with modulation.
pub struct LinkModel {
    table: LinkQualityTable,
    modulator: Box<dyn QualityModulator>,
}

impl LinkModel {
    /// Build the static base-quality table for `topology`.
    ///
    /// Shadowing is sampled per *undirected* pair plus a smaller directed
    /// asymmetry term, matching the mild asymmetry seen in real testbeds.
    pub fn build_table(
        topology: &Topology,
        config: &LinkModelConfig,
        rng_factory: &RngFactory,
    ) -> LinkQualityTable {
        let n = topology.len();
        let mut prr = FxHashMap::default();
        let mut neighbors = vec![Vec::new(); n];
        for a in topology.nodes() {
            for b in topology.nodes() {
                if a >= b {
                    continue;
                }
                let d = topology.distance(a, b);
                if d > config.max_range_m {
                    continue;
                }
                let mut pair_rng = rng_factory.pair_stream("link-shadow", a.0 as u64, b.0 as u64);
                let shadow = sample_standard_normal(&mut pair_rng) * config.shadowing_sigma_m;
                let asym_ab = sample_standard_normal(&mut pair_rng) * config.shadowing_sigma_m * 0.25;
                let asym_ba = sample_standard_normal(&mut pair_rng) * config.shadowing_sigma_m * 0.25;
                for (from, to, asym) in [(a, b, asym_ab), (b, a, asym_ba)] {
                    let eff_d = d + shadow + asym;
                    let p = logistic_prr(eff_d, config.d50_m, config.grey_width_m);
                    if p >= config.prr_floor {
                        prr.insert((from, to), p);
                        neighbors[from.index()].push(to);
                    }
                }
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
        LinkQualityTable { prr, neighbors }
    }

    /// Assemble a model from a prebuilt table and a modulator.
    pub fn new(table: LinkQualityTable, modulator: Box<dyn QualityModulator>) -> Self {
        LinkModel { table, modulator }
    }

    /// The static table.
    pub fn table(&self) -> &LinkQualityTable {
        &self.table
    }

    /// Effective PRR of `from → to` at time `at` (base × modulation, clamped).
    pub fn prr(&self, from: NodeId, to: NodeId, at: SimTime) -> f64 {
        let base = self.table.base_prr(from, to);
        if base == 0.0 {
            return 0.0;
        }
        (base * self.modulator.factor(from, to, at)).clamp(0.0, 1.0)
    }

    /// Sample one transmission attempt on `from → to` at `at`.
    pub fn sample_delivery(&self, from: NodeId, to: NodeId, at: SimTime, rng: &mut Rng) -> bool {
        rng.gen::<f64>() < self.prr(from, to, at)
    }
}

/// Logistic PRR-vs-distance curve.
fn logistic_prr(d: f64, d50: f64, width: f64) -> f64 {
    1.0 / (1.0 + ((d - d50) / width).exp())
}

/// Packet-reception ratio implied by a bit error rate and a frame length:
/// `PRR = (1 − BER)^(8·bytes)` — every bit must survive for the CRC to
/// pass. This ties the byte-level PHY codec (`protocols::packet`) to the
/// statistical link model: a link with PRR *p* behaves like a channel whose
/// BER satisfies this identity for the frame size in use.
pub fn prr_from_ber(ber: f64, frame_bytes: usize) -> f64 {
    (1.0 - ber.clamp(0.0, 1.0)).powi(8 * frame_bytes as i32)
}

/// The inverse: the BER a measured PRR implies for a frame length.
pub fn ber_from_prr(prr: f64, frame_bytes: usize) -> f64 {
    1.0 - prr.clamp(f64::MIN_POSITIVE, 1.0).powf(1.0 / (8.0 * frame_bytes as f64))
}

/// A tiny internal normal sampler so we avoid pulling in `rand_distr`.
mod rand_distr_free {
    use crate::rng::Rng;

    /// Standard normal via Box–Muller (one value per call; the pair's twin is
    /// discarded — simplicity over speed, this only runs at setup).
    pub fn sample_standard_normal(rng: &mut Rng) -> f64 {
        loop {
            let u1: f64 = rng.gen::<f64>();
            let u2: f64 = rng.gen::<f64>();
            if u1 > f64::EPSILON {
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Layout;

    fn setup(n: usize, side: f64) -> (Topology, LinkQualityTable) {
        let f = RngFactory::new(11);
        let t = Topology::generate(n, side, Layout::JitteredGrid, &f);
        let table = LinkModel::build_table(&t, &LinkModelConfig::default(), &f);
        (t, table)
    }

    #[test]
    fn ber_prr_are_inverses() {
        for ber in [1e-5, 1e-4, 1e-3] {
            for bytes in [20usize, 60, 120] {
                let prr = prr_from_ber(ber, bytes);
                assert!((0.0..=1.0).contains(&prr));
                let back = ber_from_prr(prr, bytes);
                assert!((back - ber).abs() < 1e-9, "ber {ber} bytes {bytes}: {back}");
            }
        }
        // Sanity: a 60-byte frame at BER 1e-3 is mostly lost.
        assert!(prr_from_ber(1e-3, 60) < 0.65);
        assert!(prr_from_ber(0.0, 60) == 1.0);
    }

    #[test]
    fn logistic_curve_shape() {
        assert!(logistic_prr(0.0, 55.0, 10.0) > 0.99);
        assert!((logistic_prr(55.0, 55.0, 10.0) - 0.5).abs() < 1e-12);
        assert!(logistic_prr(120.0, 55.0, 10.0) < 0.01);
    }

    #[test]
    fn close_nodes_have_good_links() {
        let (t, table) = setup(100, 600.0);
        // Grid spacing is 60 m; many adjacent pairs should be connected.
        let connected = t
            .nodes()
            .filter(|&n| !table.neighbors(n).is_empty())
            .count();
        assert!(connected > 90, "only {connected}/100 nodes have links");
    }

    #[test]
    fn out_of_range_pairs_have_no_link() {
        let (t, table) = setup(100, 600.0);
        let far = t
            .nodes()
            .flat_map(|a| t.nodes().map(move |b| (a, b)))
            .find(|&(a, b)| a != b && t.distance(a, b) > 200.0)
            .expect("some far pair exists");
        assert_eq!(table.base_prr(far.0, far.1), 0.0);
    }

    #[test]
    fn prr_is_in_unit_interval() {
        let (_, table) = setup(64, 500.0);
        for (_, &p) in table.prr.iter() {
            assert!((0.0..=1.0).contains(&p), "prr out of range: {p}");
        }
    }

    #[test]
    fn table_build_is_deterministic() {
        let (_, a) = setup(64, 500.0);
        let (_, b) = setup(64, 500.0);
        assert_eq!(a.link_count(), b.link_count());
        for (k, v) in a.prr.iter() {
            assert_eq!(b.prr.get(k), Some(v));
        }
    }

    #[test]
    fn modulator_scales_prr() {
        struct Half;
        impl QualityModulator for Half {
            fn factor(&self, _: NodeId, _: NodeId, _: SimTime) -> f64 {
                0.5
            }
        }
        let (t, table) = setup(16, 200.0);
        let some_link = *table.prr.keys().next().expect("a link exists");
        let base = table.base_prr(some_link.0, some_link.1);
        let model = LinkModel::new(table, Box::new(Half));
        let _ = t;
        let eff = model.prr(some_link.0, some_link.1, SimTime::ZERO);
        assert!((eff - base * 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_delivery_matches_prr_statistically() {
        let (_, table) = setup(16, 200.0);
        let some_link = *table.prr.keys().next().expect("a link exists");
        let p = table.base_prr(some_link.0, some_link.1);
        let model = LinkModel::new(table, Box::new(NoModulation));
        let mut rng = Rng::new(3);
        let n = 20_000;
        let ok = (0..n)
            .filter(|_| model.sample_delivery(some_link.0, some_link.1, SimTime::ZERO, &mut rng))
            .count();
        let freq = ok as f64 / n as f64;
        assert!((freq - p).abs() < 0.02, "freq {freq} vs prr {p}");
    }

    #[test]
    fn neighbors_sorted_and_consistent() {
        let (t, table) = setup(49, 400.0);
        for n in t.nodes() {
            let nb = table.neighbors(n);
            assert!(nb.windows(2).all(|w| w[0] < w[1]));
            for &m in nb {
                assert!(table.base_prr(n, m) > 0.0);
            }
        }
    }
}
