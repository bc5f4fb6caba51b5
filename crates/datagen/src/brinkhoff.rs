//! Brinkhoff-style network-based moving-object generator.
//!
//! Reproduces the behaviour of Brinkhoff's generator as used in the paper
//! (§V-A): objects enter the road network at random nodes, travel shortest
//! paths toward random destinations at class-dependent speeds, and quit —
//! either on arrival (after possibly chaining a few trips) or by randomly
//! ceasing to report ("users in these two datasets randomly quit sharing
//! their locations"). A fixed number of new objects is injected at every
//! timestamp.
//!
//! Presets reproduce Table I:
//! - [`BrinkhoffConfig::oldenburg`]: 10,000 initial objects + 500/ts over
//!   500 ts → 260,000 streams, average length ≈ 60.
//! - [`BrinkhoffConfig::san_joaquin`]: 10,000 initial + 1,000/ts over
//!   1,000 ts → 1,010,000 streams, average length ≈ 55.

use crate::roadnet::{NodeId, RoadNetwork, RoadNetworkConfig};
use rand::Rng;
use retrasyn_geo::{Point, StreamDataset, Trajectory};

/// Configuration of the network-based generator.
#[derive(Debug, Clone)]
pub struct BrinkhoffConfig {
    /// Objects present at t = 0.
    pub initial_objects: usize,
    /// New objects entering at each subsequent timestamp.
    pub new_per_ts: usize,
    /// Number of timestamps.
    pub timestamps: u64,
    /// Per-timestamp probability that an object stops reporting.
    pub quit_prob: f64,
    /// Probability of chaining a new trip after reaching a destination
    /// (otherwise the object quits).
    pub continue_prob: f64,
    /// Base distance travelled per timestamp on a class-1 road.
    pub base_speed: f64,
    /// Road-network parameters.
    pub network: RoadNetworkConfig,
}

impl Default for BrinkhoffConfig {
    fn default() -> Self {
        BrinkhoffConfig {
            initial_objects: 1000,
            new_per_ts: 50,
            timestamps: 100,
            quit_prob: 1.0 / 60.0,
            continue_prob: 0.8,
            base_speed: 0.012,
            network: RoadNetworkConfig::default(),
        }
    }
}

impl BrinkhoffConfig {
    /// The Oldenburg preset of Table I (use [`Self::scaled`] to shrink).
    pub fn oldenburg() -> Self {
        BrinkhoffConfig {
            initial_objects: 10_000,
            new_per_ts: 500,
            timestamps: 500,
            quit_prob: 1.0 / 85.0,
            continue_prob: 0.9,
            ..Default::default()
        }
    }

    /// The SanJoaquin preset of Table I.
    pub fn san_joaquin() -> Self {
        BrinkhoffConfig {
            initial_objects: 10_000,
            new_per_ts: 1_000,
            timestamps: 1_000,
            quit_prob: 1.0 / 72.0,
            continue_prob: 0.9,
            ..Default::default()
        }
    }

    /// Scale object counts by `f` (time span unchanged). Used to run the
    /// full experiment matrix on laptop-class hardware.
    pub fn scaled(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        self.initial_objects = ((self.initial_objects as f64 * f).round() as usize).max(1);
        self.new_per_ts = (self.new_per_ts as f64 * f).round() as usize;
        self
    }

    /// Generate the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamDataset {
        let network = RoadNetwork::generate(&self.network, rng);
        self.generate_on(&network, rng)
    }

    /// Generate on an existing network (lets tests share one network).
    pub fn generate_on<R: Rng + ?Sized>(
        &self,
        network: &RoadNetwork,
        rng: &mut R,
    ) -> StreamDataset {
        let mut trajectories = Vec::with_capacity(
            self.initial_objects + self.new_per_ts * self.timestamps.saturating_sub(1) as usize,
        );
        let mut active: Vec<MovingObject> = Vec::new();
        let mut next_user = 0u64;
        for t in 0..self.timestamps {
            // Inject new objects.
            let incoming = if t == 0 { self.initial_objects } else { self.new_per_ts };
            for _ in 0..incoming {
                if let Some(obj) = MovingObject::spawn(next_user, t, network, rng) {
                    active.push(obj);
                    next_user += 1;
                }
            }
            // Advance every active object by one tick; retire quitters.
            let mut still_active = Vec::with_capacity(active.len());
            for mut obj in active {
                obj.record_position(network);
                let quits = rng.random::<f64>() < self.quit_prob
                    || !obj.advance(self, network, rng)
                    || t == self.timestamps - 1;
                if quits {
                    trajectories.push(obj.into_trajectory());
                } else {
                    still_active.push(obj);
                }
            }
            active = still_active;
        }
        StreamDataset::with_horizon(trajectories, self.timestamps)
    }
}

/// An in-flight object travelling the network.
struct MovingObject {
    user: u64,
    start: u64,
    points: Vec<Point>,
    /// Remaining path (current edge is `path[leg] -> path[leg+1]`).
    path: Vec<NodeId>,
    leg: usize,
    /// Fraction of the current edge already covered.
    progress: f64,
}

impl MovingObject {
    fn spawn<R: Rng + ?Sized>(
        user: u64,
        start: u64,
        network: &RoadNetwork,
        rng: &mut R,
    ) -> Option<Self> {
        let from = network.weighted_node(rng);
        let to = network.weighted_node(rng);
        let path = network.shortest_path(from, to)?;
        Some(MovingObject { user, start, points: Vec::new(), path, leg: 0, progress: 0.0 })
    }

    /// Current continuous position, interpolated along the current edge.
    fn position(&self, network: &RoadNetwork) -> Point {
        if self.leg + 1 >= self.path.len() {
            return network.node(*self.path.last().unwrap());
        }
        let a = network.node(self.path[self.leg]);
        let b = network.node(self.path[self.leg + 1]);
        Point::new(a.x + (b.x - a.x) * self.progress, a.y + (b.y - a.y) * self.progress)
    }

    fn record_position(&mut self, network: &RoadNetwork) {
        let p = self.position(network);
        self.points.push(p);
    }

    /// Move one tick along the path; on arrival, either chain a new trip or
    /// signal that the object is done (`false`).
    fn advance<R: Rng + ?Sized>(
        &mut self,
        config: &BrinkhoffConfig,
        network: &RoadNetwork,
        rng: &mut R,
    ) -> bool {
        let mut budget = config.base_speed * (0.75 + 0.5 * rng.random::<f64>());
        loop {
            if self.leg + 1 >= self.path.len() {
                // Arrived. Chain a new trip from here?
                if rng.random::<f64>() < config.continue_prob {
                    let here = *self.path.last().unwrap();
                    let dest = network.weighted_node(rng);
                    match network.shortest_path(here, dest) {
                        Some(path) if path.len() > 1 => {
                            self.path = path;
                            self.leg = 0;
                            self.progress = 0.0;
                            continue;
                        }
                        _ => return false,
                    }
                }
                return false;
            }
            let a = self.path[self.leg];
            let b = self.path[self.leg + 1];
            let len = network.node(a).distance(&network.node(b)).max(1e-9);
            let class = network.edge_class(a, b).unwrap_or(1) as f64;
            let speed = budget * class;
            let remaining = (1.0 - self.progress) * len;
            if speed < remaining {
                self.progress += speed / len;
                return true;
            }
            // Consume the rest of this edge and continue on the next one.
            budget -= remaining / class;
            self.leg += 1;
            self.progress = 0.0;
            if budget <= 0.0 {
                return true;
            }
        }
    }

    fn into_trajectory(self) -> Trajectory {
        Trajectory::new(self.user, self.start, self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_geo::UniformGrid;

    fn small() -> BrinkhoffConfig {
        BrinkhoffConfig {
            initial_objects: 200,
            new_per_ts: 20,
            timestamps: 60,
            ..Default::default()
        }
    }

    #[test]
    fn stream_count_matches_injection_schedule() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = small().generate(&mut rng);
        // Every injected object yields exactly one stream.
        assert_eq!(ds.trajectories().len(), 200 + 20 * 59);
        assert_eq!(ds.horizon(), 60);
    }

    #[test]
    fn streams_fit_horizon_and_are_nonempty() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = small().generate(&mut rng);
        for t in ds.trajectories() {
            assert!(!t.points.is_empty());
            assert!(t.end() < 60);
            for p in &t.points {
                assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
            }
        }
    }

    #[test]
    fn average_length_tracks_quit_prob() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = BrinkhoffConfig {
            initial_objects: 600,
            new_per_ts: 30,
            timestamps: 200,
            quit_prob: 1.0 / 20.0,
            ..Default::default()
        };
        let ds = config.generate(&mut rng);
        let stats = ds.stats();
        // Lifetime is capped by arrival/continue churn and the horizon, so
        // the mean sits below 1/quit_prob but well above 1.
        assert!(
            stats.avg_length > 6.0 && stats.avg_length < 25.0,
            "avg_length={}",
            stats.avg_length
        );
    }

    #[test]
    fn movement_is_mostly_grid_adjacent() {
        // With base_speed ~0.012 and K = 10 (cell width 0.1), consecutive
        // positions should almost always land in adjacent cells.
        let mut rng = StdRng::seed_from_u64(4);
        let ds = small().generate(&mut rng);
        let grid = UniformGrid::unit(10);
        let gd = ds.discretize(&grid);
        let raw_streams = ds.trajectories().len();
        let split_streams = gd.num_streams();
        let split_ratio = (split_streams - raw_streams) as f64 / raw_streams as f64;
        assert!(split_ratio < 0.10, "too many non-adjacent jumps: {split_ratio}");
    }

    #[test]
    fn oldenburg_preset_shape() {
        // Scaled-down Oldenburg still shows the Table-I structure: the
        // stream count equals initial + new_per_ts * (ts − 1).
        let config = BrinkhoffConfig::oldenburg().scaled(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        let ds = config.generate(&mut rng);
        assert_eq!(ds.trajectories().len(), 100 + 5 * 499);
        assert_eq!(ds.horizon(), 500);
    }

    #[test]
    fn san_joaquin_preset_parameters() {
        let c = BrinkhoffConfig::san_joaquin();
        assert_eq!(c.initial_objects, 10_000);
        assert_eq!(c.new_per_ts, 1_000);
        assert_eq!(c.timestamps, 1_000);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small().generate(&mut StdRng::seed_from_u64(9));
        let b = small().generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.trajectories().len(), b.trajectories().len());
        assert_eq!(a.trajectories()[5], b.trajectories()[5]);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn scaled_rejects_zero() {
        let _ = BrinkhoffConfig::oldenburg().scaled(0.0);
    }
}
