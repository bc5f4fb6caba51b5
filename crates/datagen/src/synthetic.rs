//! Controlled synthetic generators for tests and ablations.

use rand::Rng;
use retrasyn_geo::{Point, StreamDataset, Trajectory};

/// Lazy random-walk streams: users start uniformly and take small steps.
/// The simplest well-behaved workload for unit tests and the quickstart.
#[derive(Debug, Clone)]
pub struct RandomWalkConfig {
    /// Number of users (one stream each unless `churn > 0`).
    pub users: usize,
    /// Number of timestamps.
    pub timestamps: u64,
    /// Step length per tick.
    pub step: f64,
    /// Per-tick probability a stream ends (a fresh one enters to replace it
    /// at the next tick), creating enter/quit churn.
    pub churn: f64,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        RandomWalkConfig { users: 500, timestamps: 50, step: 0.03, churn: 0.05 }
    }
}

impl RandomWalkConfig {
    /// Generate the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamDataset {
        let mut trajectories = Vec::new();
        let mut next_user = 0u64;
        // Each slot holds one alive stream; on churn the slot re-enters.
        let mut slots: Vec<(u64, u64, Vec<Point>, Point)> = (0..self.users)
            .map(|_| {
                let p = Point::new(rng.random::<f64>(), rng.random::<f64>());
                let id = next_user;
                next_user += 1;
                (id, 0u64, vec![p], p)
            })
            .collect();
        for t in 1..self.timestamps {
            for slot in &mut slots {
                if rng.random::<f64>() < self.churn {
                    // Quit: flush and re-enter somewhere new.
                    let (id, start, points, _) = std::mem::replace(slot, {
                        let p = Point::new(rng.random::<f64>(), rng.random::<f64>());
                        let id = next_user;
                        next_user += 1;
                        (id, t, vec![p], p)
                    });
                    trajectories.push(Trajectory::new(id, start, points));
                } else {
                    let angle = rng.random::<f64>() * std::f64::consts::TAU;
                    let p = Point::new(
                        (slot.3.x + self.step * angle.cos()).clamp(0.0, 1.0),
                        (slot.3.y + self.step * angle.sin()).clamp(0.0, 1.0),
                    );
                    slot.2.push(p);
                    slot.3 = p;
                }
            }
        }
        for (id, start, points, _) in slots {
            trajectories.push(Trajectory::new(id, start, points));
        }
        StreamDataset::with_horizon(trajectories, self.timestamps)
    }
}

/// Two-regime flow workload for DMU tests: until `shift_at` the population
/// flows left-to-right along a corridor; afterwards it flows top-to-bottom.
/// The regime change makes a specific subset of transitions "significant"
/// at the shift, which DMU must detect.
#[derive(Debug, Clone)]
pub struct RegimeShiftConfig {
    /// Number of users.
    pub users: usize,
    /// Number of timestamps.
    pub timestamps: u64,
    /// Timestamp at which the flow direction flips.
    pub shift_at: u64,
    /// Step length per tick.
    pub step: f64,
}

impl Default for RegimeShiftConfig {
    fn default() -> Self {
        RegimeShiftConfig { users: 500, timestamps: 60, shift_at: 30, step: 0.04 }
    }
}

impl RegimeShiftConfig {
    /// Generate the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamDataset {
        let mut trajectories = Vec::with_capacity(self.users);
        for u in 0..self.users {
            // Users sit on a horizontal corridor, drifting right; after the
            // shift they drift downward. Positions wrap around so the flow
            // is stationary within each regime.
            let mut x = rng.random::<f64>();
            let mut y = 0.35 + 0.3 * rng.random::<f64>();
            let mut points = Vec::with_capacity(self.timestamps as usize);
            for t in 0..self.timestamps {
                points.push(Point::new(x, y));
                let jitter = (rng.random::<f64>() - 0.5) * self.step * 0.4;
                if t < self.shift_at {
                    x += self.step + jitter;
                    if x > 1.0 {
                        x -= 1.0;
                    }
                } else {
                    y += self.step + jitter;
                    if y > 1.0 {
                        y -= 1.0;
                    }
                }
                x = x.clamp(0.0, 1.0);
                y = y.clamp(0.0, 1.0);
            }
            trajectories.push(Trajectory::new(u as u64, 0, points));
        }
        StreamDataset::with_horizon(trajectories, self.timestamps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_geo::UniformGrid;

    #[test]
    fn random_walk_covers_horizon() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = RandomWalkConfig { users: 100, timestamps: 30, ..Default::default() }
            .generate(&mut rng);
        assert_eq!(ds.horizon(), 30);
        // With churn, more streams than users.
        assert!(ds.trajectories().len() > 100);
        // Every timestamp has exactly `users` active streams (slots are
        // always occupied).
        for t in 0..30 {
            assert_eq!(ds.active_count(t), 100, "t={t}");
        }
    }

    #[test]
    fn random_walk_zero_churn_one_stream_per_user() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = RandomWalkConfig { users: 50, timestamps: 20, churn: 0.0, ..Default::default() }
            .generate(&mut rng);
        assert_eq!(ds.trajectories().len(), 50);
        for t in ds.trajectories() {
            assert_eq!(t.len(), 20);
        }
    }

    #[test]
    fn random_walk_steps_are_small() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = RandomWalkConfig { users: 20, timestamps: 40, step: 0.02, churn: 0.0 }
            .generate(&mut rng);
        for t in ds.trajectories() {
            for w in t.points.windows(2) {
                assert!(w[0].distance(&w[1]) <= 0.03);
            }
        }
    }

    #[test]
    fn regime_shift_changes_dominant_transitions() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = RegimeShiftConfig { users: 400, timestamps: 40, shift_at: 20, step: 0.05 };
        let ds = config.generate(&mut rng);
        let gd = ds.discretize(&UniformGrid::unit(8));
        let topo = gd.topology();
        // Count horizontal vs vertical cell moves before and after the shift
        // (cells in one column share their center's x, in one row its y).
        let mut before = (0u64, 0u64); // (horizontal, vertical)
        let mut after = (0u64, 0u64);
        for s in gd.iter() {
            for (i, w) in s.cells.windows(2).enumerate() {
                let t = s.start + i as u64 + 1;
                let (a, b) = (topo.center(w[0]), topo.center(w[1]));
                let dx = a.x != b.x;
                let dy = a.y != b.y;
                let target = if t <= 20 { &mut before } else { &mut after };
                if dx && !dy {
                    target.0 += 1;
                }
                if dy && !dx {
                    target.1 += 1;
                }
            }
        }
        assert!(before.0 > 4 * before.1.max(1), "pre-shift flow not horizontal: {before:?}");
        assert!(after.1 > 4 * after.0.max(1), "post-shift flow not vertical: {after:?}");
    }

    #[test]
    fn regime_shift_full_length_streams() {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = RegimeShiftConfig::default().generate(&mut rng);
        assert_eq!(ds.trajectories().len(), 500);
        for t in ds.trajectories() {
            assert_eq!(t.len(), 60);
        }
    }
}
