//! T-Drive-like taxi stream simulator.
//!
//! The real T-Drive dataset (10,357 Beijing taxis over one week, discretized
//! by the paper to 886 ten-minute timestamps inside the 5th ring) is not
//! available, so this module simulates its load-bearing characteristics:
//!
//! - **Skewed spatial density** — taxis shuttle between Gaussian hotspots
//!   (a dense centre, business districts, residential clusters).
//! - **Time-of-day dynamics** — destination choice is re-weighted by a
//!   morning rush (residential → business), an evening rush (reverse) and a
//!   flat off-peak regime, producing the regime shifts DMU exploits.
//! - **Fragmented streams** — GPS dropout (tunnels, switched-off devices)
//!   follows an on/off Markov chain per taxi; each maximal "on" run becomes
//!   one stream, matching T-Drive's short 13.6-point average stream length.

use rand::Rng;
use retrasyn_geo::{Point, StreamDataset, Trajectory};

/// Configuration of the taxi simulator.
#[derive(Debug, Clone)]
pub struct TDriveConfig {
    /// Number of taxis.
    pub taxis: usize,
    /// Number of timestamps (the paper uses 886 ≈ one week at 10 min).
    pub timestamps: u64,
    /// Timestamps per simulated day (defines the rush-hour phase).
    pub day_length: u64,
    /// Per-tick probability that a reporting taxi loses signal.
    pub off_prob: f64,
    /// Per-tick probability that a silent taxi resumes reporting.
    pub on_prob: f64,
    /// Distance travelled per tick toward the destination.
    pub speed: f64,
    /// Isotropic Gaussian jitter added to each step.
    pub jitter: f64,
}

impl Default for TDriveConfig {
    fn default() -> Self {
        TDriveConfig {
            taxis: 1000,
            timestamps: 200,
            day_length: 144, // 10-minute ticks
            off_prob: 1.0 / 13.6,
            on_prob: 0.04,
            speed: 0.025,
            jitter: 0.004,
        }
    }
}

impl TDriveConfig {
    /// The full Table-I preset (10,357 taxis, 886 timestamps).
    pub fn paper() -> Self {
        TDriveConfig { taxis: 10_357, timestamps: 886, ..Default::default() }
    }

    /// Scale the taxi count by `f` (time span unchanged).
    pub fn scaled(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        self.taxis = ((self.taxis as f64 * f).round() as usize).max(1);
        self
    }

    /// Generate the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamDataset {
        let city = City::beijing_like();
        let mut trajectories = Vec::new();
        let mut taxis: Vec<Taxi> =
            (0..self.taxis).map(|i| Taxi::spawn(i as u64, &city, self, rng)).collect();
        for t in 0..self.timestamps {
            let phase = DayPhase::of(t, self.day_length);
            for taxi in &mut taxis {
                taxi.tick(t, phase, &city, self, rng, &mut trajectories);
            }
        }
        // Flush still-open streams.
        for taxi in &mut taxis {
            taxi.flush(&mut trajectories);
        }
        StreamDataset::with_horizon(trajectories, self.timestamps)
    }
}

/// Rush-hour phases of the simulated day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayPhase {
    /// Morning rush: residential → business flows dominate.
    Morning,
    /// Evening rush: business → residential flows dominate.
    Evening,
    /// Off-peak: uniform hotspot gravity.
    OffPeak,
}

impl DayPhase {
    /// Phase of timestamp `t` given the day length (morning = hours 7–10,
    /// evening = hours 17–20 of a 24-hour day).
    pub fn of(t: u64, day_length: u64) -> DayPhase {
        let frac = (t % day_length) as f64 / day_length as f64;
        if (0.29..0.42).contains(&frac) {
            DayPhase::Morning
        } else if (0.71..0.83).contains(&frac) {
            DayPhase::Evening
        } else {
            DayPhase::OffPeak
        }
    }
}

/// Hotspot kinds steer the rush-hour gravity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HotspotKind {
    Business,
    Residential,
    Leisure,
}

struct Hotspot {
    center: Point,
    sigma: f64,
    weight: f64,
    kind: HotspotKind,
}

struct City {
    hotspots: Vec<Hotspot>,
}

impl City {
    /// A Beijing-like layout: a dense business core, ring of residential
    /// clusters, a couple of leisure areas.
    fn beijing_like() -> Self {
        use HotspotKind::*;
        let h = |x: f64, y: f64, sigma: f64, weight: f64, kind| Hotspot {
            center: Point::new(x, y),
            sigma,
            weight,
            kind,
        };
        City {
            hotspots: vec![
                h(0.50, 0.52, 0.06, 3.0, Business),
                h(0.62, 0.60, 0.05, 1.5, Business),
                h(0.40, 0.42, 0.05, 1.2, Business),
                h(0.20, 0.75, 0.07, 1.4, Residential),
                h(0.80, 0.78, 0.07, 1.4, Residential),
                h(0.18, 0.22, 0.07, 1.3, Residential),
                h(0.82, 0.25, 0.07, 1.3, Residential),
                h(0.50, 0.85, 0.06, 0.8, Leisure),
                h(0.65, 0.15, 0.06, 0.7, Leisure),
            ],
        }
    }

    /// Sample a destination according to the phase-adjusted gravity.
    fn sample_destination<R: Rng + ?Sized>(&self, phase: DayPhase, rng: &mut R) -> Point {
        let adjusted: Vec<f64> = self
            .hotspots
            .iter()
            .map(|h| {
                let boost = match (phase, h.kind) {
                    (DayPhase::Morning, HotspotKind::Business) => 4.0,
                    (DayPhase::Evening, HotspotKind::Residential) => 4.0,
                    (DayPhase::Evening, HotspotKind::Leisure) => 2.0,
                    _ => 1.0,
                };
                h.weight * boost
            })
            .collect();
        let total: f64 = adjusted.iter().sum();
        let mut pick = rng.random::<f64>() * total;
        let mut idx = 0;
        for (i, w) in adjusted.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
        }
        let h = &self.hotspots[idx];
        let gx = crate::gaussian(rng) * h.sigma;
        let gy = crate::gaussian(rng) * h.sigma;
        Point::new((h.center.x + gx).clamp(0.0, 1.0), (h.center.y + gy).clamp(0.0, 1.0))
    }
}

struct Taxi {
    user: u64,
    pos: Point,
    dest: Point,
    reporting: bool,
    /// Open stream: (start timestamp, points so far).
    open: Option<(u64, Vec<Point>)>,
}

impl Taxi {
    fn spawn<R: Rng + ?Sized>(user: u64, city: &City, _config: &TDriveConfig, rng: &mut R) -> Self {
        let pos = city.sample_destination(DayPhase::OffPeak, rng);
        let dest = city.sample_destination(DayPhase::OffPeak, rng);
        Taxi { user, pos, dest, reporting: rng.random::<f64>() < 0.35, open: None }
    }

    fn tick<R: Rng + ?Sized>(
        &mut self,
        t: u64,
        phase: DayPhase,
        city: &City,
        config: &TDriveConfig,
        rng: &mut R,
        out: &mut Vec<Trajectory>,
    ) {
        // Drive toward the destination regardless of reporting state.
        let d = self.pos.distance(&self.dest);
        if d <= config.speed {
            self.pos = self.dest;
            self.dest = city.sample_destination(phase, rng);
        } else {
            let step = config.speed / d;
            self.pos = Point::new(
                (self.pos.x
                    + (self.dest.x - self.pos.x) * step
                    + crate::gaussian(rng) * config.jitter)
                    .clamp(0.0, 1.0),
                (self.pos.y
                    + (self.dest.y - self.pos.y) * step
                    + crate::gaussian(rng) * config.jitter)
                    .clamp(0.0, 1.0),
            );
        }
        // On/off signal chain.
        if self.reporting {
            match &mut self.open {
                Some((_, points)) => points.push(self.pos),
                None => self.open = Some((t, vec![self.pos])),
            }
            if rng.random::<f64>() < config.off_prob {
                self.reporting = false;
                self.flush(out);
            }
        } else if rng.random::<f64>() < config.on_prob {
            self.reporting = true;
        }
    }

    fn flush(&mut self, out: &mut Vec<Trajectory>) {
        if let Some((start, points)) = self.open.take() {
            if !points.is_empty() {
                out.push(Trajectory::new(self.user, start, points));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_geo::UniformGrid;

    fn small() -> TDriveConfig {
        TDriveConfig { taxis: 300, timestamps: 150, ..Default::default() }
    }

    #[test]
    fn generates_fragmented_streams() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = small().generate(&mut rng);
        let stats = ds.stats();
        // Many more streams than taxis (fragmentation) with a short mean.
        assert!(stats.streams > 300, "streams={}", stats.streams);
        assert!(
            stats.avg_length > 6.0 && stats.avg_length < 25.0,
            "avg_length={}",
            stats.avg_length
        );
        assert_eq!(stats.timestamps, 150);
    }

    #[test]
    fn points_stay_in_unit_square() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = small().generate(&mut rng);
        for t in ds.trajectories() {
            for p in &t.points {
                assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
            }
        }
    }

    #[test]
    fn density_is_skewed_toward_hotspots() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = small().generate(&mut rng);
        let grid = UniformGrid::unit(6);
        let gd = ds.discretize(&grid);
        let totals = gd.total_counts();
        let max = *totals.iter().max().unwrap() as f64;
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        assert!(max > 3.0 * mean, "density not skewed: max={max} mean={mean}");
    }

    #[test]
    fn day_phase_schedule() {
        let day = 144;
        // Hour 8 of 24 -> tick 48 -> morning.
        assert_eq!(DayPhase::of(48, day), DayPhase::Morning);
        // Hour 18 -> tick 108 -> evening.
        assert_eq!(DayPhase::of(108, day), DayPhase::Evening);
        // Hour 0 and hour 13 -> off-peak.
        assert_eq!(DayPhase::of(0, day), DayPhase::OffPeak);
        assert_eq!(DayPhase::of(78, day), DayPhase::OffPeak);
        // Phases repeat daily.
        assert_eq!(DayPhase::of(48 + day, day), DayPhase::Morning);
    }

    #[test]
    fn paper_preset_shape() {
        let c = TDriveConfig::paper();
        assert_eq!(c.taxis, 10_357);
        assert_eq!(c.timestamps, 886);
        let scaled = c.scaled(0.1);
        assert_eq!(scaled.taxis, 1036);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small().generate(&mut StdRng::seed_from_u64(4));
        let b = small().generate(&mut StdRng::seed_from_u64(4));
        assert_eq!(a.trajectories().len(), b.trajectories().len());
        assert_eq!(a.trajectories()[0], b.trajectories()[0]);
    }

    #[test]
    fn streams_mostly_adjacent_on_default_grid() {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = small().generate(&mut rng);
        let grid = UniformGrid::unit(6);
        let gd = ds.discretize(&grid);
        let split_ratio =
            (gd.num_streams() - ds.trajectories().len()) as f64 / ds.trajectories().len() as f64;
        assert!(split_ratio < 0.15, "split ratio {split_ratio}");
    }
}
