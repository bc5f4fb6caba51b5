//! Collections of raw trajectory streams (the original database `T_orig`).

use crate::gridded::GriddedDataset;
use crate::point::Point;
use crate::space::Space;
use crate::trajectory::Trajectory;

/// The original stream database `T_orig` (Definition 4): a set of trajectory
/// streams over a common discrete time axis `0..horizon`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDataset {
    trajectories: Vec<Trajectory>,
    horizon: u64,
}

/// Summary statistics in the shape of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of streams ("Size" in Table I).
    pub streams: usize,
    /// Total number of reported locations ("# of Points").
    pub points: usize,
    /// Mean stream length ("Average Length").
    pub avg_length: f64,
    /// Number of timestamps.
    pub timestamps: u64,
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "streams={} points={} avg_length={:.2} timestamps={}",
            self.streams, self.points, self.avg_length, self.timestamps
        )
    }
}

impl StreamDataset {
    /// Build a dataset; the horizon is one past the last reported timestamp.
    pub fn new(trajectories: Vec<Trajectory>) -> Self {
        let horizon = trajectories.iter().map(|t| t.end() + 1).max().unwrap_or(0);
        StreamDataset { trajectories, horizon }
    }

    /// Build with an explicit horizon (≥ the computed one) so datasets with
    /// trailing empty timestamps compare cleanly.
    pub fn with_horizon(trajectories: Vec<Trajectory>, horizon: u64) -> Self {
        let computed = trajectories.iter().map(|t| t.end() + 1).max().unwrap_or(0);
        assert!(horizon >= computed, "horizon {horizon} < last report {computed}");
        StreamDataset { trajectories, horizon }
    }

    /// The streams.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// Number of timestamps (timestamps run `0..horizon`).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Locations of all streams active at timestamp `t`.
    pub fn active_points(&self, t: u64) -> impl Iterator<Item = (&Trajectory, &Point)> {
        self.trajectories.iter().filter_map(move |tr| tr.point_at(t).map(|p| (tr, p)))
    }

    /// Number of streams active at `t`.
    pub fn active_count(&self, t: u64) -> usize {
        self.trajectories.iter().filter(|tr| tr.active_at(t)).count()
    }

    /// Table-I style statistics. (`avg_length` counts raw stream lengths;
    /// gap/jump splitting is applied later by [`Self::discretize`].)
    pub fn stats(&self) -> DatasetStats {
        let points: usize = self.trajectories.iter().map(Trajectory::len).sum();
        let streams = self.trajectories.len();
        DatasetStats {
            streams,
            points,
            avg_length: if streams == 0 { 0.0 } else { points as f64 / streams as f64 },
            timestamps: self.horizon,
        }
    }

    /// Discretize all streams against any space (a grid, a quad tree, a
    /// compiled topology), splitting at non-adjacent cell jumps (see
    /// [`GriddedDataset::from_dataset`]).
    pub fn discretize(&self, space: &impl Space) -> GriddedDataset {
        GriddedDataset::from_dataset(self, space)
    }

    /// Keep a deterministic fraction of the streams (every ⌈1/fraction⌉-th
    /// stream), preserving the horizon. Used by the scalability experiment
    /// (Fig. 7), which varies dataset size at fixed time span.
    pub fn subsample(&self, fraction: f64) -> StreamDataset {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        if fraction >= 1.0 {
            return self.clone();
        }
        let keep_every = (1.0 / fraction).round().max(1.0) as usize;
        let trajectories: Vec<Trajectory> = self
            .trajectories
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_every == 0)
            .map(|(_, t)| t.clone())
            .collect();
        StreamDataset { trajectories, horizon: self.horizon }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make() -> StreamDataset {
        StreamDataset::new(vec![
            Trajectory::new(0, 0, vec![Point::new(0.1, 0.1), Point::new(0.2, 0.1)]),
            Trajectory::new(1, 1, vec![Point::new(0.9, 0.9)]),
            Trajectory::new(2, 3, vec![Point::new(0.5, 0.5), Point::new(0.5, 0.6)]),
        ])
    }

    #[test]
    fn horizon_is_one_past_last_report() {
        let ds = make();
        assert_eq!(ds.horizon(), 5);
    }

    #[test]
    fn active_counts() {
        let ds = make();
        assert_eq!(ds.active_count(0), 1);
        assert_eq!(ds.active_count(1), 2);
        assert_eq!(ds.active_count(2), 0);
        assert_eq!(ds.active_count(3), 1);
        assert_eq!(ds.active_count(4), 1);
    }

    #[test]
    fn active_points_yields_locations() {
        let ds = make();
        let pts: Vec<_> = ds.active_points(1).collect();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn stats_match_contents() {
        let ds = make();
        let s = ds.stats();
        assert_eq!(s.streams, 3);
        assert_eq!(s.points, 5);
        assert!((s.avg_length - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.timestamps, 5);
        assert!(s.to_string().contains("streams=3"));
    }

    #[test]
    fn with_horizon_extends() {
        let ds = StreamDataset::with_horizon(
            vec![Trajectory::new(0, 0, vec![Point::new(0.0, 0.0)])],
            10,
        );
        assert_eq!(ds.horizon(), 10);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn with_horizon_too_small_rejected() {
        let _ = StreamDataset::with_horizon(
            vec![Trajectory::new(0, 0, vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)])],
            1,
        );
    }

    #[test]
    fn subsample_keeps_fraction() {
        let trajs: Vec<Trajectory> =
            (0..100).map(|i| Trajectory::new(i, 0, vec![Point::new(0.5, 0.5)])).collect();
        let ds = StreamDataset::new(trajs);
        let half = ds.subsample(0.5);
        assert_eq!(half.trajectories().len(), 50);
        assert_eq!(half.horizon(), ds.horizon());
        let fifth = ds.subsample(0.2);
        assert_eq!(fifth.trajectories().len(), 20);
        let all = ds.subsample(1.0);
        assert_eq!(all.trajectories().len(), 100);
    }

    #[test]
    fn empty_dataset() {
        let ds = StreamDataset::new(vec![]);
        assert_eq!(ds.horizon(), 0);
        let s = ds.stats();
        assert_eq!(s.streams, 0);
        assert_eq!(s.avg_length, 0.0);
    }
}
