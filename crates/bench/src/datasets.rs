//! The three evaluation datasets (Table I), generated by the substrates in
//! `retrasyn-datagen` (see DESIGN.md §3 for the substitution rationale).

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_datagen::{BrinkhoffConfig, TDriveConfig};
use retrasyn_geo::StreamDataset;

/// The paper's three datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Beijing-taxi-like streams (886 ts at full scale).
    TDrive,
    /// Brinkhoff Oldenburg preset (500 ts).
    Oldenburg,
    /// Brinkhoff San Joaquin preset (1000 ts).
    SanJoaquin,
}

impl DatasetKind {
    /// All three, in the paper's order.
    pub const ALL: [DatasetKind; 3] =
        [DatasetKind::TDrive, DatasetKind::Oldenburg, DatasetKind::SanJoaquin];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::TDrive => "T-Drive",
            DatasetKind::Oldenburg => "Oldenburg",
            DatasetKind::SanJoaquin => "SanJoaquin",
        }
    }

    /// Parse from a CLI name (case-insensitive, `-`/`_` ignored).
    pub fn parse(s: &str) -> Option<DatasetKind> {
        let key: String =
            s.chars().filter(|c| c.is_alphanumeric()).collect::<String>().to_lowercase();
        match key.as_str() {
            "tdrive" => Some(DatasetKind::TDrive),
            "oldenburg" => Some(DatasetKind::Oldenburg),
            "sanjoaquin" => Some(DatasetKind::SanJoaquin),
            _ => None,
        }
    }

    /// Generate the dataset at `scale ∈ (0, 1]` of the paper's size
    /// (user counts scale; the time axis is preserved).
    pub fn generate(self, scale: f64, seed: u64) -> StreamDataset {
        let mut rng = StdRng::seed_from_u64(seed ^ self.seed_salt());
        match self {
            DatasetKind::TDrive => TDriveConfig::paper().scaled(scale).generate(&mut rng),
            DatasetKind::Oldenburg => BrinkhoffConfig::oldenburg().scaled(scale).generate(&mut rng),
            DatasetKind::SanJoaquin => {
                BrinkhoffConfig::san_joaquin().scaled(scale).generate(&mut rng)
            }
        }
    }

    fn seed_salt(self) -> u64 {
        match self {
            DatasetKind::TDrive => 0x7D21,
            DatasetKind::Oldenburg => 0x01DE,
            DatasetKind::SanJoaquin => 0x5A90,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names() {
        assert_eq!(DatasetKind::parse("T-Drive"), Some(DatasetKind::TDrive));
        assert_eq!(DatasetKind::parse("oldenburg"), Some(DatasetKind::Oldenburg));
        assert_eq!(DatasetKind::parse("san_joaquin"), Some(DatasetKind::SanJoaquin));
        assert_eq!(DatasetKind::parse("nope"), None);
    }

    #[test]
    fn tiny_generation_works_for_all() {
        for kind in DatasetKind::ALL {
            let ds = kind.generate(0.002, 1);
            let stats = ds.stats();
            assert!(stats.streams > 0, "{}", kind.name());
            assert!(stats.points > 0, "{}", kind.name());
        }
    }

    #[test]
    fn horizon_matches_table1() {
        assert_eq!(DatasetKind::TDrive.generate(0.002, 1).horizon(), 886);
        assert_eq!(DatasetKind::Oldenburg.generate(0.002, 1).horizon(), 500);
        assert_eq!(DatasetKind::SanJoaquin.generate(0.002, 1).horizon(), 1000);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetKind::TDrive.generate(0.002, 5);
        let b = DatasetKind::TDrive.generate(0.002, 5);
        assert_eq!(a.trajectories().len(), b.trajectories().len());
    }
}
