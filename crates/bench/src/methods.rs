//! The method registry: four LDP-IDS baselines, RetraSyn in both divisions,
//! and the ablation variants of Table IV.

use retrasyn_core::{
    AllocationKind, BaselineKind, Division, LdpIds, LdpIdsConfig, RetraSyn, RetraSynConfig,
    StreamingEngine, TimingReport,
};
use retrasyn_geo::GriddedDataset;

/// Drive any [`StreamingEngine`] over a discretized dataset and verify its
/// privacy ledger — the one generic loop every method (RetraSyn in both
/// divisions, all four baselines) shares. The per-engine `run_gridded`
/// duplicates of the pre-session API are gone; this is their single
/// replacement.
pub fn drive_engine<E: StreamingEngine>(
    engine: &mut E,
    dataset: &GriddedDataset,
) -> GriddedDataset {
    let syn = engine.run_gridded(dataset);
    engine.ledger().verify().expect("w-event invariant");
    syn
}

/// A fully specified method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodSpec {
    /// One of the LDP-IDS mechanisms.
    Baseline(BaselineKind),
    /// RetraSyn with a division and allocation strategy and the two
    /// ablation switches (both `true` for the full method).
    RetraSyn {
        /// Budget or population division.
        division: Division,
        /// Allocation strategy.
        allocation: AllocationKind,
        /// DMU enabled (false = AllUpdate ablation).
        dmu: bool,
        /// Enter/quit modelling enabled (false = NoEQ ablation).
        enter_quit: bool,
    },
}

impl MethodSpec {
    /// The six methods of Table III (baselines + full RetraSyn b/p).
    pub fn table3() -> Vec<MethodSpec> {
        let mut methods: Vec<MethodSpec> =
            BaselineKind::ALL.iter().copied().map(MethodSpec::Baseline).collect();
        methods.push(MethodSpec::retrasyn(Division::Budget));
        methods.push(MethodSpec::retrasyn(Division::Population));
        methods
    }

    /// The six rows of Table IV (AllUpdate b/p, NoEQ b/p, RetraSyn b/p).
    pub fn table4() -> Vec<MethodSpec> {
        let mut rows = Vec::new();
        for division in [Division::Budget, Division::Population] {
            rows.push(MethodSpec::RetraSyn {
                division,
                allocation: AllocationKind::Adaptive,
                dmu: false,
                enter_quit: true,
            });
        }
        for division in [Division::Budget, Division::Population] {
            rows.push(MethodSpec::RetraSyn {
                division,
                allocation: AllocationKind::Adaptive,
                dmu: true,
                enter_quit: false,
            });
        }
        rows.push(MethodSpec::retrasyn(Division::Budget));
        rows.push(MethodSpec::retrasyn(Division::Population));
        rows
    }

    /// Full RetraSyn with adaptive allocation.
    pub fn retrasyn(division: Division) -> MethodSpec {
        MethodSpec::RetraSyn {
            division,
            allocation: AllocationKind::Adaptive,
            dmu: true,
            enter_quit: true,
        }
    }

    /// RetraSyn with an explicit allocation strategy (Fig. 3).
    pub fn retrasyn_with(division: Division, allocation: AllocationKind) -> MethodSpec {
        MethodSpec::RetraSyn { division, allocation, dmu: true, enter_quit: true }
    }

    /// Display name following the paper's tables.
    pub fn name(self) -> String {
        match self {
            MethodSpec::Baseline(kind) => kind.name().to_string(),
            MethodSpec::RetraSyn { division, allocation, dmu, enter_quit } => {
                let suffix = match division {
                    Division::Budget => "b",
                    Division::Population => "p",
                };
                let base = match (dmu, enter_quit) {
                    (false, _) => "AllUpdate",
                    (true, false) => "NoEQ",
                    (true, true) => "RetraSyn",
                };
                match allocation {
                    AllocationKind::Adaptive => format!("{base}{suffix}"),
                    AllocationKind::Uniform => format!("Uniform{suffix}"),
                    AllocationKind::Sample => format!("Sample{suffix}"),
                    AllocationKind::RandomReport => format!("Random{suffix}"),
                }
            }
        }
    }

    /// Run the method over a discretized dataset; returns the synthetic
    /// database and, for RetraSyn, the component timing report.
    pub fn run(
        self,
        dataset: &GriddedDataset,
        eps: f64,
        w: usize,
        seed: u64,
    ) -> (GriddedDataset, Option<TimingReport>) {
        let topology = dataset.topology().clone();
        match self {
            MethodSpec::Baseline(kind) => {
                let config = LdpIdsConfig::new(eps, w);
                let mut engine = LdpIds::new(kind, config, topology, seed);
                (drive_engine(&mut engine, dataset), None)
            }
            MethodSpec::RetraSyn { division, allocation, dmu, enter_quit } => {
                let mut config = RetraSynConfig::new(eps, w)
                    .with_allocation(allocation)
                    .with_lambda(dataset.avg_length().max(1.0));
                config.dmu = dmu;
                config.enter_quit = enter_quit;
                let mut engine = RetraSyn::new(config, topology, division, seed);
                let syn = drive_engine(&mut engine, dataset);
                (syn, Some(engine.timing_report()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_datagen::RandomWalkConfig;
    use retrasyn_geo::UniformGrid;

    #[test]
    fn registry_contents() {
        let t3 = MethodSpec::table3();
        assert_eq!(t3.len(), 6);
        let names: Vec<String> = t3.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["LBD", "LBA", "LPD", "LPA", "RetraSynb", "RetraSynp"]);
        let t4 = MethodSpec::table4();
        let names: Vec<String> = t4.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["AllUpdateb", "AllUpdatep", "NoEQb", "NoEQp", "RetraSynb", "RetraSynp"]);
    }

    #[test]
    fn allocation_names() {
        let m = MethodSpec::retrasyn_with(Division::Population, AllocationKind::Sample);
        assert_eq!(m.name(), "Samplep");
        let m = MethodSpec::retrasyn_with(Division::Budget, AllocationKind::Uniform);
        assert_eq!(m.name(), "Uniformb");
    }

    #[test]
    fn every_method_runs_on_a_tiny_dataset() {
        let ds = RandomWalkConfig { users: 80, timestamps: 15, ..Default::default() }
            .generate(&mut StdRng::seed_from_u64(1));
        let grid = UniformGrid::unit(4);
        let gridded = ds.discretize(&grid);
        for spec in MethodSpec::table3().into_iter().chain(MethodSpec::table4()) {
            let (syn, timings) = spec.run(&gridded, 1.0, 5, 3);
            assert_eq!(syn.horizon(), 15, "{}", spec.name());
            assert!(!syn.is_empty(), "{}", spec.name());
            match spec {
                MethodSpec::Baseline(_) => assert!(timings.is_none()),
                MethodSpec::RetraSyn { .. } => assert!(timings.is_some()),
            }
        }
    }
}
