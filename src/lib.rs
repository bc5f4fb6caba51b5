//! # RetraSyn — real-time trajectory synthesis with local differential privacy
//!
//! This crate is the facade over the full reproduction of *"Real-Time
//! Trajectory Synthesis with Local Differential Privacy"* (ICDE 2024). It
//! re-exports the workspace crates so downstream users can depend on a single
//! crate:
//!
//! - [`ldp`] — LDP mechanisms (OUE, GRR), aggregation, w-event accounting.
//! - [`geo`] — the uniform grid and other spaces compiled to one
//!   topology, trajectories, streams, and the transition-state domain.
//! - [`datagen`] — road-network and taxi stream generators (the evaluation
//!   substrates: Brinkhoff-style Oldenburg/SanJoaquin, T-Drive-like).
//! - [`core`] — the RetraSyn engine (global mobility model, DMU, real-time
//!   synthesis, adaptive allocation), the LDP-IDS baselines, and the
//!   streaming session API that unifies them.
//! - [`metrics`] — every utility metric from the paper's evaluation, plus
//!   live per-snapshot monitors.
//!
//! ## The streaming session model
//!
//! The paper's defining property is that a synthetic database is published
//! at **every timestamp** of an unbounded stream. The API mirrors that: an
//! [`EventSource`](prelude::EventSource) feeds one batch of events per
//! timestamp (from a recorded timeline, an iterator/closure, or a bounded
//! channel fed by a live producer), the engine ingests each batch with
//! `step`, exposes the current synthetic database between steps as a
//! borrowed zero-copy `snapshot()`, and `release()`s the accumulated
//! database — mid-stream or at the horizon — without consuming the engine.
//! Both `RetraSyn` and the `LdpIds` baselines implement
//! [`StreamingEngine`](prelude::StreamingEngine), so drivers, benchmarks
//! and metrics are written once, generically. Batch mode is a special
//! case: `run(&dataset)` just drives a
//! [`TimelineSource`](prelude::TimelineSource) derived from the recorded
//! data.
//!
//! ## Quickstart
//!
//! ```
//! use retrasyn::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. Generate a small trajectory stream (the substrate).
//! let mut rng = StdRng::seed_from_u64(7);
//! let dataset = RandomWalkConfig { users: 200, timestamps: 40, ..Default::default() }
//!     .generate(&mut rng);
//!
//! // 2. Configure RetraSyn: 6x6 grid, eps = 1.0, window w = 10.
//! let grid = UniformGrid::unit(6);
//! let config = RetraSynConfig::new(1.0, 10).with_lambda(dataset.stats().avg_length);
//! let mut engine = RetraSyn::population_division(config, grid.clone(), 7);
//!
//! // 3. Stream: ingest one timestamp at a time, observing the live
//! //    synthetic database in between (post-processing — no extra budget).
//! let gridded = dataset.discretize(&grid);
//! let mut source = TimelineSource::from_gridded(&gridded);
//! while let Some(batch) = source.next_batch() {
//!     let outcome = engine.step(engine.next_timestamp(), batch);
//!     let live = engine.snapshot(); // borrowed, zero-copy
//!     assert_eq!(live.active_count(), outcome.active);
//! }
//!
//! // 4. Release the accumulated synthetic database (also fine mid-stream).
//! let synthetic = engine.release();
//! assert_eq!(synthetic.horizon(), dataset.horizon());
//! engine.ledger().verify().expect("w-event LDP accounting holds");
//!
//! // 5. Batch mode is the same thing in one call (on a fresh session).
//! engine.reset();
//! let again = engine.run(&dataset);
//! assert_eq!(again, synthetic);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use retrasyn_core as core;
pub use retrasyn_datagen as datagen;
pub use retrasyn_geo as geo;
pub use retrasyn_ldp as ldp;
pub use retrasyn_metrics as metrics;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use retrasyn_core::{
        AllocationKind, BaselineKind, BatchSender, ChannelSource, CheckpointUse, Checkpointer,
        CompactionPolicy, CompactionStats, Division, EventFault, EventSource, FnSource,
        FsyncPolicy, IngestPolicy, IngestStats, IterSource, LdpIds, LdpIdsConfig, QuarantinedEvent,
        Recovery, RetraSyn, RetraSynConfig, SessionError, SnapshotStream, SnapshotView,
        StallPolicy, StepOutcome, StepVerdict, StreamingEngine, SuperviseError, Supervisor,
        SupervisorStats, TimelineSource, ValidatedSource, WalContents, WalError, WalSource,
        WalWriter,
    };
    pub use retrasyn_datagen::{
        BrinkhoffConfig, RandomWalkConfig, RegimeShiftConfig, RoadNetwork, TDriveConfig,
    };
    pub use retrasyn_geo::{
        BoundingBox, CellId, EventTimeline, GriddedDataset, Point, QuadGrid, QuadLeaf, Space,
        SpaceDescriptor, StreamDataset, Topology, Trajectory, TransitionTable, UniformGrid,
        UserEvent,
    };
    pub use retrasyn_ldp::{Oue, PrivacyBudget, WEventLedger};
    pub use retrasyn_metrics::{MetricSuite, SuiteConfig};
}
