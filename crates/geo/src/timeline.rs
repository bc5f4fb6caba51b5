//! Per-timestamp transition events derived from a gridded database.
//!
//! At each timestamp every participating stream holds exactly one
//! [`TransitionState`] (① in the paper's Fig. 2):
//!
//! - at its entering timestamp `a`: `Enter(c_a)`;
//! - at `a < t ≤ end`: `Move(c_{t−1}, c_t)`;
//! - at `end + 1` (if within the horizon): the final farewell report
//!   `Quit(c_end)` — "the cessation of a user's reporting activity, with the
//!   final reported location being c_j" (Definition 5). Without this report
//!   the quitting distribution `Q` would be unlearnable.

use crate::gridded::GriddedDataset;
use crate::transition::TransitionState;

/// One stream's transition state at a specific timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserEvent {
    /// Reporting stream id (the paper's "user"; split streams report as
    /// independent units).
    pub user: u64,
    /// The state held at this timestamp.
    pub state: TransitionState,
}

/// All transition events of a gridded database, indexed by timestamp.
#[derive(Debug, Clone)]
pub struct EventTimeline {
    events: Vec<Vec<UserEvent>>,
}

impl EventTimeline {
    /// Derive the timeline from a gridded database.
    pub fn build(dataset: &GriddedDataset) -> Self {
        let horizon = dataset.horizon() as usize;
        // Size every timestamp's batch exactly before filling it: a stream
        // reports at `start..=end + 1`, so a difference array over the
        // horizon counts each batch in O(streams + horizon).
        let mut delta = vec![0isize; horizon + 1];
        for s in dataset.iter() {
            let first = (s.start as usize).min(horizon);
            let last = ((s.end() + 2) as usize).min(horizon);
            delta[first] += 1;
            delta[last] -= 1;
        }
        let mut running = 0isize;
        let mut events: Vec<Vec<UserEvent>> = delta[..horizon]
            .iter()
            .map(|&d| {
                running += d;
                Vec::with_capacity(running as usize)
            })
            .collect();
        for s in dataset.iter() {
            let id = s.id;
            // Enter at start.
            if (s.start as usize) < horizon {
                events[s.start as usize]
                    .push(UserEvent { user: id, state: TransitionState::Enter(s.cells[0]) });
            }
            // Moves.
            for (i, w) in s.cells.windows(2).enumerate() {
                let t = s.start as usize + i + 1;
                if t < horizon {
                    events[t].push(UserEvent {
                        user: id,
                        state: TransitionState::Move { from: w[0], to: w[1] },
                    });
                }
            }
            // Farewell quit one step after the end, if the stream does not
            // survive to the end of the horizon.
            let quit_t = s.end() + 1;
            if (quit_t as usize) < horizon {
                events[quit_t as usize]
                    .push(UserEvent { user: id, state: TransitionState::Quit(s.last_cell()) });
            }
        }
        EventTimeline { events }
    }

    /// Events at timestamp `t` (empty slice beyond the horizon).
    pub fn at(&self, t: u64) -> &[UserEvent] {
        self.events.get(t as usize).map_or(&[], Vec::as_slice)
    }

    /// Number of timestamps.
    pub fn horizon(&self) -> u64 {
        self.events.len() as u64
    }

    /// Total number of events across all timestamps.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridded::{GriddedDataset, GriddedStream};
    use crate::space::UniformGrid;

    fn dataset() -> GriddedDataset {
        let grid = UniformGrid::unit(3);
        let streams = vec![
            // Active at t=1..3, quits -> farewell at t=4.
            GriddedStream {
                id: 0,
                start: 1,
                cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(1, 1)],
            },
            // Active at t=4 only (horizon 5): farewell would be at 5 — out.
            GriddedStream { id: 1, start: 4, cells: vec![grid.cell_at(2, 2)] },
        ];
        GriddedDataset::from_streams(grid, streams, 5)
    }

    #[test]
    fn enter_move_quit_sequence() {
        let ds = dataset();
        let grid = UniformGrid::unit(3);
        let tl = EventTimeline::build(&ds);
        assert_eq!(tl.horizon(), 5);
        assert!(tl.at(0).is_empty());
        assert_eq!(
            tl.at(1),
            &[UserEvent { user: 0, state: TransitionState::Enter(grid.cell_at(0, 0)) }]
        );
        assert_eq!(
            tl.at(2),
            &[UserEvent {
                user: 0,
                state: TransitionState::Move { from: grid.cell_at(0, 0), to: grid.cell_at(1, 0) },
            }]
        );
        assert_eq!(
            tl.at(3),
            &[UserEvent {
                user: 0,
                state: TransitionState::Move { from: grid.cell_at(1, 0), to: grid.cell_at(1, 1) },
            }]
        );
        // t=4: stream 0's farewell quit + stream 1's enter.
        let at4 = tl.at(4);
        assert_eq!(at4.len(), 2);
        assert!(
            at4.contains(&UserEvent { user: 0, state: TransitionState::Quit(grid.cell_at(1, 1)) })
        );
        assert!(
            at4.contains(&UserEvent { user: 1, state: TransitionState::Enter(grid.cell_at(2, 2)) })
        );
    }

    /// Each batch is allocated at its exact size, including a stream
    /// clipped by the horizon.
    #[test]
    fn batches_are_sized_exactly() {
        let tl = EventTimeline::build(&dataset());
        for batch in &tl.events {
            assert_eq!(batch.capacity(), batch.len());
        }
    }

    #[test]
    fn stream_surviving_to_horizon_has_no_quit() {
        let ds = dataset();
        let tl = EventTimeline::build(&ds);
        let quits: usize = (0..5)
            .flat_map(|t| tl.at(t))
            .filter(|e| matches!(e.state, TransitionState::Quit(_)))
            .count();
        assert_eq!(quits, 1); // only stream 0 quits inside the horizon
    }

    #[test]
    fn event_counts() {
        let ds = dataset();
        let tl = EventTimeline::build(&ds);
        // Stream 0: enter + 2 moves + quit = 4; stream 1: enter = 1.
        assert_eq!(tl.total_events(), 5);
        // One state per stream per timestamp.
        for t in 0..5 {
            let mut users: Vec<u64> = tl.at(t).iter().map(|e| e.user).collect();
            users.sort_unstable();
            users.dedup();
            assert_eq!(users.len(), tl.at(t).len());
        }
    }

    #[test]
    fn beyond_horizon_is_empty() {
        let ds = dataset();
        let tl = EventTimeline::build(&ds);
        assert!(tl.at(99).is_empty());
    }
}
