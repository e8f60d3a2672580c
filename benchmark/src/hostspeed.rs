//! How fast the host runs right now, and a stopwatch that divides by it.
//!
//! The sandbox is a guest on a shared machine, and what it gets changes
//! by the second and by the minute with nothing else running inside it:
//! the core's clock steps between two speeds 29% apart, a neighbour on
//! the sibling hardware thread takes a share of the core's issue slots
//! and caches, and the medians of one unchanged closed loop lay 30% apart
//! between one minute and the next. No run length a benchmark can afford
//! averages that out. So every closed loop is cut into short blocks, a
//! fixed piece of reference work is timed between every two blocks, and a
//! block's times are divided by how much slower than its nominal time the
//! reference work ran around it: a reading says what the work would take
//! on a host at reference speed, whatever the host does meanwhile.
//!
//! The reference work is a clone of a map of 128 tables of strings, built
//! here: allocation, copying and pointer-chasing inside the first two
//! cache levels, the mix a SQL planner is made of. A chain of dependent
//! integer operations, tried first, follows the clock steps but not the
//! neighbour (a chain that issues one operation per cycle loses nothing
//! to a sibling thread); divided by it, ten-run quartiles of `sql_adhoc`
//! lay 10% of the median apart, divided by the clone 4%. The reference
//! calls nothing of the workspace, so no change to the program under
//! test can move it.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Clones per reading; the median counts, so an interrupt spoils a clone
/// and not the reading.
const REFERENCE_CLONES: usize = 8;

/// What one clone takes at reference speed, ns (the sandbox's faster
/// clock, no neighbour).
const REFERENCE_CLONE_NS: f64 = 40_000.0;

type ReferenceTables = BTreeMap<String, Vec<(String, u64)>>;

fn reference_tables() -> &'static ReferenceTables {
    static TABLES: OnceLock<ReferenceTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        (0..128u64)
            .map(|t| {
                let columns = (0..8).map(|c| (format!("column_{c}_of_{t}"), c)).collect();
                (format!("T{}_{}", 1000 * (t + 1), 40 + t % 7), columns)
            })
            .collect()
    })
}

/// How much slower than reference speed the host runs right now (about
/// half a millisecond of reference work).
pub fn host_slowdown() -> f64 {
    let tables = reference_tables();
    let mut ns = [0.0; REFERENCE_CLONES];
    for slot in &mut ns {
        let started = Instant::now();
        black_box(black_box(tables).clone());
        *slot = started.elapsed().as_nanos() as f64;
    }
    median(&ns) / REFERENCE_CLONE_NS
}

/// A stopwatch at reference speed: work is timed in stretches, each
/// closed by a [`host_slowdown`] reading, and a stretch counts for its
/// wall time divided by the mean of the readings at its two ends. The
/// readings themselves are not part of any stretch.
pub struct ReferenceTimer {
    reading: f64,
    stretch: Instant,
    /// Seconds at reference speed of every stretch closed so far.
    pub secs: f64,
}

/// One closed stretch of a [`ReferenceTimer`].
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Wall seconds of the stretch.
    pub wall_secs: f64,
    /// Mean of the host slow-down read before and after it.
    pub slowdown: f64,
}

impl ReferenceTimer {
    /// Takes the first reading; the first stretch starts after it.
    pub fn start() -> Self {
        ReferenceTimer {
            reading: host_slowdown(),
            stretch: Instant::now(),
            secs: 0.0,
        }
    }

    /// Closes the stretch that has run since the previous reading and
    /// starts the next one.
    pub fn lap(&mut self) -> Lap {
        let wall_secs = self.stretch.elapsed().as_secs_f64();
        let after = host_slowdown();
        let slowdown = (self.reading + after) / 2.0;
        self.reading = after;
        self.secs += wall_secs / slowdown;
        self.stretch = Instant::now();
        Lap {
            wall_secs,
            slowdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_slowdown_is_positive_and_repeats() {
        let readings: Vec<f64> = (0..5).map(|_| host_slowdown()).collect();
        let (lo, hi) = (
            readings.iter().copied().fold(f64::MAX, f64::min),
            readings.iter().copied().fold(0.0, f64::max),
        );
        assert!(lo > 0.0 && hi / lo < 3.0, "{readings:?}");
    }

    #[test]
    fn reference_timer_counts_stretches_and_not_readings() {
        let mut timer = ReferenceTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let lap = timer.lap();
        assert!(lap.wall_secs >= 0.02 && lap.wall_secs < 0.2, "{lap:?}");
        assert!(lap.slowdown > 0.0);
        assert!((timer.secs - lap.wall_secs / lap.slowdown).abs() < 1e-12);
        let second = timer.lap();
        // Nothing ran between the two readings.
        assert!(second.wall_secs < 0.005, "{second:?}");
    }
}
