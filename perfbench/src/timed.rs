//! Timing decorators around the two public layer traits. They measure a
//! layer from outside the program: each call into the wrapped checker or
//! index is timed as a whole and counted, without touching the crates.

use std::cell::Cell;
use std::time::{Duration, Instant};

use moped_collision::{CollisionChecker, CollisionLedger};
use moped_core::NeighborIndex;
use moped_geometry::{Config, InterpolationSteps, OpCount};
use moped_robot::Robot;

/// Busy time and call count of one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub time: Duration,
    pub calls: u64,
}

impl Tally {
    fn add(cell: &Cell<Tally>, started: Instant) {
        let mut t = cell.get();
        t.time += started.elapsed();
        t.calls += 1;
        cell.set(t);
    }

    /// Mean microseconds per call.
    pub fn us_per_call(&self) -> f64 {
        self.time.as_secs_f64() * 1e6 / self.calls.max(1) as f64
    }
}

/// Times every `config_free` and `motion_free` call into a checker.
pub struct TimedChecker<'a> {
    inner: &'a dyn CollisionChecker,
    pub motion: Cell<Tally>,
    pub config: Cell<Tally>,
    pub free_motions: Cell<u64>,
}

impl<'a> TimedChecker<'a> {
    pub fn new(inner: &'a dyn CollisionChecker) -> Self {
        TimedChecker {
            inner,
            motion: Cell::default(),
            config: Cell::default(),
            free_motions: Cell::new(0),
        }
    }

    /// Total time spent inside the wrapped checker.
    pub fn busy(&self) -> Duration {
        self.motion.get().time + self.config.get().time
    }
}

impl CollisionChecker for TimedChecker<'_> {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        let started = Instant::now();
        let free = self.inner.config_free(robot, q, ledger);
        Tally::add(&self.config, started);
        free
    }

    fn motion_free(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
        steps: &InterpolationSteps,
        ledger: &mut CollisionLedger,
    ) -> bool {
        let started = Instant::now();
        let free = self.inner.motion_free(robot, from, to, steps, ledger);
        Tally::add(&self.motion, started);
        self.free_motions
            .set(self.free_motions.get() + u64::from(free));
        free
    }

    fn begin_plan(&self) {
        self.inner.begin_plan();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times every query and insertion into a neighbor index.
pub struct TimedIndex<N> {
    pub inner: N,
    pub nearest: Cell<Tally>,
    pub neighborhood: Cell<Tally>,
    pub insert: Cell<Tally>,
    /// Entries returned by all neighborhood queries.
    pub neighborhood_entries: Cell<u64>,
}

impl<N> TimedIndex<N> {
    pub fn new(inner: N) -> Self {
        TimedIndex {
            inner,
            nearest: Cell::default(),
            neighborhood: Cell::default(),
            insert: Cell::default(),
            neighborhood_entries: Cell::new(0),
        }
    }
}

impl<N: NeighborIndex> NeighborIndex for TimedIndex<N> {
    fn insert(&mut self, id: u64, q: Config, near_hint: Option<u64>, ops: &mut OpCount) {
        let started = Instant::now();
        self.inner.insert(id, q, near_hint, ops);
        Tally::add(&self.insert, started);
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let started = Instant::now();
        let out = self.inner.nearest(q, ops);
        Tally::add(&self.nearest, started);
        out
    }

    fn neighborhood(
        &self,
        anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        let started = Instant::now();
        let out = self.inner.neighborhood(anchor, q, radius, ops);
        Tally::add(&self.neighborhood, started);
        self.neighborhood_entries
            .set(self.neighborhood_entries.get() + out.len() as u64);
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fresh(&self) -> Self {
        TimedIndex::new(self.inner.fresh())
    }
}
