//! Serial planning: the closed-loop planner workloads, and the traced
//! layer split every workload reports.

use std::time::{Duration, Instant};

use moped_collision::TwoStageChecker;
use moped_core::{PlanResult, PlannerParams, RrtStar, SimbrIndex};
use moped_env::Scenario;

use crate::speed::Reference;
use crate::timed::{Tally, TimedChecker, TimedIndex};
use crate::verify::{self, Verdict};

/// Plans the layer split and the `moped_obs` overhead are taken over.
const OBS_PLANS: usize = 8;

/// A fixed list of (scene, planner seed) jobs with the prebuilt checker
/// of every scene: the full MOPED stack of `Variant::V4Lci` (two-stage
/// collision checking, SI-MBR with SIAS and LCI) under RRT*.
pub struct Bench {
    pub scenes: Vec<Scenario>,
    pub checkers: Vec<TwoStageChecker>,
    /// `(scene index, planner seed)`.
    pub jobs: Vec<(usize, u64)>,
    pub samples: usize,
}

/// What one plan returned, reduced to what must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub cost_bits: u64,
    pub macs: u64,
    pub nodes: usize,
}

impl Fingerprint {
    pub fn of(r: &PlanResult) -> Self {
        Fingerprint {
            cost_bits: r.path_cost.to_bits(),
            macs: r.stats.total_ops().mac_equiv(),
            nodes: r.stats.nodes,
        }
    }
}

/// Exact-repeat counters of one pass over a job list: they depend only on
/// the code and the seed, never on the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub solved: u64,
    pub macs: u64,
    pub nodes: u64,
}

impl Counters {
    pub fn add(&mut self, r: &PlanResult, verdict: Verdict) {
        self.solved += u64::from(verdict == Verdict::Valid);
        self.macs += r.stats.total_ops().mac_equiv();
        self.nodes += r.stats.nodes as u64;
    }
}

/// The checked outcome of one job, from its first timed plan.
pub struct Checked {
    pub fingerprint: Fingerprint,
    pub verdict: Verdict,
    pub stretch: f64,
}

impl Bench {
    pub fn params(&self, seed: u64) -> PlannerParams {
        PlannerParams {
            max_samples: self.samples,
            seed,
            ..PlannerParams::default()
        }
    }

    /// One untraced plan and its wall time.
    pub fn plan(&self, job: usize) -> (PlanResult, Duration) {
        let (scene, seed) = self.jobs[job];
        let scenario = &self.scenes[scene];
        let index = SimbrIndex::moped(scenario.robot.dof());
        let mut planner = RrtStar::new(scenario, &self.checkers[scene], index, self.params(seed));
        let started = Instant::now();
        let result = planner.plan();
        (result, started.elapsed())
    }

    /// One plan through the timing decorators.
    fn plan_traced(&self, job: usize, acc: &mut LayerAcc) -> (PlanResult, Duration) {
        let (scene, seed) = self.jobs[job];
        let scenario = &self.scenes[scene];
        let checker = TimedChecker::new(&self.checkers[scene]);
        let index = TimedIndex::new(SimbrIndex::moped(scenario.robot.dof()));
        let mut planner = RrtStar::new(scenario, &checker, index, self.params(seed));
        let started = Instant::now();
        let result = planner.plan();
        let elapsed = started.elapsed();
        acc.absorb(&result, elapsed, &checker, planner.index());
        (result, elapsed)
    }

    /// Untimed warm-up over the same scenes and seeds, at a tenth of the
    /// budget: it touches every scene and checker before timing starts.
    pub fn warm_up(&self) {
        for &(scene, seed) in &self.jobs {
            let scenario = &self.scenes[scene];
            let index = SimbrIndex::moped(scenario.robot.dof());
            let params = PlannerParams {
                max_samples: self.samples / 10,
                ..self.params(seed)
            };
            RrtStar::new(scenario, &self.checkers[scene], index, params).plan();
        }
    }

    /// Timed passes over the job list for about `budget`. Passes are
    /// whole, so every run weighs every job equally. The first pass
    /// verifies every returned path (outside the timed region) and takes
    /// the exact-repeat counters; every later plan must repeat its
    /// first-pass result exactly.
    ///
    /// Untraced, each plan is followed by one chunk of the host-speed
    /// reference, so its time can be reported at reference-host speed.
    /// Traced, each job runs untraced and then through the timing
    /// decorators: the pairing makes the traced-vs-plain ratio immune to
    /// the host's slow phases, and the traced plan is the one timed.
    /// `between` runs after every pass, outside the timed plans.
    pub fn measure(&self, budget: Duration, traced: bool, between: &mut dyn FnMut()) -> Passes {
        let mut out = Passes {
            checked: Vec::new(),
            counters: Counters::default(),
            times: Vec::new(),
            chunks_ms: Vec::new(),
            repeated: true,
            layers: LayerAcc::default(),
        };
        let reference = Reference::new();
        if !traced {
            // Untimed, like the plans' warm-up.
            for _ in 0..8 {
                reference.chunk_ms();
            }
        }
        let started = Instant::now();
        loop {
            let pass_start = Instant::now();
            let first = out.checked.is_empty();
            for job in 0..self.jobs.len() {
                let (result, elapsed) = if traced {
                    out.layers.plain_time += self.plan(job).1;
                    self.plan_traced(job, &mut out.layers)
                } else {
                    let plan = self.plan(job);
                    out.chunks_ms.push(reference.chunk_ms());
                    plan
                };
                out.times.push((job, elapsed.as_secs_f64() * 1e3));
                let fingerprint = Fingerprint::of(&result);
                if first {
                    let scenario = &self.scenes[self.jobs[job].0];
                    let verdict = verify::verify(scenario, &result);
                    out.counters.add(&result, verdict);
                    out.checked.push(Checked {
                        fingerprint,
                        verdict,
                        stretch: verify::stretch(scenario, &result),
                    });
                } else {
                    out.repeated &= fingerprint == out.checked[job].fingerprint;
                }
            }
            between();
            if started.elapsed() + pass_start.elapsed() / 2 >= budget {
                return out;
            }
        }
    }

    /// Plan time with `moped_obs` tracing on over plan time with it off,
    /// alternating on the first few jobs, and span events per plan.
    pub fn obs_phase(&self) -> (f64, f64) {
        let n = OBS_PLANS.min(self.jobs.len());
        let (mut off, mut on) = (Duration::ZERO, Duration::ZERO);
        moped_obs::set_tick_source(moped_obs::TickSource::WallClock);
        moped_obs::reset();
        for job in 0..n {
            off += self.plan(job).1;
            moped_obs::set_enabled(true);
            on += self.plan(job).1;
            moped_obs::set_enabled(false);
        }
        let events: u64 = moped_obs::snapshot().stages.iter().map(|s| s.count).sum();
        moped_obs::reset();
        (
            on.as_secs_f64() / off.as_secs_f64(),
            events as f64 / n as f64,
        )
    }
}

/// What [`Bench::measure`] saw.
pub struct Passes {
    /// First-pass result of every job.
    pub checked: Vec<Checked>,
    /// Exact-repeat counters of one pass.
    pub counters: Counters,
    /// `(job, plan wall time in ms)` of every timed plan.
    pub times: Vec<(usize, f64)>,
    /// Reference chunk time after every timed plan, in ms (untraced
    /// passes only).
    pub chunks_ms: Vec<f64>,
    /// Every plan repeated its first-pass result exactly.
    pub repeated: bool,
    /// Layer totals of the traced plans.
    pub layers: LayerAcc,
}

impl Passes {
    /// Jobs whose path failed re-verification. Counted per job, not per
    /// timed plan, so it depends on the seed and never on how many passes
    /// the host's speed allowed.
    pub fn failed(&self) -> u64 {
        self.checked.iter().filter(|c| c.verdict.failed()).count() as u64
    }
}

/// Layer totals accumulated over traced plans.
#[derive(Default)]
pub struct LayerAcc {
    plans: u64,
    plan_time: Duration,
    /// Untraced time of the same plans, for the tracing overhead.
    plain_time: Duration,
    collision: Duration,
    motions: u64,
    free_motions: u64,
    poses: u64,
    node_checks: u64,
    survivors: u64,
    sat_macs: u64,
    nearest: Tally,
    neighborhood: Tally,
    insert: Tally,
    neighborhood_entries: u64,
    nodes_visited: u64,
    samples: u64,
    nodes: u64,
    rewires: u64,
    macs: u64,
    cc_macs: u64,
}

impl LayerAcc {
    fn absorb(
        &mut self,
        r: &PlanResult,
        elapsed: Duration,
        checker: &TimedChecker,
        index: &TimedIndex<SimbrIndex>,
    ) {
        let s = &r.stats;
        self.plans += 1;
        self.plan_time += elapsed;
        self.collision += checker.busy();
        self.motions += s.collision.motion_queries;
        self.free_motions += checker.free_motions.get();
        self.poses += s.collision.pose_queries;
        self.node_checks += s.collision.filter.node_checks;
        self.survivors += s.collision.filter.survivors;
        self.sat_macs += s.collision.second_stage.mac_equiv();
        for (sum, t) in [
            (&mut self.nearest, index.nearest.get()),
            (&mut self.neighborhood, index.neighborhood.get()),
            (&mut self.insert, index.insert.get()),
        ] {
            sum.time += t.time;
            sum.calls += t.calls;
        }
        self.neighborhood_entries += index.neighborhood_entries.get();
        self.nodes_visited += index.inner.search_stats().nodes_visited;
        self.samples += s.samples as u64;
        self.nodes += s.nodes as u64;
        self.rewires += s.rewires;
        self.macs += s.total_ops().mac_equiv();
        self.cc_macs += s.collision.total_ops().mac_equiv();
    }

    /// Share of traced plan time spent in the collision layer and in the
    /// neighbor index.
    pub fn shares(&self) -> (f64, f64) {
        let plan = self.plan_time.as_secs_f64();
        let simbr = self.nearest.time + self.neighborhood.time + self.insert.time;
        (
            self.collision.as_secs_f64() / plan,
            simbr.as_secs_f64() / plan,
        )
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let (cc, nn) = self.shares();
        vec![
            ("collision.self_frac", cc),
            (
                "collision.us_per_motion",
                self.collision.as_secs_f64() * 1e6 / self.motions.max(1) as f64,
            ),
            ("collision.motions_per_plan", per(self.motions, self.plans)),
            ("collision.poses_per_motion", per(self.poses, self.motions)),
            (
                "collision.free_motion_frac",
                per(self.free_motions, self.motions),
            ),
            (
                "rtree.node_checks_per_pose",
                per(self.node_checks, self.poses),
            ),
            ("rtree.survivors_per_pose", per(self.survivors, self.poses)),
            ("sat.macs_per_pose", per(self.sat_macs, self.poses)),
            ("simbr.self_frac", nn),
            ("simbr.nearest_us", self.nearest.us_per_call()),
            ("simbr.neighborhood_us", self.neighborhood.us_per_call()),
            ("simbr.insert_us", self.insert.us_per_call()),
            (
                "simbr.nodes_visited_per_nearest",
                per(self.nodes_visited, self.nearest.calls),
            ),
            (
                "simbr.neighborhood_size",
                per(self.neighborhood_entries, self.neighborhood.calls),
            ),
            ("core.self_frac", (1.0 - cc - nn).max(0.0)),
            ("core.accept_frac", per(self.nodes, self.samples)),
            ("core.rewires_per_plan", per(self.rewires, self.plans)),
            ("core.macs_per_plan", per(self.macs, self.plans)),
            ("core.cc_mac_frac", per(self.cc_macs, self.macs)),
            (
                "trace.overhead",
                self.plan_time.as_secs_f64() / self.plain_time.as_secs_f64(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_core::{plan_variant, Variant};
    use moped_robot::RobotModel;
    use moped_scenarios::{CorpusEntry, Family};

    /// The benchmark's planner set-up is the full-MOPED stack of
    /// `plan_variant(.., Variant::V4Lci, ..)`, and the timing decorators
    /// change no result.
    #[test]
    fn bench_plans_match_plan_variant_v4_traced_or_not() {
        let scene = CorpusEntry::new(Family::Clutter, RobotModel::Drone3d, 1).build();
        let bench = Bench {
            checkers: vec![TwoStageChecker::moped(scene.obstacles.clone())],
            scenes: vec![scene],
            jobs: vec![(0, 7)],
            samples: 300,
        };
        let reference = plan_variant(&bench.scenes[0], Variant::V4Lci, &bench.params(7));
        let (plain, _) = bench.plan(0);
        let (traced, _) = bench.plan_traced(0, &mut LayerAcc::default());
        for r in [&plain, &traced] {
            assert_eq!(Fingerprint::of(r), Fingerprint::of(&reference));
            assert_eq!(r.path, reference.path);
        }
    }
}
