//! The three workloads: what each generates from its seed, how it is
//! timed, and which metrics it reports.

use std::time::{Duration, Instant};

use moped_collision::TwoStageChecker;
use moped_robot::RobotModel;
use moped_scenarios::{dynamic_epochs, CorpusEntry, Family};

use crate::planner::{Bench, Counters};
use crate::service::{self, Load};
use crate::speed::{self, Reference, NOMINAL_CHUNK_MS};
use crate::stats::{median, percentile, SplitMix};
use crate::verify::{self, Verdict};

/// Set-ups timed after each measured pass of a planner workload, and three
/// times as many after a service run; their median is `setup_s`.
const SETUP_REPEATS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ArmClutter,
    DroneDense,
    ServiceDynamic,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ArmClutter,
        Workload::DroneDense,
        Workload::ServiceDynamic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArmClutter => "arm-clutter",
            Workload::DroneDense => "drone-dense",
            Workload::ServiceDynamic => "service-dynamic",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A closed-loop planner workload: one scene family, one robot, one
/// sampling budget, planned one after another on one thread.
struct PlannerSpec {
    model: RobotModel,
    samples: usize,
    /// Clutter scenes per run, one job each: the family's first `scenes`
    /// instances, the same in every run. The workload seed draws each
    /// job's planner seed, so runs differ in trees, not in the scene mix
    /// whose spread of plan times would otherwise move the median.
    scenes: usize,
    /// Latency limit of `slo_frac`.
    slo_ms: f64,
    /// Open-loop rate of the traced run's service phase, about half of
    /// what the pool serves on this workload's plans.
    service_rate: f64,
}

/// xArm7 (7-DoF) at the corpus budget: collision checking dominates.
const ARM: PlannerSpec = PlannerSpec {
    model: RobotModel::XArm7,
    samples: 900,
    scenes: 96,
    slo_ms: 250.0,
    service_rate: 10.0,
};

/// 6-DoF drone at the paper's 5 000-sample budget: the large tree makes
/// neighbor search the largest layer.
const DRONE: PlannerSpec = PlannerSpec {
    model: RobotModel::Drone3d,
    samples: 5000,
    scenes: 48,
    slo_ms: 150.0,
    service_rate: 12.0,
};

/// `service-dynamic`: slots of animated drone clutter, each swapped
/// through its epoch snapshots while requests arrive open loop.
const DYN_SLOTS: usize = 4;
const DYN_EPOCHS: usize = 16;
const DYN_EPOCH_DT: f64 = 2.5;
const DYN_JOBS: usize = 64;
const DYN_SAMPLES: usize = 1200;
/// Fixed absolute arrival rate, 40-50% of what two workers serve
/// (125-165/s on a 2-vCPU host).
const DYN_RATE: f64 = 60.0;
const DYN_SWAP_EVERY: Duration = Duration::from_millis(100);
const DYN_SLO_MS: f64 = 50.0;
/// Share of the run given to the open-loop phase; the rest saturates.
const DYN_OPEN_SHARE: f64 = 0.75;

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Exact-repeat counters, identical for every run of one build and seed.
    pub counters: Counters,
    /// `false` when a plan did not repeat its warm-up result exactly, or
    /// the open-loop schedule was not kept.
    pub consistent: bool,
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Scene and checker build times of one set-up, summed.
#[derive(Default)]
struct SetupTimes {
    scenes: Duration,
    checkers: Duration,
    count: usize,
}

impl SetupTimes {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |d: Duration| d.as_secs_f64() * 1e6 / self.count.max(1) as f64;
        vec![
            ("setup.scene_us", per(self.scenes)),
            ("setup.checker_build_us", per(self.checkers)),
        ]
    }
}

fn planner_bench(spec: &PlannerSpec, seed: u64) -> (Bench, SetupTimes) {
    let mut rng = SplitMix::new(seed ^ 0x00B3_AC11);
    let mut times = SetupTimes::default();
    let mut bench = Bench {
        scenes: Vec::new(),
        checkers: Vec::new(),
        jobs: Vec::new(),
        samples: spec.samples,
    };
    for i in 0..spec.scenes {
        let plan_seed = rng.next_u64();
        let started = Instant::now();
        let scene = CorpusEntry::new(Family::Clutter, spec.model, i as u64 + 1).build();
        times.scenes += started.elapsed();
        let started = Instant::now();
        bench
            .checkers
            .push(TwoStageChecker::moped(scene.obstacles.clone()));
        times.checkers += started.elapsed();
        bench.scenes.push(scene);
        bench.jobs.push((i, plan_seed));
    }
    times.count = spec.scenes;
    (bench, times)
}

/// Times `repeats` set-ups into `secs`, in reference-host seconds: each
/// is scaled by a reference chunk timed right after it, because set-ups
/// come in bursts between passes (see `speed`). What was built is dropped
/// outside the timed region. Set-up is timed in a warm process, never at
/// start-up, and spread over the run where it can be, so one of the
/// host's speed phases cannot decide the median.
fn time_setups<T>(
    secs: &mut Vec<f64>,
    repeats: usize,
    reference: &Reference,
    mut setup: impl FnMut() -> T,
) {
    for _ in 0..repeats {
        let started = Instant::now();
        let built = setup();
        let elapsed = started.elapsed().as_secs_f64();
        drop(built);
        secs.push(elapsed * speed::scale(reference.chunk_ms()));
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let budget = Duration::from_secs_f64(seconds);
    match (workload, trace) {
        (Workload::ArmClutter, false) => planner_plain(&ARM, seed, budget),
        (Workload::DroneDense, false) => planner_plain(&DRONE, seed, budget),
        (Workload::ArmClutter, true) => planner_traced(&ARM, seed, budget),
        (Workload::DroneDense, true) => planner_traced(&DRONE, seed, budget),
        (Workload::ServiceDynamic, false) => dynamic_plain(seed, budget),
        (Workload::ServiceDynamic, true) => dynamic_traced(seed, budget),
    }
}

fn planner_plain(spec: &PlannerSpec, seed: u64, budget: Duration) -> Report {
    let (bench, _) = planner_bench(spec, seed);
    bench.warm_up();
    let (mut setups, reference) = (Vec::new(), Reference::new());
    let run = bench.measure(budget, false, &mut || {
        time_setups(&mut setups, SETUP_REPEATS, &reference, || {
            planner_bench(spec, seed)
        })
    });
    let setup_s = median(&setups);
    // Plan times at reference-host speed (see `speed`).
    let wall_ms: Vec<f64> = run.times.iter().map(|&(_, t)| t).collect();
    let plan_ms = speed::to_reference(&wall_ms, &run.chunks_ms);
    let in_slo = run
        .times
        .iter()
        .zip(&plan_ms)
        .filter(|&(&(j, _), &t)| run.checked[j].verdict == Verdict::Valid && t <= spec.slo_ms)
        .count();
    let stretch: Vec<f64> = run
        .checked
        .iter()
        .filter(|c| c.verdict == Verdict::Valid)
        .map(|c| c.stretch)
        .collect();
    let plans_per_s = plan_ms.len() as f64 / (plan_ms.iter().sum::<f64>() / 1e3);
    let (p50, p90) = (percentile(&plan_ms, 50.0), percentile(&plan_ms, 90.0));
    let jobs = bench.jobs.len();
    Report {
        attempted: jobs as u64,
        failed: run.failed(),
        counters: run.counters,
        consistent: run.repeated,
        notes: vec![
            format!(
                "closed loop, 1 thread: {} plans in {} passes over {jobs} jobs",
                plan_ms.len(),
                plan_ms.len() / jobs,
            ),
            format!(
                "host speed: reference chunk median {:.4} ms (nominal {NOMINAL_CHUNK_MS} ms); wall plan p50 {:.4} ms, p90 {:.4} ms",
                median(&run.chunks_ms),
                percentile(&wall_ms, 50.0),
                percentile(&wall_ms, 90.0),
            ),
            format!(
                "{} (distinct jobs)",
                verify::failure_summary(run.checked.iter().map(|c| c.verdict))
            ),
        ],
        metrics: vec![
            ("plan_ms_p50", p50),
            ("plan_ms_p90", p90),
            ("plans_per_s", plans_per_s),
            ("solved_frac", run.counters.solved as f64 / jobs as f64),
            ("path_stretch_p50", median(&stretch)),
            // One closed-loop client: a request's latency is its plan
            // time and the capacity is the plan rate.
            ("svc_latency_ms_p50", p50),
            ("svc_latency_ms_p90", p90),
            ("svc_capacity_per_s", plans_per_s),
            ("slo_frac", in_slo as f64 / plan_ms.len() as f64),
            ("setup_s", setup_s),
        ],
    }
}

fn planner_traced(spec: &PlannerSpec, seed: u64, budget: Duration) -> Report {
    let (bench, setup) = planner_bench(spec, seed);
    bench.warm_up();
    let passes = bench.measure(budget.mul_f64(0.55), true, &mut || {});
    let (obs_overhead, events) = bench.obs_phase();

    // A short open-loop service phase over the first scenes, one catalog
    // slot each; a swap re-installs a slot's own scene.
    let slots: Vec<_> = bench
        .scenes
        .iter()
        .take(8)
        .map(|s| vec![s.clone()])
        .collect();
    let load = Load {
        jobs: (0..slots.len()).map(|s| (s, bench.jobs[s].1)).collect(),
        slots,
        samples: spec.samples,
        rate_per_s: spec.service_rate,
        swap_every: Duration::from_millis(500),
        open_loop: budget.mul_f64(0.25),
        saturate: Duration::ZERO,
        seed,
    };
    let run = service::drive(service::start(&load), &load);

    let failed_paths = passes.failed();
    let mut metrics = passes.layers.metrics();
    metrics.extend(run.layer_metrics());
    metrics.extend(setup.metrics());
    metrics.extend(exact_metrics(&passes.counters, failed_paths));
    metrics.push(("obs.enabled_overhead", obs_overhead));
    metrics.push(("obs.events_per_plan", events));
    let (cc, nn) = passes.layers.shares();
    Report {
        attempted: bench.jobs.len() as u64 + run.attempted,
        failed: failed_paths + run.refused + run.failed + run.failed_paths(),
        counters: passes.counters,
        consistent: passes.repeated,
        notes: [
            format!("layer shares: collision {cc:.3}, simbr {nn:.3}"),
            format!(
                "{} (distinct jobs)",
                verify::failure_summary(passes.checked.iter().map(|c| c.verdict))
            ),
        ]
        .into_iter()
        .chain(run.notes())
        .collect(),
        metrics,
    }
}

fn exact_metrics(c: &Counters, failed: u64) -> [(&'static str, f64); 4] {
    [
        ("exact.solved", c.solved as f64),
        ("exact.macs", c.macs as f64),
        ("exact.nodes", c.nodes as f64),
        ("verify.failed", failed as f64),
    ]
}

fn dynamic_load(seed: u64, budget: Duration) -> (Load, SetupTimes) {
    let mut rng = SplitMix::new(seed ^ 0xD1A_5E7);
    let mut times = SetupTimes::default();
    let started = Instant::now();
    // Fixed scenes, as for the planner workloads; the seed draws planner
    // seeds and arrival times.
    let slots: Vec<_> = (1..=DYN_SLOTS as u64)
        .map(|scene| dynamic_epochs(RobotModel::Drone3d, scene, DYN_EPOCHS, DYN_EPOCH_DT))
        .collect();
    times.scenes = started.elapsed();
    times.count = DYN_SLOTS * DYN_EPOCHS;
    let jobs = (0..DYN_JOBS)
        .map(|i| (i % DYN_SLOTS, rng.next_u64()))
        .collect();
    let open_loop = budget.mul_f64(DYN_OPEN_SHARE);
    let load = Load {
        slots,
        jobs,
        samples: DYN_SAMPLES,
        rate_per_s: DYN_RATE,
        swap_every: DYN_SWAP_EVERY,
        open_loop,
        saturate: budget - open_loop,
        seed,
    };
    (load, times)
}

fn dynamic_plain(seed: u64, budget: Duration) -> Report {
    let (load, _) = dynamic_load(seed, budget);
    let run = service::drive(service::start(&load), &load);
    let mut setups = Vec::new();
    time_setups(&mut setups, 3 * SETUP_REPEATS, &Reference::new(), || {
        let (load, _) = dynamic_load(seed, budget);
        service::start(&load)
    });
    let setup_s = median(&setups);

    let counters = run.counters();
    let valid = |s: &&service::Served| s.verdict == Verdict::Valid;
    let plan_ms: Vec<f64> = run.served.iter().map(|s| s.service_ms).collect();
    let latency: Vec<f64> = run.served.iter().map(|s| s.latency_ms).collect();
    let stretch: Vec<f64> = run.served.iter().filter(valid).map(|s| s.stretch).collect();
    let in_slo = run
        .served
        .iter()
        .filter(valid)
        .filter(|s| s.latency_ms <= DYN_SLO_MS)
        .count();
    let mut notes = vec![format!(
        "open loop at {DYN_RATE}/s with {} workers: {} requests, {} swaps; saturating window: {} requests",
        run.workers,
        run.attempted,
        run.swap_us.len(),
        run.saturate_attempted
    )];
    notes.extend(run.notes());
    Report {
        attempted: run.attempted + run.saturate_attempted,
        failed: run.refused + run.failed + run.failed_paths() + run.saturate_failed,
        counters,
        consistent: run.invalid_reason().is_none(),
        notes,
        metrics: vec![
            ("plan_ms_p50", percentile(&plan_ms, 50.0)),
            ("plan_ms_p90", percentile(&plan_ms, 90.0)),
            (
                "plans_per_s",
                plan_ms.len() as f64 / (plan_ms.iter().sum::<f64>() / 1e3),
            ),
            ("solved_frac", counters.solved as f64 / run.attempted as f64),
            ("path_stretch_p50", median(&stretch)),
            ("svc_latency_ms_p50", percentile(&latency, 50.0)),
            ("svc_latency_ms_p90", percentile(&latency, 90.0)),
            ("svc_capacity_per_s", run.capacity_per_s),
            ("slo_frac", in_slo as f64 / run.attempted as f64),
            ("setup_s", setup_s),
        ],
    }
}

fn dynamic_traced(seed: u64, budget: Duration) -> Report {
    let (mut load, mut setup) = dynamic_load(seed, budget);
    load.open_loop = budget.mul_f64(0.5);
    load.saturate = Duration::ZERO;
    let run = service::drive(service::start(&load), &load);

    // The layer split of this workload's plans, replayed serially: job i
    // plans in epoch i of its slot, so every snapshot is covered.
    let mut bench = Bench {
        scenes: Vec::new(),
        checkers: Vec::new(),
        jobs: Vec::new(),
        samples: DYN_SAMPLES,
    };
    for (i, &(slot, plan_seed)) in load.jobs.iter().enumerate() {
        let scene = load.slots[slot][i % DYN_EPOCHS].clone();
        let started = Instant::now();
        bench
            .checkers
            .push(TwoStageChecker::moped(scene.obstacles.clone()));
        setup.checkers += started.elapsed();
        bench.scenes.push(scene);
        bench.jobs.push((i, plan_seed));
    }
    bench.warm_up();
    let passes = bench.measure(budget.mul_f64(0.3), true, &mut || {});
    let (obs_overhead, events) = bench.obs_phase();

    let counters = run.counters();
    let mut metrics = passes.layers.metrics();
    metrics.extend(run.layer_metrics());
    metrics.extend(setup.metrics());
    metrics.extend(exact_metrics(&counters, run.failed_paths()));
    metrics.push(("obs.enabled_overhead", obs_overhead));
    metrics.push(("obs.events_per_plan", events));
    let (cc, nn) = passes.layers.shares();
    let mut notes = vec![format!(
        "layer shares (serial replay): collision {cc:.3}, simbr {nn:.3}"
    )];
    notes.extend(run.notes());
    Report {
        attempted: run.attempted + bench.jobs.len() as u64,
        failed: run.refused + run.failed + run.failed_paths() + passes.failed(),
        counters,
        consistent: passes.repeated && run.invalid_reason().is_none(),
        notes,
        metrics,
    }
}
