//! Driving `PlanService`: an open-loop generator with environment swaps
//! on a fixed schedule, and a saturating closed-window phase.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use moped_core::{PlanResult, PlannerParams};
use moped_env::Scenario;
use moped_service::{
    EnvId, EnvironmentCatalog, PlanOutcome, PlanRequest, PlanService, ServiceConfig,
};

use crate::planner::Counters;
use crate::stats::{mean, percentile, SplitMix};
use crate::verify::{self, Verdict};

/// An open-loop run is invalid, not fast or slow, when the generator ran
/// this late at p90 or the backlog grew past this many requests.
pub const LATE_LIMIT_MS: f64 = 5.0;
pub const BACKLOG_LIMIT: usize = 32;

/// The traffic of one service run. Every slot is one catalog environment
/// with a list of snapshots; the k-th swap of a slot installs
/// `slots[s][k % len]`, so the epoch a response reports names the scene
/// it was planned in.
pub struct Load {
    pub slots: Vec<Vec<Scenario>>,
    /// `(slot, planner seed)`, cycled in order.
    pub jobs: Vec<(usize, u64)>,
    pub samples: usize,
    /// Fixed absolute arrival rate of the open-loop phase.
    pub rate_per_s: f64,
    /// One slot is swapped to its next snapshot every this often.
    pub swap_every: Duration,
    pub open_loop: Duration,
    /// Length of the saturating phase; zero skips it.
    pub saturate: Duration,
    pub seed: u64,
}

impl Load {
    /// The catalog the service starts with: epoch 0 of every slot.
    pub fn catalog(&self) -> EnvironmentCatalog {
        let mut catalog = EnvironmentCatalog::new();
        for (s, snaps) in self.slots.iter().enumerate() {
            catalog.register(format!("slot-{s}"), snaps[0].clone());
        }
        catalog
    }

    fn request(&self, env_ids: &[EnvId], job: usize) -> PlanRequest {
        let (slot, seed) = self.jobs[job % self.jobs.len()];
        PlanRequest::new(
            env_ids[slot],
            PlannerParams {
                max_samples: self.samples,
                seed,
                ..PlannerParams::default()
            },
        )
    }

    fn scenario(&self, slot: usize, epoch: u64) -> &Scenario {
        let snaps = &self.slots[slot];
        &snaps[epoch as usize % snaps.len()]
    }
}

/// One answered request.
pub struct Served {
    /// Due time to response, client side.
    pub latency_ms: f64,
    /// Send time to response minus queue wait minus service time.
    pub handoff_ms: f64,
    pub queue_wait_ms: f64,
    pub service_ms: f64,
    pub worker: usize,
    pub attempts: u32,
    pub result: PlanResult,
    pub verdict: Verdict,
    pub stretch: f64,
}

/// Everything one service run measured.
#[derive(Default)]
pub struct Run {
    /// Requests of the open-loop phase, answered.
    pub served: Vec<Served>,
    /// Open-loop requests refused at admission or failed by the service.
    pub refused: u64,
    pub failed: u64,
    /// Open-loop requests attempted.
    pub attempted: u64,
    pub gen_late_ms: Vec<f64>,
    pub backlog_max: usize,
    pub swap_us: Vec<f64>,
    /// Saturating phase: answered per second, and how many were attempted
    /// and failed (refused, failed, or invalid path).
    pub capacity_per_s: f64,
    pub saturate_attempted: u64,
    pub saturate_failed: u64,
    pub workers: usize,
    /// The warm-up reached every worker in every slot.
    pub warmed: bool,
}

impl Run {
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in &self.served {
            c.add(&s.result, s.verdict);
        }
        c
    }

    pub fn failed_paths(&self) -> u64 {
        self.served.iter().filter(|s| s.verdict.failed()).count() as u64
    }

    /// Why the open-loop schedule cannot be trusted, if it cannot.
    pub fn invalid_reason(&self) -> Option<String> {
        let late = percentile(&self.gen_late_ms, 90.0);
        if late > LATE_LIMIT_MS {
            return Some(format!(
                "generator ran {late:.2} ms late at p90 (limit {LATE_LIMIT_MS} ms)"
            ));
        }
        (self.backlog_max > BACKLOG_LIMIT).then(|| {
            format!(
                "backlog reached {} requests (limit {BACKLOG_LIMIT})",
                self.backlog_max
            )
        })
    }

    /// Path failures by reason, and anything that makes the run suspect.
    pub fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!(
            "open loop: {}",
            verify::failure_summary(self.served.iter().map(|s| s.verdict))
        )];
        notes.extend(
            self.invalid_reason()
                .map(|r| format!("INVALID open-loop run: {r}")),
        );
        if !self.warmed {
            notes.push("warm-up did not reach every worker in every slot".to_string());
        }
        notes
    }

    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let col = |f: fn(&Served) -> f64| self.served.iter().map(f).collect::<Vec<f64>>();
        let wait = col(|s| s.queue_wait_ms);
        let service = col(|s| s.service_ms);
        let slots = self.workers.max(1);
        let mut per_worker = vec![0u64; slots];
        for s in &self.served {
            per_worker[s.worker % slots] += 1;
        }
        let share = *per_worker.iter().max().unwrap_or(&0) as f64 / self.served.len().max(1) as f64;
        vec![
            ("service.queue_wait_ms_p50", percentile(&wait, 50.0)),
            ("service.queue_wait_ms_p90", percentile(&wait, 90.0)),
            ("service.service_time_ms_p50", percentile(&service, 50.0)),
            ("service.service_time_ms_p90", percentile(&service, 90.0)),
            (
                "service.handoff_ms_p90",
                percentile(&col(|s| s.handoff_ms), 90.0),
            ),
            (
                "service.attempts_per_req",
                mean(&col(|s| f64::from(s.attempts))),
            ),
            ("service.rejected", self.refused as f64),
            ("service.worker_share_max", share),
            ("service.swap_us_p50", percentile(&self.swap_us, 50.0)),
            ("service.swap_us_p90", percentile(&self.swap_us, 90.0)),
            (
                "service.gen_late_ms_p90",
                percentile(&self.gen_late_ms, 90.0),
            ),
            ("service.backlog_max", self.backlog_max as f64),
        ]
    }
}

/// Starts a service with one worker per available CPU and the default
/// configuration otherwise (no tuner).
pub fn start(load: &Load) -> PlanService {
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    PlanService::start(
        load.catalog(),
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
}

/// Untimed warm-up: rounds of `workers` requests to every slot not yet
/// planned in by every worker, until each worker has served each slot.
/// Work stealing can hand one worker a whole round, so coverage is read
/// off the responses rather than assumed. Returns whether it was reached.
fn warm_up(service: &PlanService, load: &Load) -> bool {
    const ROUNDS: usize = 8;
    let ids: Vec<EnvId> = service.catalog().ids().collect();
    let workers = service.worker_count();
    let mut seen = vec![vec![false; workers]; load.slots.len()];
    for _ in 0..ROUNDS {
        let missing: Vec<usize> = (0..load.slots.len())
            .filter(|&slot| seen[slot].contains(&false))
            .collect();
        if missing.is_empty() {
            return true;
        }
        // Stay well inside the default admission queue.
        for chunk in missing.chunks((32 / workers).max(1)) {
            let tickets: Vec<_> = chunk
                .iter()
                .flat_map(|&slot| (0..workers).map(move |_| slot))
                .enumerate()
                .map(|(i, slot)| {
                    let mut request = load.request(&ids, i);
                    request.env = ids[slot];
                    (slot, service.submit(request).expect("warm-up admission"))
                })
                .collect();
            for (slot, ticket) in tickets {
                if let Some(r) = ticket.wait().response() {
                    seen[slot][r.worker % workers] = true;
                }
            }
        }
    }
    seen.iter().all(|s| !s.contains(&false))
}

enum Event {
    Request(usize, Instant),
    Swap(usize, Instant),
}

/// The open-loop schedule: Poisson arrivals at the fixed rate, drawn from
/// the load's seed, merged with swaps every `swap_every`.
fn schedule(load: &Load, t0: Instant) -> Vec<Event> {
    let mut rng = SplitMix::new(load.seed ^ 0x0A77_1BA1);
    let mut events = Vec::new();
    let mut t = 0.0;
    let mut n = 0;
    loop {
        t += -rng.unit().ln() / load.rate_per_s;
        if t >= load.open_loop.as_secs_f64() {
            break;
        }
        events.push(Event::Request(n, t0 + Duration::from_secs_f64(t)));
        n += 1;
    }
    let mut k = 1;
    while load.swap_every * k < load.open_loop {
        events.push(Event::Swap(k as usize - 1, t0 + load.swap_every * k));
        k += 1;
    }
    events.sort_by_key(|e| match e {
        Event::Request(_, at) | Event::Swap(_, at) => *at,
    });
    events
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// A resolved ticket with its client-side clock readings.
struct Answer {
    n: usize,
    slot: usize,
    outcome: PlanOutcome,
    due: Instant,
    sent: Instant,
    done: Instant,
}

/// Verifies an answered request's path against the snapshot the response
/// says it planned in; `None` when the service failed the request.
fn served(load: &Load, a: Answer) -> Option<Served> {
    let Answer {
        slot,
        due,
        sent,
        done,
        ..
    } = a;
    let r = a.outcome.into_result().ok()?;
    let scenario = load.scenario(slot, r.epoch);
    let verdict = verify::verify(scenario, &r.result);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let queue_wait_ms = ms(r.queue_wait);
    let service_ms = ms(r.service_time);
    Some(Served {
        latency_ms: ms(done - due),
        handoff_ms: ms(done - sent) - queue_wait_ms - service_ms,
        queue_wait_ms,
        service_ms,
        worker: r.worker,
        attempts: r.attempts,
        stretch: verify::stretch(scenario, &r.result),
        verdict,
        result: r.result,
    })
}

/// Warms the service up, runs the load on it, and shuts it down.
pub fn drive(service: PlanService, load: &Load) -> Run {
    let warmed = warm_up(&service, load);
    let mut run = run(&service, load);
    run.warmed = warmed;
    service.shutdown();
    run
}

/// Runs the open-loop phase, then the saturating phase.
fn run(service: &PlanService, load: &Load) -> Run {
    let ids: Vec<EnvId> = service.catalog().ids().collect();
    let mut out = Run {
        workers: service.worker_count(),
        ..Run::default()
    };
    let outstanding = AtomicUsize::new(0);
    // Paths are verified after the phase, so the check takes no CPU from
    // the workers while they are timed.
    let answers: Mutex<Vec<Answer>> = Mutex::new(Vec::new());
    let mut epoch_of = vec![0usize; load.slots.len()];
    let t0 = Instant::now() + Duration::from_millis(20);
    let events = schedule(load, t0);
    thread::scope(|scope| {
        for event in events {
            match event {
                Event::Swap(k, due) => {
                    sleep_until(due);
                    let slot = k % load.slots.len();
                    epoch_of[slot] += 1;
                    let next = load.scenario(slot, epoch_of[slot] as u64).clone();
                    let started = Instant::now();
                    service
                        .swap_env(ids[slot], next)
                        .expect("swap a registered slot");
                    out.swap_us.push(started.elapsed().as_secs_f64() * 1e6);
                }
                Event::Request(n, due) => {
                    sleep_until(due);
                    out.attempted += 1;
                    let slot = load.jobs[n % load.jobs.len()].0;
                    let sent = Instant::now();
                    out.gen_late_ms.push((sent - due).as_secs_f64() * 1e3);
                    match service.submit(load.request(&ids, n)) {
                        Err(_) => out.refused += 1,
                        Ok(ticket) => {
                            let backlog = outstanding.fetch_add(1, Ordering::Relaxed) + 1;
                            out.backlog_max = out.backlog_max.max(backlog);
                            let (answers, outstanding) = (&answers, &outstanding);
                            scope.spawn(move || {
                                let outcome = ticket.wait();
                                let done = Instant::now();
                                outstanding.fetch_sub(1, Ordering::Relaxed);
                                let answer = Answer {
                                    n,
                                    slot,
                                    outcome,
                                    due,
                                    sent,
                                    done,
                                };
                                answers.lock().expect("answer list").push(answer);
                            });
                        }
                    }
                }
            }
        }
    });
    let mut answers = answers.into_inner().expect("answer list");
    answers.sort_by_key(|a| a.n);
    for a in answers {
        match served(load, a) {
            Some(s) => out.served.push(s),
            None => out.failed += 1,
        }
    }
    if !load.saturate.is_zero() {
        saturate(service, load, &ids, &mut out);
    }
    out
}

/// Keeps a window of requests in flight, larger than the worker count so
/// no worker idles, and counts answers per second.
fn saturate(service: &PlanService, load: &Load, ids: &[EnvId], out: &mut Run) {
    let window = 2 * service.worker_count() + 2;
    let started = Instant::now();
    let mut next = 0;
    let mut in_flight = VecDeque::new();
    let mut answers = Vec::new();
    let mut last = started;
    loop {
        while in_flight.len() < window && started.elapsed() < load.saturate {
            let slot = load.jobs[next % load.jobs.len()].0;
            out.saturate_attempted += 1;
            match service.submit(load.request(ids, next)) {
                Ok(t) => in_flight.push_back((slot, t)),
                Err(_) => out.saturate_failed += 1,
            }
            next += 1;
        }
        let Some((slot, ticket)) = in_flight.pop_front() else {
            break;
        };
        let outcome = ticket.wait();
        last = Instant::now();
        answers.push(Answer {
            n: next,
            slot,
            outcome,
            due: last,
            sent: last,
            done: last,
        });
    }
    out.capacity_per_s = answers.len() as f64 / (last - started).as_secs_f64();
    for a in answers {
        if served(load, a).is_none_or(|s| s.verdict.failed()) {
            out.saturate_failed += 1;
        }
    }
}
