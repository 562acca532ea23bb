//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <arm-clutter|drone-dense|service-dynamic> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from `--seed`, sets up, warms up untimed over
//! the same scenes, measures for about `--seconds`, re-verifies every
//! returned path, and prints each metric with its unit, then one JSON
//! object as its last line. `--trace 0` reports the end-to-end metrics
//! with every timing wrapper and `moped_obs` tracing off; `--trace 1`
//! reports the per-layer metrics, measured from outside the crates.
//!
//! `BENCHMARK.json` gates on `arm-clutter` and `drone-dense`, the two
//! closed-loop planner workloads; on them a request's service latency is
//! its plan time and the capacity is the plan rate. `service-dynamic`
//! drives `PlanService` open loop with environment swaps; it runs by name
//! but is not gated, because on a 2-vCPU host the p90 latency of its runs
//! spreads by about 0.3 of its median, more than any bound may be.
//!
//! Plan times on the planner workloads, and set-up time on every
//! workload, are reported in reference-host milliseconds and seconds: wall
//! time scaled by the host's speed, read off a fixed kernel timed after
//! every plan and every set-up (see `speed`). On a shared host, wall times
//! of identical runs differ by a quarter or more between the host's fast
//! and slow phases.
//!
//! `attempted` counts distinct jobs (plus requests, in a service phase) and
//! `failed` the jobs and requests refused or failed by the service or whose
//! path fails re-verification; those are never counted as solved. On the
//! planner workloads both depend on the seed only, not on how many passes
//! a run's time allowed.
//!
//! `correct` is false when a plan does not repeat its first result
//! exactly, when the exact-repeat counters differ from an earlier run of
//! the same build and seed, or when an open-loop run could not keep its
//! schedule.
//!
//! ```text
//! ... --steady <runs> --workload <w> --seconds <s> [--against <binary>]
//! ```
//!
//! runs two sets of runs interleaved (A B A B ...), set B with `--against`
//! if given, and reports each metric's quartiles per set, flagging medians
//! that differ by more than the metric's bound.

mod planner;
mod service;
mod spec;
mod speed;
mod stats;
mod steady;
mod timed;
mod verify;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use workloads::{Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    against: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut steady, mut against) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => trace = value != "0",
            "--steady" => steady = Some(value.parse().map_err(bad)?),
            "--against" => against = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        steady,
        against,
    })
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Compares this run's exact-repeat counters with the ones an earlier run
/// of the same binary, workload, seed and length recorded next to the
/// binary; records them if none did.
fn check_repeat(args: &Args, counters: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| e.to_string())?;
    let fingerprint = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-repeat");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let file = dir.join(format!(
        "{}-s{}-t{}-trace{}-{fingerprint:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&file) {
        Ok(earlier) if earlier != counters => Err(format!(
            "exact-repeat counters differ from an earlier run of this build and seed: {earlier} vs {counters}"
        )),
        Ok(_) => Ok(()),
        Err(_) => std::fs::write(&file, counters).map_err(|e| e.to_string()),
    }
}

fn emit(args: &Args, mut report: Report) -> ExitCode {
    if !args.trace {
        report.metrics.push(("peak_rss_mb", peak_rss_mb()));
    }
    let table = if args.trace {
        &spec::PER_LAYER[..]
    } else {
        &spec::END_TO_END[..]
    };
    let c = report.counters;
    let counters = format!("solved={} macs={} nodes={}", c.solved, c.macs, c.nodes);
    let mut correct = report.consistent;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    println!("  exact: {counters}");
    println!(
        "  output check: {} of {} attempted failed (refused, failed by the service, or path failed re-verification)",
        report.failed, report.attempted
    );
    if let Err(e) = check_repeat(args, &counters) {
        println!("  ERROR: {e}");
        correct = false;
    }
    let mut json = String::new();
    for (i, m) in table.iter().enumerate() {
        let found: Vec<f64> = report
            .metrics
            .iter()
            .filter(|(n, _)| *n == m.name)
            .map(|&(_, v)| v)
            .collect();
        let [value] = found[..] else {
            eprintln!(
                "perfbench: metric {} reported {} times",
                m.name,
                found.len()
            );
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!(
                "perfbench: metric {} is not a finite number ({value})",
                m.name
            );
            return ExitCode::FAILURE;
        }
        println!(
            "  {:<34} {:>16.6} {:<6} ({} is better)",
            m.name, value, m.unit, m.better
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    if let Some((name, _)) = report
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|m| m.name == *n))
    {
        eprintln!("perfbench: metric {name} is not in the benchmark's table");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.attempted, report.failed
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::run(
            &mut |line| println!("{line}"),
            args.workload,
            args.seed,
            args.seconds,
            runs,
            args.against.as_deref(),
        );
    }
    let report = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    emit(&args, report)
}
