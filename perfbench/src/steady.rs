//! Steadiness mode: two sets of runs, interleaved so the host's slow
//! phases fall on both, compared metric by metric against the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::spec;
use crate::stats::quartiles;
use crate::workloads::Workload;

/// The parts of one run's output steadiness compares.
struct RunOutput {
    correct: bool,
    failed: u64,
    counters: String,
    metrics: BTreeMap<String, f64>,
}

fn parse(stdout: &str) -> Option<RunOutput> {
    let last = stdout.lines().last()?;
    let counters = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("exact: "))?
        .to_string();
    let number_after = |key: &str| -> Option<f64> {
        let rest = &last[last.find(key)? + key.len()..];
        let end = rest.find([',', '}'])?;
        rest[..end].trim().parse().ok()
    };
    let mut metrics = BTreeMap::new();
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        if let Some(v) = number_after(&format!("\"{}\": {{\"value\": ", m.name)) {
            metrics.insert(m.name.to_string(), v);
        }
    }
    Some(RunOutput {
        correct: last.contains("\"correct\": true"),
        failed: number_after("\"failed\": ")? as u64,
        counters,
        metrics,
    })
}

fn run_once(
    say: &mut dyn FnMut(String),
    exe: &str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<RunOutput> {
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .ok()?;
    if !out.status.success() {
        say(String::from_utf8_lossy(&out.stderr).into_owned());
        return None;
    }
    parse(&String::from_utf8_lossy(&out.stdout))
}

/// Runs the comparison, handing every report line to `say`.
pub fn run(
    say: &mut dyn FnMut(String),
    workload: Workload,
    seed: u64,
    seconds: f64,
    runs: usize,
    against: Option<&str>,
) -> ExitCode {
    let me = std::env::current_exe()
        .expect("own executable path")
        .to_string_lossy()
        .into_owned();
    let exes = [me.clone(), against.map_or(me, str::to_string)];
    let same_build = exes[0] == exes[1];
    let mut sets: [Vec<RunOutput>; 2] = [Vec::new(), Vec::new()];
    let mut ok = true;
    for i in 0..runs {
        // Alternate which set goes first, so neither always follows the other.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            let Some(out) = run_once(say, &exes[set], workload, seed + i as u64, seconds, false)
            else {
                say(format!("steady: run {i} of set {} failed", ["A", "B"][set]));
                return ExitCode::FAILURE;
            };
            say(format!(
                "run {i} set {}: seed {} correct={} failed={} exact: {}",
                ["A", "B"][set],
                seed + i as u64,
                out.correct,
                out.failed,
                out.counters
            ));
            ok &= out.correct;
            sets[set].push(out);
        }
        if same_build && sets[0][i].counters != sets[1][i].counters {
            say(format!(
                "  EXACT-REPEAT MISMATCH for seed {}",
                seed + i as u64
            ));
            ok = false;
        }
    }

    say(format!(
        "\n{:<22} {:>30} {:>30} {:>8} {:>8} {:>6}",
        "metric", "A q1/median/q3", "B q1/median/q3", "spreadA", "B-A", "bound"
    ));
    for m in spec::END_TO_END.iter() {
        let values = |set: &Vec<RunOutput>| -> Vec<f64> {
            set.iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect()
        };
        let (a, b) = (quartiles(&values(&sets[0])), quartiles(&values(&sets[1])));
        let bound = m.bound.expect("end-to-end metrics have bounds");
        let spread = (a.2 - a.0) / a.1;
        let diff = (b.1 - a.1) / a.1;
        let mut flags = String::new();
        if diff.abs() > bound {
            flags.push_str(" MEDIANS-DIFFER");
            ok = false;
        }
        if m.name != "setup_s" && spread > bound / 3.0 {
            flags.push_str(" SPREAD>bound/3");
        }
        say(format!(
            "{:<22} {:>9.4}/{:>9.4}/{:>9.4} {:>9.4}/{:>9.4}/{:>9.4} {:>8.4} {:>+8.4} {:>6}{flags}",
            m.name, a.0, a.1, a.2, b.0, b.1, b.2, spread, diff, bound
        ));
    }

    // The cost of measuring layers from outside: one traced run per set.
    for (set, exe) in exes.iter().enumerate() {
        if let Some(out) = run_once(say, exe, workload, seed, seconds, true) {
            let get = |k: &str| out.metrics.get(k).copied().unwrap_or(f64::NAN);
            say(format!(
                "traced set {}: tracing overhead (traced/plain plan time) {:.3}, moped_obs enabled overhead {:.3}, collision share {:.3}, simbr share {:.3}",
                ["A", "B"][set],
                get("trace.overhead"),
                get("obs.enabled_overhead"),
                get("collision.self_frac"),
                get("simbr.self_frac")
            ));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        say("steady: NOT STEADY or not correct (see flags above)".to_string());
        ExitCode::FAILURE
    }
}
