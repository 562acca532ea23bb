//! The benchmark's contract: workload names and every metric it reports,
//! with unit, direction and (for end-to-end metrics) the regression bound.
//! `BENCHMARK.json` at the repository root mirrors these tables; the
//! `spec_matches_benchmark_json` test keeps the two in step.

/// A reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: the direction that counts as better.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the planner or the service sees; printed by untraced
/// runs (`--trace 0`) with timing wrappers and `moped_obs` tracing off.
pub const END_TO_END: [Metric; 11] = [
    e2e("plan_ms_p50", "ms", "lower", 0.25),
    e2e("plan_ms_p90", "ms", "lower", 0.25),
    e2e("plans_per_s", "1/s", "higher", 0.25),
    e2e("solved_frac", "ratio", "higher", 0.07),
    e2e("path_stretch_p50", "ratio", "lower", 0.11),
    e2e("svc_latency_ms_p50", "ms", "lower", 0.25),
    e2e("svc_latency_ms_p90", "ms", "lower", 0.25),
    e2e("svc_capacity_per_s", "1/s", "higher", 0.25),
    e2e("slo_frac", "ratio", "higher", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.12),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: [Metric; 40] = [
    layer("collision.self_frac", "ratio", "lower"),
    layer("collision.us_per_motion", "us", "lower"),
    layer("collision.motions_per_plan", "count", "lower"),
    layer("collision.poses_per_motion", "count", "lower"),
    layer("collision.free_motion_frac", "ratio", "higher"),
    layer("rtree.node_checks_per_pose", "count", "lower"),
    layer("rtree.survivors_per_pose", "count", "lower"),
    layer("sat.macs_per_pose", "count", "lower"),
    layer("simbr.self_frac", "ratio", "lower"),
    layer("simbr.nearest_us", "us", "lower"),
    layer("simbr.neighborhood_us", "us", "lower"),
    layer("simbr.insert_us", "us", "lower"),
    layer("simbr.nodes_visited_per_nearest", "count", "lower"),
    layer("simbr.neighborhood_size", "count", "lower"),
    layer("core.self_frac", "ratio", "lower"),
    layer("core.accept_frac", "ratio", "higher"),
    layer("core.rewires_per_plan", "count", "higher"),
    layer("core.macs_per_plan", "count", "lower"),
    layer("core.cc_mac_frac", "ratio", "lower"),
    layer("service.queue_wait_ms_p50", "ms", "lower"),
    layer("service.queue_wait_ms_p90", "ms", "lower"),
    layer("service.service_time_ms_p50", "ms", "lower"),
    layer("service.service_time_ms_p90", "ms", "lower"),
    layer("service.handoff_ms_p90", "ms", "lower"),
    layer("service.attempts_per_req", "count", "lower"),
    layer("service.rejected", "count", "lower"),
    layer("service.worker_share_max", "ratio", "lower"),
    layer("service.swap_us_p50", "us", "lower"),
    layer("service.swap_us_p90", "us", "lower"),
    layer("service.gen_late_ms_p90", "ms", "lower"),
    layer("service.backlog_max", "count", "lower"),
    layer("setup.scene_us", "us", "lower"),
    layer("setup.checker_build_us", "us", "lower"),
    layer("obs.enabled_overhead", "ratio", "lower"),
    layer("obs.events_per_plan", "count", "lower"),
    layer("trace.overhead", "ratio", "lower"),
    layer("exact.solved", "count", "higher"),
    layer("exact.macs", "count", "lower"),
    layer("exact.nodes", "count", "higher"),
    layer("verify.failed", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand in a fixed layout, one metric
    /// object per line; every metric here must appear there verbatim.
    #[test]
    fn spec_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for m in END_TO_END.iter() {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.unwrap()
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for m in PER_LAYER.iter() {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(
            json.matches("\"unit\": ").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not report"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
