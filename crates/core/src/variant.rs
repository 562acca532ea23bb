//! The MOPED ablation ladder (Fig 16).

use std::fmt;

use moped_collision::{CollisionChecker, NaiveChecker, TwoStageChecker};
use moped_env::Scenario;

use crate::{LinearIndex, PlanResult, PlannerParams, RrtStar, SimbrIndex};

/// The five designs the paper's breakdown evaluates:
///
/// | Variant | Collision check | Neighbor search | Insertion |
/// |---------|-----------------|-----------------|-----------|
/// | V0      | naive OBB–OBB   | linear scan     | —         |
/// | V1      | two-stage (TSPS)| linear scan     | —         |
/// | V2      | two-stage       | SI-MBR (STNS)   | min-enlargement |
/// | V3      | two-stage       | SI-MBR + SIAS   | min-enlargement |
/// | V4      | two-stage       | SI-MBR + SIAS   | LCI (full MOPED) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Baseline RRT\* (the CPU/C++ reference design).
    V0Baseline,
    /// + Two-Stage Processing Scheme for collision checks.
    V1Tsps,
    /// + SI-MBR-Tree neighbor search.
    V2Stns,
    /// + Steering-Informed Approximated Search.
    V3Sias,
    /// + Low-Cost Insertion — the full MOPED algorithm.
    V4Lci,
}

impl Variant {
    /// All variants in ablation order.
    pub const ALL: [Variant; 5] = [
        Variant::V0Baseline,
        Variant::V1Tsps,
        Variant::V2Stns,
        Variant::V3Sias,
        Variant::V4Lci,
    ];
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Variant::V0Baseline => "V0-baseline",
            Variant::V1Tsps => "V1-TSPS",
            Variant::V2Stns => "V2-STNS",
            Variant::V3Sias => "V3-SIAS",
            Variant::V4Lci => "V4-LCI",
        })
    }
}

/// Builds the collision checker + index flags for a variant:
/// `(two_stage_collision, simbr_index, approx_search, low_cost_insert)`.
pub fn variant_components(variant: Variant) -> (bool, bool, bool, bool) {
    match variant {
        Variant::V0Baseline => (false, false, false, false),
        Variant::V1Tsps => (true, false, false, false),
        Variant::V2Stns => (true, true, false, false),
        Variant::V3Sias => (true, true, true, false),
        Variant::V4Lci => (true, true, true, true),
    }
}

/// The collision checker of a variant's stack: the all-pairs baseline
/// for V0, the two-stage (TSPS) checker from V1 on.
pub fn variant_checker(scenario: &Scenario, variant: Variant) -> Box<dyn CollisionChecker> {
    let (two_stage, ..) = variant_components(variant);
    if two_stage {
        Box::new(TwoStageChecker::moped(scenario.obstacles.clone()))
    } else {
        Box::new(NaiveChecker::new(scenario.obstacles.clone()))
    }
}

/// Plans `scenario` with the given variant's component stack.
///
/// This is the entry point every evaluation figure drives: same scenario,
/// same seed, same sampling budget — only the co-designed kernels vary.
/// Motions are checked on the checker's own schedule (the swept broad
/// phase for two-stage variants); see [`plan_variant_with`] for the
/// paper's per-pose counts.
pub fn plan_variant(scenario: &Scenario, variant: Variant, params: &PlannerParams) -> PlanResult {
    plan_variant_with(
        scenario,
        variant,
        params,
        variant_checker(scenario, variant).as_ref(),
    )
}

/// [`plan_variant`] against a caller-supplied collision checker, which
/// replaces the variant's own (the neighbor-index stack still follows
/// `variant`). The hardware model and the paper figures pass
/// `PerPose(variant_checker(..))` here to count collision work on the
/// per-pose schedule the paper's ratios are derived from; verdicts, and
/// hence paths, are the same either way.
pub fn plan_variant_with(
    scenario: &Scenario,
    variant: Variant,
    params: &PlannerParams,
    checker: &dyn CollisionChecker,
) -> PlanResult {
    plan_variant_impl(scenario, variant, params, checker, None)
}

/// [`plan_variant`] with a cooperative stop hook polled every `every`
/// sampling rounds — the serving layer's deadline/cancellation path.
/// When the hook fires the best-so-far anytime result is returned with
/// [`crate::PlanStats::stopped_early`] set.
pub fn plan_variant_with_stop(
    scenario: &Scenario,
    variant: Variant,
    params: &PlannerParams,
    every: usize,
    stop: &dyn Fn() -> bool,
) -> PlanResult {
    let checker = variant_checker(scenario, variant);
    plan_variant_impl(
        scenario,
        variant,
        params,
        checker.as_ref(),
        Some((every, stop)),
    )
}

fn plan_variant_impl(
    scenario: &Scenario,
    variant: Variant,
    params: &PlannerParams,
    checker: &dyn CollisionChecker,
    stop: Option<(usize, &dyn Fn() -> bool)>,
) -> PlanResult {
    let (_, simbr, sias, lci) = variant_components(variant);
    let dim = scenario.robot.dof();
    if simbr {
        let index = SimbrIndex::new(dim, 6, sias, lci);
        let mut planner = RrtStar::new(scenario, checker, index, params.clone());
        match stop {
            Some((every, hook)) => planner.with_stop_hook(every, hook).plan(),
            None => planner.plan(),
        }
    } else {
        let mut planner = RrtStar::new(scenario, checker, LinearIndex::new(), params.clone());
        match stop {
            Some((every, hook)) => planner.with_stop_hook(every, hook).plan(),
            None => planner.plan(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_env::ScenarioParams;
    use moped_robot::Robot;

    fn scene(seed: u64) -> Scenario {
        Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), seed)
    }

    #[test]
    fn ablation_reduces_the_cost_each_technique_targets() {
        // Fig 16 decomposition: TSPS cuts collision-check work, STNS and
        // SIAS cut neighbor-search work, LCI cuts insertion work. Totals
        // across variants diverge per-run (different parent choices grow
        // different trees), so each claim is checked on its own ledger.
        let s = scene(19);
        let params = PlannerParams {
            max_samples: 300,
            seed: 7,
            ..PlannerParams::default()
        };
        let results: Vec<_> = Variant::ALL
            .iter()
            .map(|v| plan_variant(&s, *v, &params))
            .collect();
        let total = |i: usize| results[i].stats.total_ops().mac_equiv();
        let cc = |i: usize| results[i].stats.collision.total_ops().mac_equiv();
        let ns = |i: usize| results[i].stats.ns_ops.mac_equiv();
        let ins = |i: usize| results[i].stats.insert_ops.mac_equiv();

        assert!(
            cc(1) * 2 < cc(0),
            "TSPS must cut collision work >2x: {} vs {}",
            cc(1),
            cc(0)
        );
        assert!(
            ns(2) < ns(1),
            "STNS must cut NS work: {} vs {}",
            ns(2),
            ns(1)
        );
        // SIAS removes the second of the round's two searches; the exact
        // factor depends on how range-search-heavy the workload is.
        assert!(
            (ns(3) as f64) * 1.5 < ns(2) as f64,
            "SIAS must cut NS work >1.5x: {} vs {}",
            ns(3),
            ns(2)
        );
        assert!(
            ins(4) < ins(3),
            "LCI must cut insertion work: {} vs {}",
            ins(4),
            ins(3)
        );
        assert!(
            total(4) * 2 < total(0),
            "full MOPED should save >2x total at this small budget: {} vs {}",
            total(4),
            total(0)
        );
    }

    #[test]
    fn sias_preserves_path_quality() {
        // Fig 8 (left): approximated neighbor search must not degrade
        // path cost materially (averaged over seeds to damp run noise).
        let params = PlannerParams {
            max_samples: 400,
            seed: 5,
            ..PlannerParams::default()
        };
        let mut exact_sum = 0.0;
        let mut approx_sum = 0.0;
        let mut solved = 0;
        for seed in 0..4 {
            let s = Scenario::generate(
                Robot::mobile_2d(),
                &ScenarioParams::with_obstacles(16),
                100 + seed,
            );
            let exact = plan_variant(&s, Variant::V2Stns, &params);
            let approx = plan_variant(&s, Variant::V3Sias, &params);
            if exact.solved() && approx.solved() {
                exact_sum += exact.path_cost;
                approx_sum += approx.path_cost;
                solved += 1;
            }
        }
        assert!(solved >= 2, "need solved instances to compare");
        assert!(
            approx_sum < exact_sum * 1.3,
            "SIAS path cost should stay close: {approx_sum} vs {exact_sum}"
        );
    }

    #[test]
    fn all_variants_produce_sound_results() {
        let s = scene(23);
        let params = PlannerParams {
            max_samples: 200,
            seed: 3,
            ..PlannerParams::default()
        };
        for v in Variant::ALL {
            let r = plan_variant(&s, v, &params);
            assert_eq!(r.stats.samples, 200, "{v}");
            if let Some(path) = &r.path {
                assert_eq!(path[0], s.start, "{v}");
                assert_eq!(*path.last().unwrap(), s.goal, "{v}");
            }
        }
    }

    #[test]
    fn display_names_are_unique() {
        let names: std::collections::HashSet<String> =
            Variant::ALL.iter().map(|v| v.to_string()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn component_table_matches_ladder() {
        assert_eq!(
            variant_components(Variant::V0Baseline),
            (false, false, false, false)
        );
        assert_eq!(
            variant_components(Variant::V1Tsps),
            (true, false, false, false)
        );
        assert_eq!(
            variant_components(Variant::V2Stns),
            (true, true, false, false)
        );
        assert_eq!(
            variant_components(Variant::V3Sias),
            (true, true, true, false)
        );
        assert_eq!(variant_components(Variant::V4Lci), (true, true, true, true));
    }
}
