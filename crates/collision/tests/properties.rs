//! Property-based tests for the collision pipelines: the two-stage
//! checker must agree with the naive exact checker on every query, the
//! AABB-only mode must be conservative, and the swept motion schedule
//! must return the per-pose schedule's verdicts.

use moped_collision::{
    CollisionChecker, CollisionLedger, NaiveAabbChecker, NaiveChecker, PerPose, SecondStage,
    TwoStageChecker,
};
use moped_env::{Scenario, ScenarioParams};
use moped_geometry::{Aabb, Config, InterpolationSteps};
use moped_robot::{Robot, RobotModel};
use proptest::prelude::*;

/// A deterministic obstacle field from a seed (proptest drives the seed,
/// scenario generation supplies realistic geometry).
fn scene(seed: u64, count: usize) -> moped_env::Scenario {
    moped_env::Scenario::generate(
        Robot::drone_3d(),
        &moped_env::ScenarioParams::with_obstacles(count),
        seed,
    )
}

fn unit_config(robot: &Robot, unit: &[f64]) -> Config {
    robot.config_from_unit(unit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactness: two-stage (OBB second stage) equals the naive checker
    /// on arbitrary configurations.
    #[test]
    fn two_stage_matches_naive(
        seed in 0u64..500,
        unit in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let s = scene(seed, 24);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let q = unit_config(&s.robot, &unit);
        let mut l1 = CollisionLedger::default();
        let mut l2 = CollisionLedger::default();
        prop_assert_eq!(
            naive.config_free(&s.robot, &q, &mut l1),
            two.config_free(&s.robot, &q, &mut l2)
        );
    }

    /// Conservativeness: whenever an AABB-based checker says free, the
    /// exact checker must also say free (never the other way).
    #[test]
    fn aabb_checkers_are_conservative(
        seed in 0u64..500,
        unit in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let s = scene(seed, 24);
        let exact = NaiveChecker::new(s.obstacles.clone());
        let loose_naive = NaiveAabbChecker::new(s.obstacles.clone());
        let loose_two = TwoStageChecker::new(s.obstacles.clone(), 4, SecondStage::AabbOnly);
        let q = unit_config(&s.robot, &unit);
        let mut l = CollisionLedger::default();
        if loose_naive.config_free(&s.robot, &q, &mut l) {
            prop_assert!(exact.config_free(&s.robot, &q, &mut l));
        }
        if loose_two.config_free(&s.robot, &q, &mut l) {
            prop_assert!(exact.config_free(&s.robot, &q, &mut l));
        }
    }

    /// The two AABB-based checkers (naive scan and R-tree filtered) make
    /// identical decisions — the hierarchy changes cost, not semantics.
    #[test]
    fn aabb_hierarchy_preserves_semantics(
        seed in 0u64..500,
        unit in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let s = scene(seed, 32);
        let a = NaiveAabbChecker::new(s.obstacles.clone());
        let b = TwoStageChecker::new(s.obstacles.clone(), 4, SecondStage::AabbOnly);
        let q = unit_config(&s.robot, &unit);
        let mut l = CollisionLedger::default();
        prop_assert_eq!(
            a.config_free(&s.robot, &q, &mut l),
            b.config_free(&s.robot, &q, &mut l)
        );
    }

    /// Motion queries agree between checkers for arbitrary short motions.
    #[test]
    fn motion_queries_agree(
        seed in 0u64..200,
        unit_a in prop::collection::vec(0.0..1.0f64, 6),
        delta in prop::collection::vec(-0.05..0.05f64, 6),
    ) {
        let s = scene(seed, 16);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let from = unit_config(&s.robot, &unit_a);
        let unit_b: Vec<f64> =
            unit_a.iter().zip(&delta).map(|(a, d)| (a + d).clamp(0.0, 1.0)).collect();
        let to = unit_config(&s.robot, &unit_b);
        let steps = InterpolationSteps::default();
        let mut l1 = CollisionLedger::default();
        let mut l2 = CollisionLedger::default();
        prop_assert_eq!(
            naive.motion_free(&s.robot, &from, &to, &steps, &mut l1),
            two.motion_free(&s.robot, &from, &to, &steps, &mut l2)
        );
        prop_assert_eq!(l1.pose_queries >= 1, true);
    }
}

// ---------------------------------------------------------------------------
// Verdict oracle for the swept motion schedule
// ---------------------------------------------------------------------------

/// Deterministic unit-cube samples (64-bit LCG, top bits).
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn config(&mut self, robot: &Robot) -> Config {
        let unit: Vec<f64> = (0..robot.dof()).map(|_| self.unit()).collect();
        robot.config_from_unit(&unit)
    }
}

/// Seeded motions over `s`: short planner-sized steps, long motions that
/// hit the 64-pose cap, zero-length motions, and (for the drone and the
/// mobile robot) motions whose every pose grazes an obstacle's AABB,
/// from just inside to just outside the SAT's epsilon.
fn oracle_motions(s: &Scenario, seed: u64) -> Vec<(Config, Config)> {
    let robot = &s.robot;
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66);
    let mut motions = Vec::new();
    for _ in 0..24 {
        let from = rng.config(robot);
        let mut to = from;
        for (x, (lo, hi)) in to.as_mut_slice().iter_mut().zip(robot.config_bounds()) {
            *x = (*x + (rng.unit() - 0.5) * 0.1 * (hi - lo)).clamp(*lo, *hi);
        }
        motions.push((from, to));
    }
    for _ in 0..6 {
        motions.push((rng.config(robot), rng.config(robot)));
    }
    for _ in 0..2 {
        let q = rng.config(robot);
        motions.push((q, q));
    }
    if matches!(robot.model(), RobotModel::Drone3d | RobotModel::Mobile2d) {
        for obstacle in s.obstacles.iter().take(4) {
            let relax = Aabb::from_obb(obstacle);
            for delta in [-1e-9, 0.0, 1e-8, 2e-8, 1e-7] {
                let mut q = rng.config(robot);
                let tight = robot.body_obbs(&q)[0].aabb();
                let x = relax.max().x + tight.half_extents().x + delta;
                let c = relax.center();
                let coords = q.as_mut_slice();
                coords[0] = x;
                coords[1] = c.y;
                if robot.model() == RobotModel::Drone3d {
                    coords[2] = c.z;
                }
                let mut from = q;
                from.as_mut_slice()[1] += 3.0;
                motions.push((from, q));
                motions.push((q, q));
            }
        }
    }
    motions
}

/// Resolution of the planner's own motion checks (a quarter step).
fn planner_steps(robot: &Robot) -> InterpolationSteps {
    InterpolationSteps::with_resolution(robot.steering_step() / 4.0)
}

fn per_pose(checker: TwoStageChecker) -> PerPose<TwoStageChecker> {
    PerPose(checker)
}

/// Every counter of a ledger, flattened for exact comparison.
fn ledger_counts(l: &CollisionLedger) -> [u64; 7] {
    [
        l.motion_queries,
        l.pose_queries,
        l.first_stage.mac_equiv(),
        l.second_stage.mac_equiv() + l.second_stage.mem_words,
        l.filter.node_checks,
        l.filter.leaf_checks,
        l.filter.survivors,
    ]
}

/// The swept schedule returns the per-pose verdict on every motion, in
/// both second-stage modes, across all five robots and obstacle counts
/// {0, 1, 16, 48}; the per-pose schedule's counts stay what the paper's
/// figures were derived from.
#[test]
fn swept_motion_schedule_matches_per_pose_and_naive_verdicts() {
    let mut per_pose_exact = CollisionLedger::default();
    let mut per_pose_loose = CollisionLedger::default();
    let mut motions_checked = 0usize;
    for (model, robot) in Robot::all_models().into_iter().enumerate() {
        let steps = planner_steps(&robot);
        for count in [0usize, 1, 16, 48] {
            let seed = 100 * model as u64 + count as u64;
            let s = Scenario::generate(robot.clone(), &ScenarioParams::with_obstacles(count), seed);
            let swept = TwoStageChecker::moped(s.obstacles.clone());
            let paper = per_pose(TwoStageChecker::moped(s.obstacles.clone()));
            let naive = NaiveChecker::new(s.obstacles.clone());
            let swept_loose = TwoStageChecker::new(s.obstacles.clone(), 4, SecondStage::AabbOnly);
            let paper_loose = per_pose(TwoStageChecker::new(
                s.obstacles.clone(),
                4,
                SecondStage::AabbOnly,
            ));
            let naive_loose = NaiveAabbChecker::new(s.obstacles.clone());
            let (mut ls, mut lp, mut ln) = Default::default();
            let (mut lsl, mut lpl, mut lnl) = Default::default();
            for (i, (from, to)) in oracle_motions(&s, seed).iter().enumerate() {
                let at = format!("{} / {count} obstacles / motion {i}", robot.name());
                let free = swept.motion_free(&s.robot, from, to, &steps, &mut ls);
                assert_eq!(
                    free,
                    paper.motion_free(&s.robot, from, to, &steps, &mut lp),
                    "{at}"
                );
                assert_eq!(
                    free,
                    naive.motion_free(&s.robot, from, to, &steps, &mut ln),
                    "{at}"
                );
                let loose = swept_loose.motion_free(&s.robot, from, to, &steps, &mut lsl);
                let paper_says = paper_loose.motion_free(&s.robot, from, to, &steps, &mut lpl);
                assert_eq!(loose, paper_says, "AABB-only, {at}");
                let naive_says = naive_loose.motion_free(&s.robot, from, to, &steps, &mut lnl);
                assert_eq!(loose, naive_says, "AABB-only vs naive AABB, {at}");
                motions_checked += 1;
            }
            // Same verdicts pose by pose: the same poses are covered, the
            // same survivors reach the same narrow phase, and the
            // last-hit cache sees the same sequence.
            let at = format!("{} / {count} obstacles", robot.name());
            for (swept_l, paper_l) in [(&ls, &lp), (&lsl, &lpl)] {
                assert_eq!(swept_l.motion_queries, paper_l.motion_queries, "{at}");
                assert_eq!(swept_l.pose_queries, paper_l.pose_queries, "{at}");
                assert_eq!(swept_l.second_stage, paper_l.second_stage, "{at}");
                assert_eq!(swept_l.filter.survivors, paper_l.filter.survivors, "{at}");
                assert!(
                    swept_l.filter.node_checks <= paper_l.filter.node_checks,
                    "{at}"
                );
            }
            assert_eq!(
                swept.narrow_cache_stats(),
                paper.0.narrow_cache_stats(),
                "{at}"
            );
            for (total, part) in [(&mut per_pose_exact, &lp), (&mut per_pose_loose, &lpl)] {
                total.motion_queries += part.motion_queries;
                total.pose_queries += part.pose_queries;
                total.first_stage += part.first_stage;
                total.second_stage += part.second_stage;
                total.filter.node_checks += part.filter.node_checks;
                total.filter.leaf_checks += part.filter.leaf_checks;
                total.filter.survivors += part.filter.survivors;
            }
        }
    }
    assert!(
        motions_checked > 600,
        "oracle ran {motions_checked} motions"
    );
    // The per-pose counts of the schedule before the swept broad phase
    // existed (recorded from that implementation on this motion set).
    assert_eq!(ledger_counts(&per_pose_exact), PER_POSE_EXACT_COUNTS);
    assert_eq!(ledger_counts(&per_pose_loose), PER_POSE_AABB_ONLY_COUNTS);
}

const PER_POSE_EXACT_COUNTS: [u64; 7] = [820, 9459, 5599811, 54321, 85854, 22367, 377];
const PER_POSE_AABB_ONLY_COUNTS: [u64; 7] = [820, 9073, 5104743, 0, 79938, 19053, 239];
