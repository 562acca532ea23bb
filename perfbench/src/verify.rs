//! Independent output check: every returned path is re-verified against
//! the scene with the exact all-pairs `NaiveChecker`, at twice the pose
//! density the planner used and without its 64-pose cap per motion, and
//! its reported cost is recomputed from the waypoints.

use moped_collision::{CollisionChecker, CollisionLedger, NaiveChecker};
use moped_core::PlanResult;
use moped_env::Scenario;
use moped_geometry::InterpolationSteps;

/// Relative tolerance between the reported and the recomputed path cost.
const COST_TOLERANCE: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No path returned.
    Unsolved,
    /// The path is collision free at the finer resolution and its cost
    /// matches.
    Valid,
    /// The path does not run from the scene's start to its goal.
    WrongEndpoints,
    /// Some pose of the finer re-check collides.
    Collides,
    /// The reported `path_cost` differs from the waypoint length.
    CostMismatch,
}

impl Verdict {
    /// A returned path that failed the check.
    pub fn failed(self) -> bool {
        !matches!(self, Verdict::Unsolved | Verdict::Valid)
    }
}

/// The resolution the planner checks motions at by default
/// (`RrtStar::new`: a quarter of the steering step).
fn planner_resolution(scenario: &Scenario) -> f64 {
    (scenario.robot.steering_step() / 4.0).max(1e-3)
}

pub fn verify(scenario: &Scenario, result: &PlanResult) -> Verdict {
    let Some(path) = &result.path else {
        return Verdict::Unsolved;
    };
    if path.first() != Some(&scenario.start) || path.last() != Some(&scenario.goal) {
        return Verdict::WrongEndpoints;
    }
    let oracle = NaiveChecker::new(scenario.obstacles.clone());
    let steps = InterpolationSteps {
        resolution: planner_resolution(scenario) / 2.0,
        max_steps: usize::MAX,
    };
    let mut ledger = CollisionLedger::default();
    if !oracle.config_free(&scenario.robot, &path[0], &mut ledger) {
        return Verdict::Collides;
    }
    let mut length = 0.0;
    for pair in path.windows(2) {
        if !oracle.motion_free(&scenario.robot, &pair[0], &pair[1], &steps, &mut ledger) {
            return Verdict::Collides;
        }
        length += pair[0].distance(&pair[1]);
    }
    if (length - result.path_cost).abs() > COST_TOLERANCE * length.max(1.0) {
        return Verdict::CostMismatch;
    }
    Verdict::Valid
}

/// How many paths failed re-verification, by reason.
pub fn failure_summary(verdicts: impl Iterator<Item = Verdict>) -> String {
    let (mut collides, mut cost, mut ends) = (0, 0, 0);
    for v in verdicts {
        match v {
            Verdict::Collides => collides += 1,
            Verdict::CostMismatch => cost += 1,
            Verdict::WrongEndpoints => ends += 1,
            Verdict::Unsolved | Verdict::Valid => {}
        }
    }
    format!("paths failing re-verification: {collides} collide, {cost} cost mismatch, {ends} wrong endpoints")
}

/// Path cost over the straight-line start–goal distance in
/// configuration space.
pub fn stretch(scenario: &Scenario, result: &PlanResult) -> f64 {
    result.path_cost / scenario.start.distance(&scenario.goal)
}
