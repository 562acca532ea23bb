//! Host-speed reference: a fixed kernel, independent of the planner
//! crates, timed between the measured plans of a run.
//!
//! On a shared host the same work takes up to about half as long again in
//! a slow phase, and phases come and go within a run and between runs.
//! Thread CPU time does not remove this: the vCPU runs, only slower. Each
//! timed plan is therefore followed by one reference chunk, and plan times
//! are reported in reference-host milliseconds: each plan's wall time
//! times [`scale`] of the median of the chunks timed around it, so a slow
//! phase within a run is corrected where it happened. A change to the
//! planner moves plan time and not the chunks, so it shows in full; a
//! change in host speed moves both and largely cancels.
//!
//! The kernel is arithmetic of the kind plans spend their time on: a
//! linear nearest-neighbor scan over 7-D points and 15-axis
//! separating-axis tests between oriented boxes, L1/L2 resident. A slow
//! phase slows it more than it slows plans, and by a ratio that itself
//! drifts: log plan time moved 0.5-1.0 as much as log chunk time, from
//! pass to pass within 150 s runs and from run to run over an hour.
//! [`ELASTICITY`] sits in the middle of that range; a full correction
//! shifted set medians by up to a fifth. Over sets of 10 runs whose wall
//! time medians spread 0.15-0.39 (quartile distance over median), the
//! median plan time spread 0.03-0.10. One scale per run instead of one per
//! plan did as well on the median but worse on the p90, which falls in
//! the slow phases. A pointer-chasing part (lookups in a 1 MB search tree)
//! was tried and dropped: in some phases its time swung 3× while plan
//! times barely moved.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, SplitMix};

/// Wall time of one chunk on the reference host (a 2-vCPU Intel Xeon VM
/// in a quiet phase). It only sets the unit: a reported time equals the
/// wall time a plan takes on that host at that speed.
pub const NOMINAL_CHUNK_MS: f64 = 3.0;

/// How much log plan time moves per unit of log chunk time.
pub const ELASTICITY: f64 = 0.75;

/// Chunks on each side of a plan whose median gives that plan's speed.
const WINDOW: usize = 4;

/// Scale from wall time to reference-host time at a host speed where a
/// chunk takes `chunk_ms`.
pub fn scale(chunk_ms: f64) -> f64 {
    (NOMINAL_CHUNK_MS / chunk_ms).powf(ELASTICITY)
}

/// Plan wall times in reference-host ms, `chunks_ms[i]` having been timed
/// right after plan `i`.
pub fn to_reference(wall_ms: &[f64], chunks_ms: &[f64]) -> Vec<f64> {
    wall_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(chunks_ms.len());
            ms * scale(median(&chunks_ms[lo..hi]))
        })
        .collect()
}

const POINTS: usize = 1024;
const QUERIES: usize = 8;
const BOXES: usize = 96;
/// Work units per chunk.
const UNITS: usize = 18;

#[derive(Clone, Copy)]
struct Obb {
    center: [f64; 3],
    half: [f64; 3],
    /// Rows are the box's axes.
    axes: [[f64; 3]; 3],
}

pub struct Reference {
    points: Vec<[f64; 7]>,
    queries: Vec<[f64; 7]>,
    boxes: Vec<Obb>,
    /// What one unit of work returns; every chunk must return it again.
    checksum: u64,
}

fn dot(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Separating-axis test between two oriented boxes: the 3 + 3 face axes
/// and the 9 edge-edge cross products.
fn overlap(a: &Obb, b: &Obb) -> bool {
    const EPS: f64 = 1e-9;
    let mut r = [[0.0; 3]; 3];
    let mut abs_r = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            r[i][j] = dot(&a.axes[i], &b.axes[j]);
            abs_r[i][j] = r[i][j].abs() + EPS;
        }
    }
    let d = [
        b.center[0] - a.center[0],
        b.center[1] - a.center[1],
        b.center[2] - a.center[2],
    ];
    let t = [
        dot(&d, &a.axes[0]),
        dot(&d, &a.axes[1]),
        dot(&d, &a.axes[2]),
    ];
    for i in 0..3 {
        let rb = b.half[0] * abs_r[i][0] + b.half[1] * abs_r[i][1] + b.half[2] * abs_r[i][2];
        if t[i].abs() > a.half[i] + rb {
            return false;
        }
    }
    for j in 0..3 {
        let ra = a.half[0] * abs_r[0][j] + a.half[1] * abs_r[1][j] + a.half[2] * abs_r[2][j];
        let tj = t[0] * r[0][j] + t[1] * r[1][j] + t[2] * r[2][j];
        if tj.abs() > ra + b.half[j] {
            return false;
        }
    }
    for i in 0..3 {
        let (i1, i2) = ((i + 1) % 3, (i + 2) % 3);
        for j in 0..3 {
            let (j1, j2) = ((j + 1) % 3, (j + 2) % 3);
            let ra = a.half[i1] * abs_r[i2][j] + a.half[i2] * abs_r[i1][j];
            let rb = b.half[j1] * abs_r[i][j2] + b.half[j2] * abs_r[i][j1];
            if (t[i2] * r[i1][j] - t[i1] * r[i2][j]).abs() > ra + rb {
                return false;
            }
        }
    }
    true
}

/// A rotation from a random unit quaternion.
fn rotation(rng: &mut SplitMix) -> [[f64; 3]; 3] {
    let mut q = [0.0; 4];
    for v in &mut q {
        *v = rng.unit() * 2.0 - 1.0;
    }
    let n = q.iter().map(|v| v * v).sum::<f64>().sqrt();
    let [w, x, y, z] = q.map(|v| v / n);
    [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ]
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = SplitMix::new(0x5EED_C0DE_0F5B_EED5);
        let point = |rng: &mut SplitMix| [(); 7].map(|_| rng.unit());
        let points = (0..POINTS).map(|_| point(&mut rng)).collect();
        let queries = (0..QUERIES).map(|_| point(&mut rng)).collect();
        let boxes = (0..BOXES)
            .map(|_| Obb {
                center: [(); 3].map(|_| rng.unit() * 4.0),
                half: [(); 3].map(|_| 0.2 + rng.unit() * 0.8),
                axes: rotation(&mut rng),
            })
            .collect();
        let mut reference = Reference {
            points,
            queries,
            boxes,
            checksum: 0,
        };
        reference.checksum = reference.unit();
        reference
    }

    /// One fixed unit of work; returns what it found, folded.
    fn unit(&self) -> u64 {
        let mut acc = 0u64;
        for q in &self.queries {
            let (mut best, mut arg) = (f64::INFINITY, 0);
            for (i, p) in self.points.iter().enumerate() {
                let d: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best {
                    (best, arg) = (d, i);
                }
            }
            acc = acc.wrapping_mul(31).wrapping_add(arg as u64);
        }
        for (i, a) in self.boxes.iter().enumerate() {
            for b in &self.boxes[i + 1..] {
                acc = acc.wrapping_mul(3).wrapping_add(u64::from(overlap(a, b)));
            }
        }
        acc
    }

    /// Wall time of one chunk in ms.
    pub fn chunk_ms(&self) -> f64 {
        let started = Instant::now();
        for _ in 0..UNITS {
            let sum = black_box(self).unit();
            assert_eq!(
                sum, self.checksum,
                "reference kernel returned a different result"
            );
        }
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_and_finds_both_overlaps_and_separations() {
        let r = Reference::new();
        assert_eq!(r.unit(), Reference::new().unit());
        let hits = (1..BOXES)
            .filter(|&j| overlap(&r.boxes[0], &r.boxes[j]))
            .count();
        assert!(hits > 0 && hits < BOXES - 1, "{hits} overlaps");
        assert!(r.chunk_ms() > 0.0);
    }

    #[test]
    fn plans_take_the_scale_of_the_chunks_around_them() {
        let chunks = [vec![NOMINAL_CHUNK_MS; 20], vec![2.0 * NOMINAL_CHUNK_MS; 20]].concat();
        let times = to_reference(&[1.0; 40], &chunks);
        assert_eq!(times[0], 1.0);
        assert_eq!(times[39], 0.5f64.powf(ELASTICITY));
    }
}
