//! K-means clustering under Blowfish policies (Section 6).
//!
//! The private algorithm is SuLQ k-means (Blum et al. \[2\]): each Lloyd
//! iteration asks two queries — cluster sizes `q_size` and per-cluster
//! coordinate sums `q_sum` — and perturbs both with Laplace noise. Under
//! differential privacy `q_sum` has sensitivity `2·d(T)` (the domain's L1
//! diameter); under Blowfish policies it shrinks to the largest secret
//! edge length (Lemma 6.1), which is where the accuracy gains of Figure 1
//! come from.
//!
//! Both queries, and the k-means objective, come from one kernel, the
//! crate-private `LloydPass`:
//!
//! - **One pass per iteration.** A single walk over the point set's
//!   row-major coordinates finds each point's nearest centroid and adds the
//!   point to that cluster's count and sum; no label vector is built.
//!   [`PrivateKmeans::run`], [`lloyd_kmeans`] and [`objective`] all use it,
//!   with flat `k×dim` buffers allocated once per run.
//! - **A fixed summation order, so results are bit-identical.** Squared
//!   distances are summed in coordinate order, ties go to the lowest
//!   centroid index (strict `<`), and cluster sums and the objective
//!   accumulate in point order. The compile-time-dim and run-time-dim
//!   instances of the kernel do the same operations in the same order, so
//!   same inputs and seed give the same centroid bits either way.
//! - **No threads.** The pass runs on the caller's thread; a release is
//!   already one of many that the serving stack schedules, so spawning
//!   workers per iteration would only add overhead.

pub mod lloyd;
pub mod private;
pub mod sensitivity;

pub use lloyd::lloyd_kmeans;
pub use private::PrivateKmeans;
pub use sensitivity::KmeansSecretSpec;

use bf_domain::PointSet;
use rand::seq::index::sample;
use rand::Rng;

/// Per-cluster point counts and coordinate sums of one Lloyd pass, in flat
/// buffers that a run allocates once and refills every iteration.
#[derive(Debug)]
pub(crate) struct LloydPass {
    dim: usize,
    counts: Vec<usize>,
    /// Row-major `k×dim` coordinate sums.
    sums: Vec<f64>,
}

impl LloydPass {
    /// Buffers for `k` clusters of `dim`-dimensional points.
    pub(crate) fn new(k: usize, dim: usize) -> Self {
        Self {
            dim,
            counts: vec![0; k],
            sums: vec![0.0; k * dim],
        }
    }

    /// Assigns every point to its nearest of the row-major `k×dim`
    /// `centroids` and accumulates each cluster's count and coordinate sum.
    /// Returns the k-means objective of `centroids`.
    ///
    /// Dims 1–3 (the paper's line, twitter and skin data) run the kernel
    /// with a compile-time trip count; other dims run the same body with
    /// the dim read at run time.
    pub(crate) fn run(&mut self, points: &PointSet, centroids: &[f64]) -> f64 {
        assert_eq!(points.dim(), self.dim, "point dimensionality mismatch");
        assert_eq!(
            centroids.len(),
            self.sums.len(),
            "need k centroids of the points' dimensionality"
        );
        self.counts.fill(0);
        self.sums.fill(0.0);
        let (counts, sums) = (&mut self.counts[..], &mut self.sums[..]);
        match self.dim {
            1 => lloyd_pass::<1>(points, 1, centroids, counts, sums),
            2 => lloyd_pass::<2>(points, 2, centroids, counts, sums),
            3 => lloyd_pass::<3>(points, 3, centroids, counts, sums),
            dim => lloyd_pass::<0>(points, dim, centroids, counts, sums),
        }
    }

    /// Number of points assigned to cluster `j`.
    pub(crate) fn count(&self, j: usize) -> usize {
        self.counts[j]
    }

    /// Coordinate sums of the points assigned to cluster `j`.
    pub(crate) fn sum(&self, j: usize) -> &[f64] {
        &self.sums[j * self.dim..(j + 1) * self.dim]
    }
}

/// The Lloyd kernel: for each point in order, the nearest centroid is the
/// lowest index `j` whose squared L2 distance (summed in coordinate order)
/// is strictly below every earlier one; the point is added to cluster `j`'s
/// count and sum, and its distance to the running objective. `D` is the
/// dimension when it is known at compile time, `0` to use `dim`.
#[inline(always)]
fn lloyd_pass<const D: usize>(
    points: &PointSet,
    dim: usize,
    centroids: &[f64],
    counts: &mut [usize],
    sums: &mut [f64],
) -> f64 {
    let dim = if D == 0 { dim } else { D };
    let mut cost = 0.0;
    for p in points.iter() {
        let p = &p[..dim];
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (j, c) in centroids.chunks_exact(dim).enumerate() {
            let mut d = 0.0;
            for (x, y) in p.iter().zip(c) {
                d += (x - y) * (x - y);
            }
            let closer = d < best_d;
            best_d = if closer { d } else { best_d };
            best = if closer { j } else { best };
        }
        counts[best] += 1;
        for (s, x) in sums[best * dim..(best + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
        cost += best_d;
    }
    cost
}

/// Row-major `k×dim` centroids back to one `Vec` per centroid.
fn split_rows(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    flat.chunks_exact(dim).map(<[f64]>::to_vec).collect()
}

/// The k-means objective (Definition 6.1): total squared L2 distance from
/// each point to its nearest centroid.
pub fn objective(points: &PointSet, centroids: &[Vec<f64>]) -> f64 {
    LloydPass::new(centroids.len(), points.dim()).run(points, &centroids.concat())
}

/// Samples `k` distinct data points as initial centroids (the common
/// "random" initialization both the private and non-private runs share so
/// that error ratios isolate the noise effect).
pub fn init_random(points: &PointSet, k: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
    assert!(k >= 1 && k <= points.len(), "need 1 ≤ k ≤ n");
    sample(rng, points.len(), k)
        .into_iter()
        .map(|i| points.point(i).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::BoundingBox;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square_points() -> PointSet {
        let bbox = BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]);
        PointSet::new(
            vec![
                vec![1.0, 1.0],
                vec![1.0, 2.0],
                vec![9.0, 9.0],
                vec![9.0, 8.0],
            ],
            bbox,
        )
    }

    #[test]
    fn pass_assigns_counts_and_sums() {
        let pts = square_points();
        let mut pass = LloydPass::new(2, 2);
        let cost = pass.run(&pts, &[1.0, 1.5, 9.0, 8.5]);
        assert_eq!((pass.count(0), pass.count(1)), (2, 2));
        assert_eq!(pass.sum(0), &[2.0, 3.0]);
        assert_eq!(pass.sum(1), &[18.0, 17.0]);
        assert!((cost - 1.0).abs() < 1e-12);
        // Refilling reuses the buffers; a tie goes to the lower index.
        pass.run(&pts, &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!((pass.count(0), pass.count(1)), (4, 0));
        assert_eq!(pass.sum(1), &[0.0, 0.0]);
    }

    #[test]
    fn objective_value() {
        let pts = square_points();
        let cents = vec![vec![1.0, 1.5], vec![9.0, 8.5]];
        // Each point is 0.5 away in one coordinate: 4 * 0.25.
        assert!((objective(&pts, &cents) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn init_yields_distinct_indices() {
        let pts = square_points();
        let mut rng = StdRng::seed_from_u64(3);
        let cents = init_random(&pts, 3, &mut rng);
        assert_eq!(cents.len(), 3);
        for c in &cents {
            assert_eq!(c.len(), 2);
        }
    }
}
