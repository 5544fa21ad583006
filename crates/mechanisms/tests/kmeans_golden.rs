//! Golden bit-identity digests for the k-means kernels.
//!
//! Each case runs `PrivateKmeans::run`, `lloyd_kmeans` and `objective` on a
//! seeded point set and folds the exact bits of every centroid coordinate
//! (and of the objective value) into an FNV-1a digest. The committed
//! digests pin the arithmetic — nearest-centroid tie-breaking, summation
//! order, noise-draw order, empty-cluster handling — so any rewrite of the
//! Lloyd pass must reproduce the same centroids bit for bit.

use bf_core::Epsilon;
use bf_domain::{BoundingBox, PointSet};
use bf_mechanisms::kmeans::{
    init_random, lloyd_kmeans, objective, KmeansSecretSpec, PrivateKmeans,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_f64s(hash: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(hash, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    })
}

fn centroid_digest(centroids: &[Vec<f64>]) -> u64 {
    fnv_f64s(FNV_OFFSET, centroids.iter().flatten().copied())
}

/// `n` points in `[0, 100]^dim`, drawn around `blobs` seeded centres.
fn seeded_points(dim: usize, n: usize, blobs: usize, rng: &mut StdRng) -> PointSet {
    let centres: Vec<Vec<f64>> = (0..blobs)
        .map(|_| {
            (0..dim)
                .map(|_| 10.0 + 80.0 * rng.random::<f64>())
                .collect()
        })
        .collect();
    let points = (0..n)
        .map(|i| {
            centres[i % blobs]
                .iter()
                .map(|&c| (c + 16.0 * (rng.random::<f64>() - 0.5)).clamp(0.0, 100.0))
                .collect()
        })
        .collect();
    PointSet::new(points, BoundingBox::new(vec![0.0; dim], vec![100.0; dim]))
}

/// `(dim, n, k, empty_cluster)`. With `empty_cluster` the last initial
/// centroid sits in a far corner no point is near, so its cluster is empty
/// from the first iteration.
type Case = (usize, usize, usize, bool);

const CASES: [Case; 11] = [
    (1, 700, 1, false),
    (1, 700, 4, false),
    (1, 700, 7, false),
    (2, 900, 1, false),
    (2, 5000, 4, false),
    (2, 900, 7, false),
    (3, 800, 1, false),
    (3, 800, 4, false),
    (3, 800, 7, false),
    (2, 900, 4, true),
    (4, 600, 4, false),
];

/// Digests of `(private, lloyd, objective(private), objective(lloyd))`.
fn run_case((dim, n, k, empty_cluster): Case) -> [u64; 4] {
    let seed = (dim * 1000 + k * 10 + usize::from(empty_cluster)) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let points = seeded_points(dim, n, 5, &mut rng);
    let mut init = init_random(&points, k, &mut rng);
    if empty_cluster {
        *init.last_mut().unwrap() = vec![1.0e6; dim];
    }
    let spec = if k % 2 == 0 {
        KmeansSecretSpec::L1Threshold(4.0)
    } else {
        KmeansSecretSpec::Full
    };
    let mech = PrivateKmeans::new(k, 10, Epsilon::new(1.0).unwrap(), spec);
    let private = mech.run(&points, &init, &mut rng);
    let lloyd = lloyd_kmeans(&points, &init, 10);
    if empty_cluster {
        // The far-corner centroid attracts nothing, so Lloyd leaves it
        // where it started: the empty-cluster branch is really covered.
        assert_eq!(lloyd.last(), init.last());
    }
    [
        centroid_digest(&private),
        centroid_digest(&lloyd),
        fnv_f64s(FNV_OFFSET, [objective(&points, &private)]),
        fnv_f64s(FNV_OFFSET, [objective(&points, &lloyd)]),
    ]
}

#[test]
fn kmeans_centroids_and_objective_are_bit_identical_to_golden() {
    let mismatches: Vec<String> = CASES
        .iter()
        .zip(&GOLDEN)
        .filter_map(|(case, want)| {
            let got = run_case(*case);
            (got != *want).then(|| format!("{case:?}: got {got:#x?}, want {want:#x?}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Recorded from the assign-then-accumulate implementation; one row per
/// case above, in the same order.
const GOLDEN: [[u64; 4]; 11] = [
    [
        0xcd847143e1fb0b28,
        0x02a242b5a0181cda,
        0x529e28a818b04422,
        0x47ee4748496cd403,
    ],
    [
        0x141433e3fcdcc2ea,
        0xf1d0a2912385d6f5,
        0x6af669b722a3b55f,
        0x9921a8e5b4a44c9f,
    ],
    [
        0xd1f40e9827becd6b,
        0x8629174f47ea8997,
        0xd0bed32d3de5b968,
        0x7e419f5ac27e9aec,
    ],
    [
        0xcf1f067613dd3cc4,
        0x8463666a803d0452,
        0xeeaf7f89ebfa234f,
        0x7841281da27935de,
    ],
    [
        0xdf9a8370e7856e4b,
        0xfca80654909881f5,
        0xf0b9ed9048102c24,
        0x8c4dabf63f7f8be3,
    ],
    [
        0xad6c6e130cd6f4a8,
        0x3fc7dab9cb84aee2,
        0x53b73409f095194a,
        0x90398915f8fa18cf,
    ],
    [
        0x9835471f8e543628,
        0xa6a6f4701f3afca7,
        0x52f5860d967f08a2,
        0xcb8aad4f218a3a9d,
    ],
    [
        0x5a37d1538d1c9a8b,
        0xb40033d48be1888c,
        0x753c20edad16953c,
        0x2183e664bfb435b9,
    ],
    [
        0x9260b36af088b942,
        0x9815fa039d09a54a,
        0x75379e7b86c356b7,
        0xbbd17dcad9252240,
    ],
    [
        0x38ec85a55eba94e3,
        0xf8e7d17848b02b4d,
        0xd99ff898019937de,
        0x4d93b29df8a92c2a,
    ],
    [
        0xfa85e89d008f8a98,
        0x0f422767622008ca,
        0xf458d85cc6663781,
        0xc7cd043d85bce34d,
    ],
];
