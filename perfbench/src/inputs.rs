//! Workload definitions and seeded input generation.
//!
//! Everything the serving stack receives is generated here from the
//! workload seed with the `bf-data` generators: datasets, point sets,
//! range pools, weight vectors and the request streams. The same seed
//! gives the same inputs, and the exact answers the correctness checks
//! compare against come from the same generated data.

use bf_core::{Epsilon, Policy};
use bf_data::seeded_rng;
use bf_domain::{Dataset, Domain, PointSet};
use bf_engine::{Engine, Request};
use bf_mechanisms::kmeans::KmeansSecretSpec;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// ε per query: 2⁻⁷. Dyadic, so ledger sums are exact in `f64`.
pub const EPS_QUERY: f64 = 1.0 / 128.0;
/// ε per k-means request: 2⁻².
pub const EPS_KMEANS: f64 = 0.25;
/// Every analyst's total budget, 2²⁰ — never the limiting factor.
pub const BUDGET: f64 = 1_048_576.0;

/// The line domain of the cluster workloads and its secret graph G^{d,θ}.
const LINE_CELLS: usize = 4096;
const LINE_THETA: u64 = 8;
const LINE_ROWS: usize = 40_000;
const RANGE_POOL: usize = 32;
/// Adult capital-loss under θ = 100; the twitter grid under θ = 10.
const ADULT_THETA: u64 = 100;
const GRID_THETA: u64 = 10;
const TWITTER_POINTS: usize = 50_000;
const LINEAR_POOL: usize = 16;
const KMEANS_K: usize = 4;
const KMEANS_ITERATIONS: usize = 10;
const KMEANS_THETA_KM: f64 = 100.0;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, one analyst, one request in flight, against a
    /// 3-replica quorum-2 cluster: every layer sits on the latency path.
    SerialCluster,
    /// Two clients with four analysts each and a window of 64, against a
    /// standalone node with a WAL: the engine and the scheduler's
    /// sharing do the work.
    MixedAnalysts,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serial_cluster" => Some(Workload::SerialCluster),
            "mixed_analysts" => Some(Workload::MixedAnalysts),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialCluster => "serial_cluster",
            Workload::MixedAnalysts => "mixed_analysts",
        }
    }

    /// Query clients, each on its own thread and connection.
    pub fn clients(self) -> usize {
        match self {
            Workload::SerialCluster => 1,
            Workload::MixedAnalysts => 2,
        }
    }

    pub fn analysts_per_client(self) -> usize {
        match self {
            Workload::SerialCluster => 1,
            Workload::MixedAnalysts => 4,
        }
    }

    /// Requests each client keeps in flight (a closed loop).
    pub fn window(self) -> usize {
        match self {
            Workload::SerialCluster => 1,
            Workload::MixedAnalysts => 64,
        }
    }

    /// Whether the deployment is the replicated cluster (otherwise a
    /// standalone node with a WAL). Cluster writes carry idempotency keys
    /// (`submit_tagged`).
    pub fn replicated(self) -> bool {
        self == Workload::SerialCluster
    }
}

fn analyst_name(client: usize, k: usize) -> String {
    format!("analyst-{client}-{k}")
}

/// What a request asks for, with what its answer must look like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A range count with its exact answer.
    Range { truth: f64 },
    /// A vector of `len` values (histogram or prefixes).
    Vector { len: usize },
    /// One finite scalar.
    Scalar,
    /// `k` centroids of dimension `dim`.
    Centroids { k: usize, dim: usize },
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Item {
    pub analyst: String,
    pub request: Request,
    pub expect: Expect,
}

/// The registered objects; [`Registry::register`] is the replicated
/// set-up script, identical on every replica.
pub struct Registry {
    policies: Vec<(&'static str, Policy)>,
    datasets: Vec<(&'static str, Dataset)>,
    points: Vec<(&'static str, PointSet)>,
}

impl Registry {
    pub fn policy(&self, name: &str) -> Option<&Policy> {
        self.policies
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| p)
    }

    pub fn register(&self, engine: &Engine) {
        for (name, policy) in &self.policies {
            engine
                .register_policy(*name, policy.clone())
                .expect("register policy");
        }
        for (name, dataset) in &self.datasets {
            engine
                .register_dataset(*name, dataset.clone())
                .expect("register dataset");
        }
        for (name, points) in &self.points {
            engine
                .register_points(*name, points.clone())
                .expect("register points");
        }
    }
}

/// Prefix sums of a dataset's histogram: range truth in O(1).
struct Prefix(Vec<f64>);

impl Prefix {
    fn of(dataset: &Dataset) -> Prefix {
        let mut acc = 0.0;
        let mut out = vec![0.0];
        for c in dataset.histogram().counts() {
            acc += c;
            out.push(acc);
        }
        Prefix(out)
    }

    fn range(&self, lo: usize, hi: usize) -> f64 {
        self.0[hi + 1] - self.0[lo]
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    pub workload: Workload,
    pub registry: Arc<Registry>,
    plan: Arc<Plan>,
    seed: u64,
}

enum Plan {
    /// Range queries cycled from a fixed pool.
    Pool {
        ranges: Vec<(usize, usize)>,
        prefix: Prefix,
    },
    /// The mixed_analysts request mix.
    Mix {
        adult_prefix: Prefix,
        adult_cells: usize,
        grid_cells: usize,
        weights: Vec<Arc<Vec<f64>>>,
    },
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("positive ε")
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = seeded_rng(seed);
        let (registry, plan) = match workload {
            Workload::SerialCluster => {
                let dataset =
                    bf_data::zipf_histogram_dataset(LINE_CELLS, 512, 1.1, LINE_ROWS, &mut rng);
                let ranges = (0..RANGE_POOL)
                    .map(|_| {
                        let lo = rng.random_range(0..LINE_CELLS);
                        let len = rng.random_range(16..1024usize);
                        (lo, (lo + len).min(LINE_CELLS - 1))
                    })
                    .collect();
                let prefix = Prefix::of(&dataset);
                let domain = Domain::line(LINE_CELLS).expect("line domain");
                let registry = Registry {
                    policies: vec![("line", Policy::distance_threshold(domain, LINE_THETA))],
                    datasets: vec![("line", dataset)],
                    points: Vec::new(),
                };
                (registry, Plan::Pool { ranges, prefix })
            }
            Workload::MixedAnalysts => {
                let adult = bf_data::adult_capital_loss_like(&mut rng);
                let grid = bf_data::twitter_grid();
                let twitter = bf_data::twitter::twitter_like_sized(TWITTER_POINTS, &mut rng);
                let points = PointSet::from_grid_dataset(&grid, &twitter);
                let adult_cells = adult.domain().size();
                let weights = (0..LINEAR_POOL)
                    .map(|_| Arc::new((0..adult_cells).map(|_| rng.random::<f64>()).collect()))
                    .collect();
                let plan = Plan::Mix {
                    adult_prefix: Prefix::of(&adult),
                    adult_cells,
                    grid_cells: grid.size(),
                    weights,
                };
                let registry = Registry {
                    policies: vec![
                        (
                            "adult",
                            Policy::distance_threshold(adult.domain().clone(), ADULT_THETA),
                        ),
                        (
                            "twitter",
                            Policy::distance_threshold(grid.domain().clone(), GRID_THETA),
                        ),
                    ],
                    datasets: vec![("adult", adult), ("twitter", twitter)],
                    points: vec![("twitter", points)],
                };
                (registry, plan)
            }
        };
        Inputs {
            workload,
            registry: Arc::new(registry),
            plan: Arc::new(plan),
            seed,
        }
    }

    /// The engine seed for measured round `round`: distinct rounds draw
    /// independent noise, and the same workload seed gives the same
    /// rounds.
    pub fn engine_seed(&self, round: usize) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round as u64
    }

    /// The request stream of query client `client`.
    pub fn stream(&self, client: usize) -> Stream {
        Stream {
            plan: Arc::clone(&self.plan),
            rng: seeded_rng(self.seed ^ (0x5eed_0000 + client as u64)),
            client,
            analysts: self.workload.analysts_per_client(),
            next: 0,
            block: Vec::new(),
        }
    }

    /// Every analyst of the workload, per client.
    pub fn analysts(&self, client: usize) -> Vec<String> {
        (0..self.workload.analysts_per_client())
            .map(|k| analyst_name(client, k))
            .collect()
    }
}

/// A client's deterministic, unbounded request stream.
pub struct Stream {
    plan: Arc<Plan>,
    rng: StdRng,
    client: usize,
    analysts: usize,
    next: u64,
    /// The rest of the current block of the mix.
    block: Vec<Kind>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Range,
    Cumulative,
    Histogram,
    Linear,
    Kmeans,
}

/// One block of the `mixed_analysts` mix: 50% range, 20% cumulative
/// histogram, 15% histogram, 10% linear, 5% k-means. Each block is
/// shuffled, so the mix holds exactly in every 20 requests and the
/// ε-heavy k-means share does not vary from seed to seed.
const MIX_BLOCK: [(Kind, usize); 5] = [
    (Kind::Range, 10),
    (Kind::Cumulative, 4),
    (Kind::Histogram, 3),
    (Kind::Linear, 2),
    (Kind::Kmeans, 1),
];

impl Stream {
    /// The next request; also returns its per-client sequence number
    /// (from 1), usable as an idempotency key.
    pub fn next_item(&mut self) -> (u64, Item) {
        self.next += 1;
        let i = self.next;
        let analyst = analyst_name(self.client, (i as usize - 1) % self.analysts);
        let (request, expect) = match &*self.plan {
            Plan::Pool { ranges, prefix } => {
                let (lo, hi) = ranges[(i as usize - 1) % ranges.len()];
                (
                    Request::range("line", "line", eps(EPS_QUERY), lo, hi),
                    Expect::Range {
                        truth: prefix.range(lo, hi),
                    },
                )
            }
            Plan::Mix {
                adult_prefix,
                adult_cells,
                grid_cells,
                weights,
            } => {
                if self.block.is_empty() {
                    for (kind, n) in MIX_BLOCK {
                        self.block.extend(std::iter::repeat_n(kind, n));
                    }
                    for i in (1..self.block.len()).rev() {
                        let j = self.rng.random_range(0..=i);
                        self.block.swap(i, j);
                    }
                }
                let kind = self.block.pop().expect("a refilled block");
                match kind {
                    Kind::Range => {
                        let lo = self.rng.random_range(0..*adult_cells);
                        let hi = self.rng.random_range(lo..*adult_cells);
                        (
                            Request::range("adult", "adult", eps(EPS_QUERY), lo, hi),
                            Expect::Range {
                                truth: adult_prefix.range(lo, hi),
                            },
                        )
                    }
                    Kind::Cumulative => (
                        Request::cumulative_histogram("adult", "adult", eps(EPS_QUERY)),
                        Expect::Vector { len: *adult_cells },
                    ),
                    Kind::Histogram => (
                        Request::histogram("twitter", "twitter", eps(EPS_QUERY)),
                        Expect::Vector { len: *grid_cells },
                    ),
                    Kind::Linear => {
                        let w = &weights[self.rng.random_range(0..weights.len())];
                        (
                            Request::linear("adult", "adult", eps(EPS_QUERY), w.to_vec()),
                            Expect::Scalar,
                        )
                    }
                    Kind::Kmeans => (
                        Request::kmeans(
                            "twitter",
                            "twitter",
                            eps(EPS_KMEANS),
                            KMEANS_K,
                            KMEANS_ITERATIONS,
                            KmeansSecretSpec::L1Threshold(KMEANS_THETA_KM),
                        ),
                        Expect::Centroids {
                            k: KMEANS_K,
                            dim: 2,
                        },
                    ),
                }
            }
        };
        (
            i,
            Item {
                analyst,
                request,
                expect,
            },
        )
    }
}
