//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serial_cluster --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures one workload end to end against its deployment,
//! untraced, and prints the end-to-end metrics. `--trace 1` replays the
//! same generated request stream at increasing depth (engine → server →
//! loopback wire → WAL → 3-replica quorum), with a span around every
//! call into a layer, plus one untraced run of the full stack, and
//! prints the per-layer metrics. Either way the run checks the answers
//! and the ε ledgers; a failed check exits non-zero without a result.
//! The last line of standard output is the result as one JSON object.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod drive;
mod inputs;
mod report;
mod stack;
mod trace;

use drive::{ClientRun, ReaderRun, Window};
use inputs::{Inputs, Workload, EPS_QUERY};
use report::{percentile, Report};
use stack::{counter, Deployment, Rung, LADDER};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Span;

/// Set-ups per end-to-end run; `setup_s` is their median. The last
/// [`ROUNDS`] of them are measured.
const SETUPS: usize = 5;
const ROUNDS: usize = 3;
/// The follower reader's schedule.
const READS_PER_SECOND: u32 = 1000;
/// Requests replayed right after `clear_sensitivity_cache` for the cold
/// engine figure, and direct one-record commits for the WAL ceiling.
const COLD_SERVES: usize = 32;
const DIRECT_COMMITS: usize = 200;
/// Length of the follower-read probe on the idle cluster.
const READ_PROBE: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serial_cluster|mixed_analysts \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let scratch = Scratch::new();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} commit={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = if args.trace {
        traced(&args, &scratch.0)
    } else {
        end_to_end(&args, &scratch.0)
    };
    drop(scratch);
    let outcome = outcome.and_then(|report| {
        let missing = report.missing();
        if missing.is_empty() {
            Ok(report)
        } else {
            Err(missing)
        }
    });
    match outcome {
        Ok(report) => report.print(),
        Err(problems) => {
            for p in &problems {
                eprintln!("perfbench: check failed: {p}");
            }
            std::process::exit(1);
        }
    }
}

/// The run's store and replica directories; removed when the run ends,
/// whether it passed or not.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = Path::new("perfbench")
            .join("out")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The deployment a workload is measured against end to end.
fn deployment_rung(w: Workload) -> Rung {
    if w.replicated() {
        Rung::Replica
    } else {
        Rung::Store
    }
}

/// Everything one measured phase produced.
struct Phase {
    clients: Vec<ClientRun>,
    reader: Option<ReaderRun>,
    max_lag: Option<u64>,
    lag_spans: Vec<Span>,
    window: Window,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.latencies_us.iter().copied())
            .collect()
    }

    fn answered(&self) -> u64 {
        self.clients.iter().map(|c| c.answered).sum()
    }

    fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum::<u64>()
            + self.reader.as_ref().map_or(0, |r| r.attempted)
    }

    fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum::<u64>()
            + self.reader.as_ref().map_or(0, |r| r.failed)
    }

    /// Answers per second of the timed phase, measured up to the last
    /// answer inside it.
    fn throughput(&self) -> f64 {
        let answers: u64 = self.clients.iter().map(|c| c.answered_in_window).sum();
        let last = self.clients.iter().filter_map(|c| c.last_in_window).max();
        match last {
            Some(t) => answers as f64 / t.duration_since(self.window.start).as_secs_f64(),
            None => 0.0,
        }
    }

    fn last_answer(&self) -> Option<Instant> {
        self.clients.iter().filter_map(|c| c.last_answer).max()
    }

    fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .clients
            .iter()
            .flat_map(|c| c.spans.iter().copied())
            .chain(self.reader.iter().flat_map(|r| r.spans.iter().copied()))
            .chain(self.lag_spans.iter().copied())
            .collect();
        all.sort_by_key(|s| s.start_ns);
        all
    }
}

/// Drives every query client (and the follower reader, when `reads`) for
/// one window. A traced run of a cluster also samples replica status
/// throughout.
fn measure(
    inputs: &Inputs,
    dep: &mut Deployment,
    warmup: Duration,
    seconds: Duration,
    traced: bool,
    reads: bool,
) -> Phase {
    let w = inputs.workload;
    let lanes = std::mem::take(&mut dep.lanes);
    let reader = if reads { dep.reader.take() } else { None };
    let window = Window::new(warmup, seconds);
    let analyst = inputs.analysts(0)[0].clone();
    let stop = AtomicBool::new(false);
    let replicas = &dep.replicas;
    let (clients, reader, lag) = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(c, lane)| {
                let stream = inputs.stream(c);
                s.spawn(move || {
                    drive::run_client(lane, stream, c, w.window(), w.replicated(), traced, window)
                })
            })
            .collect();
        let reader = reader.map(|client| {
            let analyst = &analyst;
            s.spawn(move || drive::run_reader(client, analyst, READS_PER_SECOND, traced, window))
        });
        let sampler = (traced && !replicas.is_empty())
            .then(|| s.spawn(|| drive::sample_lag(replicas, &stop, window.epoch)));
        let clients: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect();
        let reader = reader.map(|h| h.join().expect("reader panicked"));
        stop.store(true, Ordering::Release);
        let lag = sampler.map(|h| h.join().expect("status sampler panicked"));
        (clients, reader, lag)
    });
    let mut clients = clients;
    dep.lanes = clients
        .iter_mut()
        .map(|c| c.lane.take().expect("lane handed back"))
        .collect();
    let mut reader = reader;
    if let Some(r) = reader.as_mut() {
        dep.reader = r.client.take();
    }
    let (max_lag, lag_spans) = match lag {
        Some((l, s)) => (Some(l), s),
        None => (None, Vec::new()),
    };
    Phase {
        clients,
        reader,
        max_lag,
        lag_spans,
        window,
    }
}

/// Facts the checks establish about a phase.
struct Checked {
    range_mae: f64,
    range_answers: usize,
    eps_spent: Option<f64>,
    converge: Option<Duration>,
}

/// Runs every correctness check that applies to the deployment.
fn check_phase(
    inputs: &Inputs,
    dep: &mut Deployment,
    phase: &Phase,
) -> Result<Checked, Vec<String>> {
    let w = inputs.workload;
    let mut problems: Vec<String> = phase
        .clients
        .iter()
        .flat_map(|c| c.problems.iter().cloned())
        .collect();
    for c in &phase.clients {
        for e in &c.errors {
            eprintln!("perfbench: request failed: {e}");
        }
    }
    if let Some(r) = &phase.reader {
        for e in &r.errors {
            eprintln!("perfbench: read failed: {e}");
        }
    }
    if phase.answered() == 0 {
        problems.push("no request was answered".into());
    }
    let ranges: Vec<check::RangeObs> = phase
        .clients
        .iter()
        .flat_map(|c| c.ranges.iter().cloned())
        .collect();
    // Ranges are released on their own unless the scheduler can fold
    // several into one Ordered release: not in the bare engine, not under
    // replication (writes bypass the scheduler), not with one request in
    // flight.
    let stand_alone =
        matches!(dep.rung, Rung::Engine | Rung::Replica) || w.window() * w.clients() == 1;
    let range_mae = match check::ranges(inputs, &ranges, EPS_QUERY, stand_alone) {
        Ok(m) => m,
        Err(e) => {
            problems.push(e);
            f64::NAN
        }
    };
    let converge = if dep.replicas.is_empty() {
        None
    } else {
        match dep.await_convergence() {
            Ok(at) => Some(at.saturating_duration_since(phase.last_answer().unwrap_or(at))),
            Err(e) => {
                problems.push(e);
                None
            }
        }
    };
    let durable = matches!(dep.rung, Rung::Store | Rung::Replica);
    let eps_spent = if durable {
        let mut total = 0.0;
        for (lane, run) in dep.lanes.iter_mut().zip(&phase.clients) {
            let client = lane
                .client()
                .expect("durable rungs are served over the wire");
            match check::conservation(client, &dep.engine, &run.requested_eps) {
                Ok(s) => total += s,
                Err(e) => problems.push(e),
            }
        }
        Some(total)
    } else {
        None
    };
    if converge.is_some() {
        let analysts: Vec<String> = (0..w.clients()).flat_map(|c| inputs.analysts(c)).collect();
        if let Err(e) = check::replicas_agree(&dep.replicas, &analysts) {
            problems.push(e);
        }
    }
    if problems.is_empty() {
        Ok(Checked {
            range_mae,
            range_answers: ranges.len(),
            eps_spent,
            converge,
        })
    } else {
        Err(problems)
    }
}

fn shut(dep: Deployment, problems: &mut Vec<String>) {
    if let Err(e) = dep.shutdown() {
        problems.push(e);
    }
}

/// `--trace 0`: the workload against its deployment, untraced.
///
/// The timed seconds are split over [`ROUNDS`] rounds, each on a freshly
/// set-up deployment with its own engine seed; throughput and latency
/// percentiles are the median over the rounds, so one round that a noisy
/// neighbour slows does not move them.
/// [`SETUPS`] − [`ROUNDS`] more set-ups are made and torn down unmeasured,
/// and `setup_s` is the median of all of them.
fn end_to_end(args: &Args, dir: &Path) -> Result<Report, Vec<String>> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let rung = deployment_rung(w);
    let seconds = Duration::from_secs(args.seconds) / ROUNDS as u32;
    let mut problems = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut phases = Vec::with_capacity(ROUNDS);
    let mut checks = Vec::with_capacity(ROUNDS);
    for i in 0..SETUPS {
        let setup_dir = dir.join(format!("setup-{i}"));
        let (mut dep, took) =
            Deployment::start(rung, &inputs, &setup_dir, false, inputs.engine_seed(i));
        setups.push(took.as_secs_f64());
        if i >= SETUPS - ROUNDS {
            let phase = measure(&inputs, &mut dep, warmup(seconds), seconds, false, false);
            match check_phase(&inputs, &mut dep, &phase) {
                Ok(c) => checks.push(c),
                Err(mut p) => problems.append(&mut p),
            }
            phases.push(phase);
        }
        shut(dep, &mut problems);
        let _ = std::fs::remove_dir_all(&setup_dir);
    }
    if !problems.is_empty() {
        return Err(problems);
    }

    let per_round = |f: &dyn Fn(&Phase) -> f64| {
        let v: Vec<f64> = phases.iter().map(f).collect();
        percentile(&v, 0.5)
    };
    let mut r = Report::new(false);
    r.attempted = phases.iter().map(Phase::attempted).sum();
    r.failed = phases.iter().map(Phase::failed).sum();
    let answered: u64 = phases.iter().map(Phase::answered).sum();
    let samples = phases.iter().map(|p| p.latencies().len()).sum();
    let spent: f64 = checks
        .iter()
        .map(|c| c.eps_spent.expect("the deployment is durable"))
        .sum();
    let range_answers: usize = checks.iter().map(|c| c.range_answers).sum();
    let range_abs_err: f64 = checks
        .iter()
        .map(|c| c.range_mae * c.range_answers as f64)
        .sum();
    for (i, p) in phases.iter().enumerate() {
        let lat = p.latencies();
        println!(
            "round {i}: {:.1} req/s, p50 {:.0} us, p99 {:.0} us over {} requests",
            p.throughput(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.99),
            lat.len()
        );
    }
    r.metric("setup_s", percentile(&setups, 0.5), "s", SETUPS);
    let rps = per_round(&Phase::throughput);
    r.metric("throughput_rps", rps, "req/s", answered as usize);
    let p50 = per_round(&|p| percentile(&p.latencies(), 0.5));
    r.metric("latency_p50_us", p50, "us", samples);
    let p99 = per_round(&|p| percentile(&p.latencies(), 0.99));
    r.metric("latency_p99_us", p99, "us", samples);
    let eps = spent / answered as f64;
    r.metric("eps_per_answer", eps, "eps", answered as usize);
    let mae = range_abs_err / range_answers as f64;
    r.metric("range_mae", mae, "count", range_answers);
    r.metric("peak_rss_mb", report::peak_rss_mb(), "MiB", 1);
    let failed_frac = r.failed as f64 / r.attempted as f64;
    r.info("failed_frac", failed_frac, "ratio", r.attempted as usize);
    Ok(r)
}

/// Untimed requests before the timed phase: enough for every cache to
/// fill (one pass over a range pool takes 32 requests).
fn warmup(seconds: Duration) -> Duration {
    (seconds / 10).clamp(Duration::from_millis(200), Duration::from_millis(500))
}

/// Per-rung figures the ladder keeps.
struct RungResult {
    rung: Rung,
    p50: f64,
    p99: f64,
    samples: usize,
}

/// `--trace 1`: the ladder, then the untraced full stack.
fn traced(args: &Args, dir: &Path) -> Result<Report, Vec<String>> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let full = deployment_rung(w);
    // Six measured phases share the run: five traced rungs and the
    // untraced full stack.
    let slice = Duration::from_secs(args.seconds) / 6;
    let mut problems = Vec::new();
    let mut r = Report::new(true);
    let mut rungs: Vec<RungResult> = Vec::new();
    let mut span_sets: Vec<(&str, Vec<Span>)> = Vec::new();
    let mut reads: Option<ReaderRun> = None;

    for rung in LADDER {
        let rung_dir = dir.join(rung.name());
        // The follower reader probes the cluster's read path.
        let cluster = rung == Rung::Replica;
        let (mut dep, _) =
            Deployment::start(rung, &inputs, &rung_dir, cluster, inputs.engine_seed(0));
        let phase = measure(&inputs, &mut dep, warmup(slice), slice, true, false);
        r.attempted += phase.attempted();
        r.failed += phase.failed();
        let m = dep.metrics();
        let wal_bytes = dep.wal_bytes();
        let checked = check_phase(&inputs, &mut dep, &phase);
        let lat = phase.latencies();
        rungs.push(RungResult {
            rung,
            p50: percentile(&lat, 0.5),
            p99: percentile(&lat, 0.99),
            samples: lat.len(),
        });
        match rung {
            Rung::Engine => {
                let hits = counter(&m, "engine_cache_hits_total");
                let lookups = hits + counter(&m, "engine_cache_misses_total");
                let hit_ratio = ratio(hits, lookups);
                r.metric(
                    "engine.cache_hit_ratio",
                    hit_ratio,
                    "ratio",
                    lookups as usize,
                );
                let cold = cold_serves(&inputs, &dep);
                let cold_p50 = percentile(&cold, 0.5);
                r.metric("engine.cold_serve_p50_us", cold_p50, "us", cold.len());
            }
            Rung::Store => {
                // Replicated writes bypass the scheduler, so its sharing
                // is read on the standalone stack for every workload.
                let answered = counter(&m, "server_answered_total");
                let n = answered as usize;
                let per_release = ratio(answered, counter(&m, "server_releases_total"));
                r.metric("server.answers_per_release", per_release, "ratio", n);
                let ranges: usize = phase.clients.iter().map(|c| c.ranges.len()).sum();
                let folded = counter(&m, "server_batched_range_answers_total");
                let folded_share = ratio(folded, ranges as u64);
                r.metric("server.folded_range_share", folded_share, "ratio", ranges);
                let coalesced = ratio(counter(&m, "server_coalesced_answers_total"), answered);
                r.metric("server.coalesced_share", coalesced, "ratio", n);
                let refusals = counter(&m, "server_refused_queue_full_total")
                    + counter(&m, "server_refused_admission_total")
                    + counter(&m, "server_shed_requests_total")
                    + counter(&m, "server_deadline_refusals_total");
                r.metric("server.refusals", refusals as f64, "count", n);
            }
            _ => {}
        }
        if rung == full {
            let requests = phase.attempted();
            let n = requests as usize;
            let frames = counter(&m, "net_frames_in_total") + counter(&m, "net_frames_out_total");
            r.metric(
                "net.frames_per_request",
                ratio(frames, requests),
                "ratio",
                n,
            );
            let window_refusals = counter(&m, "net_window_refusals_total") as f64;
            r.metric("net.window_refusals", window_refusals, "count", n);
            let syncs = counter(&m, "store_syncs_total");
            let records = counter(&m, "store_appended_records_total");
            let per_sync = ratio(records, syncs);
            r.metric("store.records_per_sync", per_sync, "ratio", syncs as usize);
            let answered = phase.answered();
            let per_answer = ratio(wal_bytes, answered);
            r.metric(
                "store.wal_bytes_per_answer",
                per_answer,
                "bytes",
                answered as usize,
            );
        }
        if rung == Rung::Replica {
            let lag = phase.max_lag.unwrap_or(0) as f64;
            r.metric(
                "replica.max_follower_lag",
                lag,
                "count",
                phase.lag_spans.len(),
            );
            if let Ok(c) = &checked {
                let ms = c.converge.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
                r.metric("replica.converge_ms", ms, "ms", 1);
            }
            // Follower `Client::budget` reads on the idle cluster.
            let probe = measure(&inputs, &mut dep, Duration::ZERO, READ_PROBE, true, true);
            r.attempted += probe.attempted();
            r.failed += probe.failed();
            reads = probe.reader;
        }
        span_sets.push((rung.name(), phase.spans()));
        if let Err(mut p) = checked {
            problems.append(&mut p);
        }
        shut(dep, &mut problems);
        let _ = std::fs::remove_dir_all(&rung_dir);
    }

    // The untraced full stack, for the tracing overhead.
    let full_dir = dir.join("untraced");
    let (mut dep, _) = Deployment::start(full, &inputs, &full_dir, false, inputs.engine_seed(0));
    let phase = measure(&inputs, &mut dep, warmup(slice), slice, false, false);
    r.attempted += phase.attempted();
    r.failed += phase.failed();
    if let Err(mut p) = check_phase(&inputs, &mut dep, &phase) {
        problems.append(&mut p);
    }
    shut(dep, &mut problems);
    let _ = std::fs::remove_dir_all(&full_dir);

    let span_path = Path::new("perfbench")
        .join("out")
        .join(format!("spans-{}.jsonl", w.name()));
    let named: Vec<(&str, &[Span])> = span_sets.iter().map(|(n, s)| (*n, s.as_slice())).collect();
    if let Err(e) = trace::write_spans(&span_path, &named) {
        problems.push(format!("writing spans: {e}"));
    }
    if !problems.is_empty() {
        return Err(problems);
    }

    let engine = &rungs[0];
    r.metric("engine.serve_p50_us", engine.p50, "us", engine.samples);
    r.metric("engine.serve_p99_us", engine.p99, "us", engine.samples);
    for pair in rungs.windows(2) {
        let (below, this) = (&pair[0], &pair[1]);
        let name = this.rung.name();
        let (p50, p99) = (this.p50 - below.p50, this.p99 - below.p99);
        r.metric(format!("{name}.added_p50_us"), p50, "us", this.samples);
        r.metric(format!("{name}.added_p99_us"), p99, "us", this.samples);
    }
    let commits = direct_commits(&dir.join("commits"));
    let commit_p50 = percentile(&commits, 0.5);
    r.metric("store.commit_p50_us", commit_p50, "us", commits.len());
    let top = rungs
        .iter()
        .find(|x| x.rung == full)
        .expect("the full stack is a rung");
    let untraced = phase.latencies();
    let untraced_p50 = percentile(&untraced, 0.5);
    let overhead = (top.p50 - untraced_p50) / untraced_p50 * 100.0;
    r.metric("bench.trace_overhead_pct", overhead, "%", top.samples);
    let reads = reads.expect("the replica rung probed follower reads");
    let n = reads.latencies_us.len();
    r.metric(
        "bench.read_p50_us",
        percentile(&reads.latencies_us, 0.5),
        "us",
        n,
    );
    r.metric(
        "bench.read_p99_us",
        percentile(&reads.latencies_us, 0.99),
        "us",
        n,
    );
    r.metric(
        "bench.read_late_p99_us",
        percentile(&reads.late_us, 0.99),
        "us",
        n,
    );
    r.info("ladder_top_p50_us", top.p50, "us", top.samples);
    r.info(
        "untraced_full_stack_p50_us",
        untraced_p50,
        "us",
        untraced.len(),
    );
    Ok(r)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `Engine::serve` latencies right after `clear_sensitivity_cache`, µs.
fn cold_serves(inputs: &Inputs, dep: &Deployment) -> Vec<f64> {
    let mut stream = inputs.stream(0);
    (0..COLD_SERVES)
        .map(|_| {
            let (_, item) = stream.next_item();
            dep.engine.clear_sensitivity_cache();
            let t = Instant::now();
            let _ = std::hint::black_box(dep.engine.serve(&item.analyst, &item.request));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

/// Direct `Store::commit` of one charge record at a time, µs: the
/// WAL-plus-fsync ceiling of this disk.
fn direct_commits(dir: &Path) -> Vec<f64> {
    use bf_store::Record;
    let store = bf_engine::Store::open(dir).expect("open the commit probe's store");
    store
        .commit(&[Record::SessionOpened {
            analyst: "probe".into(),
            total_bits: inputs::BUDGET.to_bits(),
        }])
        .expect("commit a session open");
    let out = (0..DIRECT_COMMITS)
        .map(|_| {
            let record = Record::Charged {
                analyst: "probe".into(),
                label: "range@line/line".into(),
                eps_bits: EPS_QUERY.to_bits(),
            };
            let t = Instant::now();
            store.commit(&[record]).expect("commit a charge");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    out
}
