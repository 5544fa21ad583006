//! Load generators: closed-loop query clients, the open-loop follower
//! reader, and the replica status sampler.

use crate::check::{self, RangeObs};
use crate::inputs::{Expect, Stream};
use crate::stack::{Handle, Lane};
use crate::trace::{request_id, Span, Spans};
use bf_engine::Response;
use bf_net::Client;
use bf_replica::Replica;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The phases of one measured run: requests before `start` warm caches
/// and are not timed; the run stops submitting at `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub epoch: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn new(warmup: Duration, measure: Duration) -> Window {
        let epoch = Instant::now();
        Window {
            epoch,
            start: epoch + warmup,
            end: epoch + warmup + measure,
        }
    }
}

/// What one query client saw.
pub struct ClientRun {
    /// The client's lane, handed back for the checks and shutdown.
    pub lane: Option<Lane>,
    /// Latency of every request submitted in the timed phase, µs.
    pub latencies_us: Vec<f64>,
    /// Answers received inside the timed phase, and when the last came.
    pub answered_in_window: u64,
    pub last_in_window: Option<Instant>,
    pub attempted: u64,
    pub answered: u64,
    pub failed: u64,
    /// Σ ε each analyst asked for, over every attempted request.
    pub requested_eps: BTreeMap<String, f64>,
    pub ranges: Vec<RangeObs>,
    /// Correctness failures (wrong shapes), and the first few errors.
    pub problems: Vec<String>,
    pub errors: Vec<String>,
    pub last_answer: Option<Instant>,
    pub spans: Vec<Span>,
}

struct Pending {
    seq: u64,
    submitted: Instant,
    analyst: String,
    expect: Expect,
    range: Option<(String, usize, usize)>,
    handle: Handle,
}

/// Runs one closed-loop client: keeps `window` requests in flight until
/// `w.end`, then drains.
pub fn run_client(
    mut lane: Lane,
    mut stream: Stream,
    client: usize,
    window: usize,
    tagged: bool,
    traced: bool,
    w: Window,
) -> ClientRun {
    let mut spans = Spans::new(w.epoch, traced);
    let mut run = ClientRun {
        lane: None,
        latencies_us: Vec::new(),
        answered_in_window: 0,
        last_in_window: None,
        attempted: 0,
        answered: 0,
        failed: 0,
        requested_eps: BTreeMap::new(),
        ranges: Vec::new(),
        problems: Vec::new(),
        errors: Vec::new(),
        last_answer: None,
        spans: Vec::new(),
    };
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
    loop {
        let now = Instant::now();
        if now < w.end && inflight.len() < window {
            let (seq, item) = stream.next_item();
            let range = match item.request.kind {
                bf_engine::RequestKind::Range { lo, hi } => {
                    Some((item.request.policy.clone(), lo, hi))
                }
                _ => None,
            };
            *run.requested_eps.entry(item.analyst.clone()).or_default() +=
                item.request.epsilon.value();
            run.attempted += 1;
            let submitted = Instant::now();
            let handle = lane.submit(
                &item.analyst,
                &item.request,
                tagged.then_some(seq),
                &mut spans,
                request_id(client, seq),
            );
            inflight.push_back(Pending {
                seq,
                submitted,
                analyst: item.analyst,
                expect: item.expect,
                range,
                handle,
            });
            continue;
        }
        let Some(p) = inflight.pop_front() else {
            break;
        };
        let (result, done) = lane.wait(p.handle, &mut spans, request_id(client, p.seq));
        match result {
            Ok(response) => {
                run.answered += 1;
                run.last_answer = Some(done);
                if done >= w.start && done <= w.end {
                    run.answered_in_window += 1;
                    run.last_in_window = Some(done);
                }
                if let Err(e) = check::shape(&p.expect, &response) {
                    run.problems
                        .push(format!("{} request {}: {e}", p.analyst, p.seq));
                }
                if let (Some((policy, lo, hi)), Expect::Range { truth }, Response::Scalar(v)) =
                    (p.range, &p.expect, &response)
                {
                    run.ranges.push(RangeObs {
                        policy,
                        lo,
                        hi,
                        truth: *truth,
                        answer: *v,
                    });
                }
            }
            Err(e) => {
                run.failed += 1;
                if run.errors.len() < 5 {
                    run.errors
                        .push(format!("{} request {}: {e}", p.analyst, p.seq));
                }
            }
        }
        if p.submitted >= w.start {
            run.latencies_us
                .push(done.duration_since(p.submitted).as_nanos() as f64 / 1e3);
        }
    }
    run.lane = Some(lane);
    run.spans = spans.spans;
    run
}

/// What the follower reader saw.
pub struct ReaderRun {
    /// The reader's connection, handed back for shutdown.
    pub client: Option<Client>,
    /// Read latency measured from when each read was due, µs.
    pub latencies_us: Vec<f64>,
    /// How late the generator issued each read, µs.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

/// Issues `Client::budget` reads on a fixed schedule of `per_second`
/// (an open loop) from `w.start` until `w.end`.
pub fn run_reader(
    mut client: Client,
    analyst: &str,
    per_second: u32,
    traced: bool,
    w: Window,
) -> ReaderRun {
    let mut spans = Spans::new(w.epoch, traced);
    let mut run = ReaderRun {
        client: None,
        latencies_us: Vec::new(),
        late_us: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        spans: Vec::new(),
    };
    let period = Duration::from_secs(1) / per_second;
    let mut k: u32 = 0;
    loop {
        let due = w.start + period * k;
        if due >= w.end {
            break;
        }
        k += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let issued = Instant::now();
        run.attempted += 1;
        let t = spans.open();
        let result = client.budget(analyst);
        spans.close("Client::budget", t, u64::from(k));
        let done = Instant::now();
        run.late_us
            .push(issued.duration_since(due).as_nanos() as f64 / 1e3);
        match result {
            Ok(_) => run
                .latencies_us
                .push(done.duration_since(due).as_nanos() as f64 / 1e3),
            Err(e) => {
                run.failed += 1;
                if run.errors.len() < 5 {
                    run.errors.push(format!("budget read {k}: {e}"));
                }
            }
        }
    }
    run.client = Some(client);
    run.spans = spans.spans;
    run
}

/// Samples `Replica::status()` on every replica about once a millisecond
/// until `stop`; returns the worst leader−follower `applied` gap seen.
pub fn sample_lag(replicas: &[Replica], stop: &AtomicBool, epoch: Instant) -> (u64, Vec<Span>) {
    let mut spans = Spans::new(epoch, true);
    let mut worst = 0;
    let mut n = 0u64;
    while !stop.load(Ordering::Acquire) {
        n += 1;
        let mut applied = Vec::with_capacity(replicas.len());
        for r in replicas {
            let t = spans.open();
            applied.push(r.status().applied);
            spans.close("Replica::status", t, n);
        }
        let leader = applied[0];
        let slowest = applied[1..].iter().copied().min().unwrap_or(leader);
        worst = worst.max(leader.saturating_sub(slowest));
        std::thread::sleep(Duration::from_millis(1));
    }
    (worst, spans.spans)
}
