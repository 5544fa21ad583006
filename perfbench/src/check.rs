//! Correctness checks. Any failure makes the run exit non-zero without
//! printing a result.

use crate::inputs::{Expect, Inputs};
use bf_core::QueryClass;
use bf_engine::{Engine, Response};
use bf_net::Client;
use bf_replica::Replica;
use std::collections::{BTreeMap, HashMap};

/// One range answer beside its exact count.
#[derive(Debug, Clone)]
pub struct RangeObs {
    pub policy: String,
    pub lo: usize,
    pub hi: usize,
    pub truth: f64,
    pub answer: f64,
}

/// The answer has the shape its request asks for, with finite values.
pub fn shape(expect: &Expect, response: &Response) -> Result<(), String> {
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    match (expect, response) {
        (Expect::Range { .. } | Expect::Scalar, Response::Scalar(v)) if v.is_finite() => Ok(()),
        (Expect::Vector { len }, Response::Histogram(v) | Response::Prefixes(v))
            if v.len() == *len && finite(v) =>
        {
            Ok(())
        }
        (Expect::Centroids { k, dim }, Response::Centroids(cs))
            if cs.len() == *k && cs.iter().all(|c| c.len() == *dim && finite(c)) =>
        {
            Ok(())
        }
        _ => Err(format!(
            "expected {expect:?}, got a malformed {}",
            kind(response)
        )),
    }
}

fn kind(r: &Response) -> String {
    match r {
        Response::Histogram(v) => format!("histogram of {}", v.len()),
        Response::Prefixes(v) => format!("prefix vector of {}", v.len()),
        Response::Scalar(v) => format!("scalar {v}"),
        Response::Centroids(c) => format!("{} centroids", c.len()),
    }
}

/// A Laplace draw exceeds 40 scales with probability e⁻⁴⁰: never, unless
/// the sensitivity or ε the release used is wrong.
const MAX_SCALES: f64 = 40.0;
/// Distinct ranges whose own sensitivity is computed. Each costs an edge
/// scan of the secret graph, so fresh-endpoint workloads calibrate on the
/// answers to the first ones only.
const CALIBRATED_RANGES: usize = 128;

/// Checks every range answer against its exact count and returns the
/// mean absolute error.
///
/// A range count is a difference of two prefix counts, so its
/// sensitivity is at most twice the cumulative histogram's; every answer
/// must lie within [`MAX_SCALES`] Laplace scales of the truth, the scale
/// being that bound over ε (or, where no range can be folded into a
/// shared Ordered release (`stand_alone`), the range's own
/// `QueryClass::sensitivity(policy)/ε`, when it was computed).
///
/// The answers to the first [`CALIBRATED_RANGES`] distinct ranges also
/// calibrate the noise against their own scale. Stand-alone, the mean
/// absolute error of Laplace noise is its scale: it must lie within 35%
/// of the mean scale (four standard errors at 128 answers), which fails
/// a missing noise draw or a sensitivity off by half or more. Where ranges may be folded, the noise can be smaller
/// after the Ordered Mechanism's constrained inference, so only a
/// missing draw (a mean error under 1% of the range scale) fails.
pub fn ranges(
    inputs: &Inputs,
    obs: &[RangeObs],
    eps: f64,
    stand_alone: bool,
) -> Result<f64, String> {
    if obs.is_empty() {
        return Err("no range answers to check".into());
    }
    let mut memo: HashMap<(&str, usize, usize), f64> = HashMap::new();
    let mut cumulative: HashMap<&str, f64> = HashMap::new();
    let (mut abs_err, mut calibrated_err, mut calibrated_scale, mut calibrated) =
        (0.0, 0.0, 0.0, 0usize);
    for o in obs {
        let policy = inputs
            .registry
            .policy(&o.policy)
            .ok_or_else(|| format!("range answer under unknown policy {}", o.policy))?;
        let s_cum = *cumulative
            .entry(&o.policy)
            .or_insert_with(|| QueryClass::CumulativeHistogram.sensitivity(policy));
        let key = (o.policy.as_str(), o.lo, o.hi);
        let s_range = match memo.get(&key) {
            Some(&s) => Some(s),
            None if memo.len() < CALIBRATED_RANGES => {
                let s = QueryClass::Range { lo: o.lo, hi: o.hi }.sensitivity(policy);
                memo.insert(key, s);
                Some(s)
            }
            None => None,
        };
        let bound = match s_range {
            Some(s) if stand_alone => s,
            _ => 2.0 * s_cum,
        };
        let err = (o.answer - o.truth).abs();
        if err > MAX_SCALES * bound / eps {
            return Err(format!(
                "range [{}, {}] answered {} against a true count of {}: error {err:.1} exceeds \
                 {MAX_SCALES} Laplace scales of {:.1}",
                o.lo,
                o.hi,
                o.answer,
                o.truth,
                bound / eps
            ));
        }
        abs_err += err;
        if let Some(s) = s_range {
            calibrated += 1;
            calibrated_err += err;
            calibrated_scale += s / eps;
        }
    }
    let mae = calibrated_err / calibrated as f64;
    let scale = calibrated_scale / calibrated as f64;
    if stand_alone && calibrated >= 100 && !(0.65 * scale..=1.35 * scale).contains(&mae) {
        return Err(format!(
            "mean range error {mae:.2} over {calibrated} answers is not within 35% of the \
             Laplace scale {scale:.2}: the noise draw or its sensitivity is wrong"
        ));
    }
    if mae < 0.01 * scale {
        return Err(format!(
            "mean range error {mae:.4} over {calibrated} answers is under 1% of the Laplace \
             scale {scale:.2}: the answers carry no noise"
        ));
    }
    Ok(abs_err / obs.len() as f64)
}

/// ε conservation for each analyst the client opened: the ledger's spent
/// as `Client::budget` reads it over the wire equals the sum of the
/// analyst's durable charge history, and never exceeds what the
/// analyst's requests asked for. Returns Σ spent.
///
/// The history is read with `Engine::ledger_history`, the scan that
/// `Client::audit` serves over the wire: an audit report of more than
/// about 20k charges exceeds the 1 MiB frame limit and the client
/// refuses it as a corrupt frame, which would fail every long run of a
/// pipelined workload for a reason unrelated to ε conservation.
pub fn conservation(
    client: &mut Client,
    engine: &Engine,
    requested: &BTreeMap<String, f64>,
) -> Result<f64, String> {
    let mut total = 0.0;
    for (analyst, &asked) in requested {
        let budget = client
            .budget(analyst)
            .map_err(|e| format!("budget({analyst}): {e}"))?;
        let history = engine
            .ledger_history(analyst)
            .map_err(|e| format!("ledger_history({analyst}): {e}"))?;
        let audited: f64 = history.iter().map(|e| e.epsilon()).sum();
        if budget.spent.to_bits() != audited.to_bits() {
            return Err(format!(
                "{analyst}: ledger spent {} but the audit history sums to {audited} over {} charges",
                budget.spent,
                history.len()
            ));
        }
        if budget.spent > asked {
            return Err(format!(
                "{analyst}: spent {} exceeds the {asked} its requests asked for",
                budget.spent
            ));
        }
        total += budget.spent;
    }
    Ok(total)
}

/// An analyst's charges (label, ε bits), spent ε bits and answers served.
type Ledger = (Vec<(String, u64)>, u64, u64);

/// Once every replica has applied the same index, their ledgers are
/// identical: the same charges, labels and ε bits, the same spent and the
/// same count of answers served.
pub fn replicas_agree(replicas: &[Replica], analysts: &[String]) -> Result<(), String> {
    let applied: Vec<u64> = replicas.iter().map(|r| r.status().applied).collect();
    if applied.iter().any(|&a| a != applied[0]) {
        return Err(format!(
            "replicas stopped at different applied indexes {applied:?}"
        ));
    }
    for analyst in analysts {
        let ledger = |r: &Replica| -> Result<Ledger, String> {
            let session = r
                .engine()
                .session_snapshot(analyst)
                .map_err(|e| format!("session_snapshot({analyst}): {e}"))?;
            let charges = session
                .ledger()
                .iter()
                .map(|(label, eps)| (label.clone(), eps.to_bits()))
                .collect();
            Ok((charges, session.spent().to_bits(), session.served()))
        };
        let leader = ledger(&replicas[0])?;
        for (i, r) in replicas.iter().enumerate().skip(1) {
            if ledger(r)? != leader {
                return Err(format!(
                    "{analyst}: replica {i}'s ledger differs from the leader's at applied index {}",
                    applied[0]
                ));
            }
        }
    }
    Ok(())
}
