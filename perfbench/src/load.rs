//! Request traces and the load generators: closed-loop `NetClient`
//! connections and their summaries.

use crate::report::Tally;
use crate::setup::Rng;
use crate::stats::{grouped_percentile, median, ms, Pct, GROUP_MIN};
use crate::trace::{Span, Tracer};
use mvi_net::{ClientConfig, NetClient, NetError};
use mvi_serve::{ImputationEngine, ServeError};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One range query against a tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Tenant index.
    pub tenant: usize,
    /// Flat series id.
    pub s: usize,
    /// Range start (inclusive).
    pub lo: usize,
    /// Range end (exclusive).
    pub hi: usize,
}

/// Shortest and longest query ranges, in steps.
pub const MIN_LEN: usize = 10;
/// See [`MIN_LEN`].
pub const MAX_LEN: usize = 80;

/// A seeded range query over `[0, live)` of a uniformly drawn series.
pub fn range_query(rng: &mut Rng, tenant: usize, n_series: usize, live: usize) -> Request {
    let len = MIN_LEN + rng.below(MAX_LEN - MIN_LEN + 1);
    let lo = rng.below(live - len + 1);
    Request { tenant, s: rng.below(n_series), lo, hi: lo + len }
}

/// Draws tenants from a Zipf-like law: tenant `k` has weight `1/(k+1)^skew`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law over `n` tenants.
    pub fn new(n: usize, skew: f64) -> Self {
        let w: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(skew)).collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        Self {
            cdf: w
                .iter()
                .map(|x| {
                    acc += x / total;
                    acc
                })
                .collect(),
        }
    }

    /// One draw.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// The reference answers of `reqs`, from in-process oracle engines.
pub fn expected(reqs: &[Request], refs: &[Arc<ImputationEngine>]) -> Vec<Vec<f64>> {
    reqs.iter().map(|r| refs[r.tenant].query(r.s, r.lo, r.hi).expect("reference query")).collect()
}

/// The stable name of a client-side failure: the typed wire code when the
/// server answered one, else the transport failure kind.
pub fn net_code(e: &NetError) -> String {
    if let Some(code) = e.code() {
        return code.name().to_string();
    }
    match e {
        NetError::Connect { .. } => "connect",
        NetError::Io { .. } => "io",
        NetError::Frame(_) => "frame",
        NetError::Protocol(_) => "protocol",
        _ => "other",
    }
    .to_string()
}

/// The wire code a serving-layer error maps to.
pub fn serve_code(e: &ServeError) -> String {
    mvi_net::WireError::from_serve(e, 0).code.name().to_string()
}

/// Bitwise equality of two answers.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Operation latencies bucketed by the time slice they completed in: 4
/// bytes per operation, so the benchmark's own memory (and with it
/// `peak_rss_mb`) barely grows with throughput.
#[derive(Clone, Debug)]
pub struct Samples {
    secs: f64,
    /// Latency in ms per slice; infinite for a failed or wrong answer.
    lat: Vec<Vec<f32>>,
    /// First and last successful completion (s) per slice.
    span: Vec<(f64, f64)>,
}

impl Samples {
    /// Empty samples of a measurement `secs` long.
    pub fn new(secs: f64) -> Self {
        Self {
            secs,
            lat: vec![Vec::new(); SLICES],
            span: vec![(f64::INFINITY, f64::NEG_INFINITY); SLICES],
        }
    }

    /// Records an operation completed at `t` s with latency `lat_ms`.
    pub fn push(&mut self, t: f64, lat_ms: f64) {
        let k = ((t / self.secs * SLICES as f64) as usize).min(SLICES - 1);
        self.lat[k].push(lat_ms as f32);
        if lat_ms.is_finite() {
            let s = &mut self.span[k];
            *s = (s.0.min(t), s.1.max(t));
        }
    }

    /// Adds `other` (same measurement) into `self`.
    pub fn absorb(&mut self, other: &Samples) {
        for k in 0..SLICES {
            self.lat[k].extend_from_slice(&other.lat[k]);
            self.span[k] =
                (self.span[k].0.min(other.span[k].0), self.span[k].1.max(other.span[k].1));
        }
    }

    /// Every latency, in ms.
    pub fn all(&self) -> Vec<f64> {
        self.lat.iter().flatten().map(|&x| f64::from(x)).collect()
    }

    /// The latencies in as many runs of consecutive slices as keep at least
    /// [`GROUP_MIN`] samples per run on average (between 1 and [`SLICES`]).
    pub fn groups(&self) -> Vec<Vec<f64>> {
        let n: usize = self.lat.iter().map(Vec::len).sum();
        let g = (n / GROUP_MIN).clamp(1, SLICES);
        (0..g)
            .map(|i| {
                self.lat[i * SLICES / g..(i + 1) * SLICES / g]
                    .iter()
                    .flatten()
                    .map(|&x| f64::from(x))
                    .collect()
            })
            .collect()
    }
}

/// What one closed-loop connection saw.
pub struct ConnResult {
    /// Latencies by completion time.
    pub ops: Samples,
    /// Sent / ok / failed by code.
    pub tally: Tally,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Wrong answers, described.
    pub wrong: Vec<String>,
}

/// Runs `conns` closed-loop `NetClient` connections (default
/// [`ClientConfig`], so retries are the ones users get) for `secs`
/// seconds. Connection `c` walks `reqs` from index `c` in steps of `conns`,
/// wrapping; every answer is compared bitwise with `want`.
pub fn closed_loop(
    addr: SocketAddr,
    names: &[String],
    reqs: &Arc<Vec<Request>>,
    want: &Arc<Vec<Vec<f64>>>,
    conns: usize,
    secs: f64,
    traced: bool,
) -> Vec<ConnResult> {
    let epoch = Instant::now();
    let stop = epoch + Duration::from_secs_f64(secs);
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let (reqs, want, names) = (Arc::clone(reqs), Arc::clone(want), names.to_vec());
            std::thread::spawn(move || {
                let mut client = NetClient::new(addr, ClientConfig::default());
                let mut tracer = Tracer::new(epoch, traced);
                let mut out = ConnResult {
                    ops: Samples::new(secs),
                    tally: Tally::default(),
                    spans: Vec::new(),
                    wrong: Vec::new(),
                };
                let mut i = c;
                while Instant::now() < stop {
                    let k = i % reqs.len();
                    let r = reqs[k];
                    i += conns;
                    client.set_tenant(names[r.tenant].as_str());
                    let span = tracer.begin("net.query", None, k as u64);
                    let t0 = Instant::now();
                    let got = client.query(r.s as u32, r.lo as u32, r.hi as u32);
                    let lat = ms(t0.elapsed());
                    tracer.end(span);
                    let done = epoch.elapsed().as_secs_f64();
                    match got {
                        Ok(v) if same_bits(&v, &want[k]) => {
                            out.tally.ok();
                            out.ops.push(done, lat);
                        }
                        Ok(_) => {
                            out.tally.fail("mismatch");
                            out.wrong.push(format!("{r:?} differs from the reference engine"));
                            out.ops.push(done, f64::INFINITY);
                        }
                        Err(e) => {
                            out.tally.fail(&net_code(&e));
                            out.ops.push(done, f64::INFINITY);
                        }
                    }
                }
                out.spans = tracer.into_spans();
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("client thread")).collect()
}

/// Throughput and latency of a set of timed operations.
pub struct LoadSummary {
    /// Median over [`SLICES`] equal time slices of successful ops per second.
    pub rps: f64,
    /// Successful ops per second in each slice.
    pub rates: Vec<f64>,
    /// Latency percentiles (failures count as infinitely slow), each the
    /// median over time slices of at least 1000 samples.
    pub p50: Pct,
    /// See `p50`.
    pub tail: Pct,
}

/// The bounded tail percentile. On a 2-core VM the p99 of sub-millisecond
/// operations is decided by preemption episodes of the host, so the
/// end-to-end tail metrics are p90; p95 and p99 are printed as notes.
pub const TAIL: f64 = 90.0;

/// Time slices the throughput median is taken over.
pub const SLICES: usize = 10;

/// Summarizes a measurement. A slice's rate is its successful completions
/// per second between its first and last one, so low rates are not rounded
/// to whole operations per slice.
pub fn summarize(ops: &Samples) -> Option<LoadSummary> {
    let width = ops.secs / SLICES as f64;
    let rates: Vec<f64> = ops
        .lat
        .iter()
        .zip(&ops.span)
        .map(|(lat, &(a, b))| {
            let n = lat.iter().filter(|x| x.is_finite()).count();
            if n > 2 && b > a {
                (n - 1) as f64 / (b - a)
            } else {
                n as f64 / width
            }
        })
        .collect();
    let groups = ops.groups();
    Some(LoadSummary {
        rps: median(&rates),
        rates,
        p50: grouped_percentile(&groups, 50.0)?,
        tail: grouped_percentile(&groups, TAIL)?,
    })
}

/// A percentile as a note: value, reported percentile and sample count.
pub fn describe(name: &str, p: &Pct) -> String {
    format!("{name} = {:.4} ms (p{:.2} of {} samples)", p.value, p.pct, p.n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_group_consecutive_slices_of_a_thousand() {
        let mut s = Samples::new(10.0);
        for i in 0..2500 {
            s.push(i as f64 / 250.0, i as f64);
        }
        let groups = s.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!((groups[0].len(), groups[1].len()), (1250, 1250));
        assert!(groups[0].iter().all(|&x| x < 1250.0));
        let mut few = Samples::new(10.0);
        few.push(1.0, 1.0);
        assert_eq!(few.groups().len(), 1);
    }

    #[test]
    fn slice_rates_count_successes_between_first_and_last_completion() {
        let mut s = Samples::new(10.0);
        // 11 successes per slice, 0.1 s apart, and one failure.
        for k in 0..SLICES {
            for i in 0..=10 {
                s.push(k as f64 + i as f64 * 0.05, 1.0);
            }
        }
        s.push(0.99, f64::INFINITY);
        let sum = summarize(&s).unwrap();
        assert!(sum.rates.iter().all(|&r| (r - 20.0).abs() < 1e-9), "{:?}", sum.rates);
        assert_eq!(sum.p50.n, 111);
    }
}
