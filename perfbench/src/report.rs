//! Metric definitions, per-phase operation accounting, process counters and
//! the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, error).
    Lower,
    /// Larger is better (rates, ratios of success).
    Higher,
}

impl Better {
    /// The `better` field as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric: name, unit and direction.
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of untraced runs (every workload reports every one).
pub const END_TO_END: &[Def] = &[
    def("throughput_rps", "1/s", Higher),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p90_ms", "ms", Lower),
    def("success_rate", "ratio", Higher),
    def("append_p50_ms", "ms", Lower),
    def("append_p90_ms", "ms", Lower),
    def("fit_s", "s", Lower),
    def("impute_s", "s", Lower),
    def("mae", "value", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Metrics of the traced run.
pub const PER_LAYER: &[Def] = &[
    def("kernels.gemm_gflops", "GFLOP/s", Higher),
    def("train.step_ms", "ms", Lower),
    def("train.steps", "count", Lower),
    def("infer.window_us", "us", Lower),
    def("infer.windows", "count", Lower),
    def("engine.query_us", "us", Lower),
    def("engine.append_us", "us", Lower),
    def("engine.windows_computed", "count", Lower),
    def("engine.window_hit_ratio", "ratio", Higher),
    def("engine.lock_wait_ms", "ms", Lower),
    def("batch.query_us", "us", Lower),
    def("batch.wait_us", "us", Lower),
    def("batch.requests_per_batch", "count", Higher),
    def("batch.queue_depth_max", "count", Lower),
    def("registry.get_us", "us", Lower),
    def("registry.load_ms", "ms", Lower),
    def("registry.evict_ms", "ms", Lower),
    def("registry.hit_ratio", "ratio", Higher),
    def("registry.loads", "count", Lower),
    def("registry.load_failures", "count", Lower),
    def("snapshot.bytes", "bytes", Lower),
    def("snapshot.encode_ms", "ms", Lower),
    def("snapshot.write_ms", "ms", Lower),
    def("snapshot.read_ms", "ms", Lower),
    def("snapshot.restore_ms", "ms", Lower),
    def("frame.encode_ns", "ns", Lower),
    def("frame.decode_ns", "ns", Lower),
    def("frame.reply_bytes", "bytes", Lower),
    def("net.query_us", "us", Lower),
    def("net.wire_us", "us", Lower),
    def("net.retry_ratio", "ratio", Lower),
    def("net.rejected", "count", Lower),
    def("net.bad_frames", "count", Lower),
    def("process.cpu_ms_per_op", "ms", Lower),
    def("trace.overhead_pct", "%", Lower),
];

/// Sent / succeeded / failed operations of one phase, with failures broken
/// down by typed error code (or `mismatch` for a wrong answer).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations issued.
    pub sent: u64,
    /// Operations answered correctly.
    pub ok: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Failures per code.
    pub by_code: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one success.
    pub fn ok(&mut self) {
        self.sent += 1;
        self.ok += 1;
    }

    /// Counts one failure under `code`.
    pub fn fail(&mut self, code: &str) {
        self.sent += 1;
        self.failed += 1;
        *self.by_code.entry(code.to_string()).or_default() += 1;
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        for (k, v) in &other.by_code {
            *self.by_code.entry(k.clone()).or_default() += v;
        }
    }
}

/// Everything one run reports: metrics, phases, correctness and notes.
#[derive(Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operation accounting per phase, in order.
    pub phases: Vec<(String, Tally)>,
    /// Output-correctness failures (empty when every check passed).
    pub wrong: Vec<String>,
    /// Human-readable detail lines (sample counts, breakdowns).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a phase's tally.
    pub fn phase(&mut self, name: &str, tally: Tally) {
        self.phases.push((name.to_string(), tally));
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed correctness check.
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    /// All phases summed.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for (_, p) in &self.phases {
            t.absorb(p);
        }
        t
    }

    /// The human-readable report: phase counts, then every metric of `defs`
    /// with its unit, then notes.
    pub fn human(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for (name, t) in &self.phases {
            let _ = write!(
                out,
                "phase {name:<22} sent {:>8} ok {:>8} failed {:>6}",
                t.sent, t.ok, t.failed
            );
            if t.sent > 0 {
                let _ = write!(out, "  error_rate {:.6}", t.failed as f64 / t.sent as f64);
            }
            for (code, n) in &t.by_code {
                let _ = write!(out, "  {code}={n}");
            }
            out.push('\n');
        }
        for d in defs {
            let v = self.metrics.get(d.name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "metric {:<26} {v:>14.6} {:<8} ({} is better)",
                d.name,
                d.unit,
                d.better.as_str()
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        for w in &self.wrong {
            let _ = writeln!(out, "WRONG {w}");
        }
        out
    }

    /// The result object for the last line of stdout. Errors when a metric
    /// of `defs` is missing or not finite.
    pub fn result_line(&self, defs: &[Def]) -> Result<String, String> {
        let total = self.total();
        let mut m = String::new();
        for (i, d) in defs.iter().enumerate() {
            let v =
                *self.metrics.get(d.name).ok_or(format!("metric `{}` was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite ({v})", d.name));
            }
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                d.name,
                d.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.wrong.is_empty(),
            total.sent.max(1),
            total.failed
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time this process has used, in ms (`getrusage`).
pub fn cpu_ms() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable `struct rusage` (two timevals then fourteen
    // longs on 64-bit Linux) and RUSAGE_SELF (0) is a valid selector.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return f64::NAN;
    }
    let t = |tv: &Timeval| tv.sec as f64 * 1e3 + tv.usec as f64 / 1e3;
    t(&u.utime) + t(&u.stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(defs: &'a [Def], name: &str) -> &'a Def {
        defs.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn metric_directions() {
        for name in [
            "mae",
            "latency_p50_ms",
            "latency_p90_ms",
            "append_p50_ms",
            "append_p90_ms",
            "setup_s",
            "peak_rss_mb",
            "fit_s",
            "impute_s",
        ] {
            assert_eq!(find(END_TO_END, name).better, Better::Lower, "{name}");
        }
        assert_eq!(find(END_TO_END, "throughput_rps").better, Better::Higher);
        assert_eq!(find(END_TO_END, "success_rate").better, Better::Higher);
        assert_eq!(find(END_TO_END, "setup_s").unit, "s");
    }

    /// `BENCHMARK.json` declares exactly the metrics the program reports,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\": ").count();
        let mut expected = 0;
        for (defs, bounded) in [(END_TO_END, true), (PER_LAYER, false)] {
            for d in defs {
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name,
                    d.unit,
                    d.better.as_str()
                );
                assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
                let bound = json.contains(&format!("{entry}, \"bound\": "));
                assert_eq!(bound, bounded, "{}: only end-to-end metrics carry a bound", d.name);
                expected += 1;
            }
        }
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(
            declared,
            expected + workloads,
            "BENCHMARK.json names something the program does not report"
        );
        let runnable = crate::WORKLOADS
            .iter()
            .filter(|w| json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")))
            .count();
        assert_eq!(
            runnable, workloads,
            "BENCHMARK.json declares a workload the program cannot run"
        );
    }

    #[test]
    fn tally_counts_failures_by_code_and_the_result_line_has_every_metric() {
        let mut t = Tally::default();
        t.ok();
        t.fail("tenant-loading");
        t.fail("tenant-loading");
        assert_eq!((t.sent, t.ok, t.failed, t.by_code["tenant-loading"]), (3, 1, 2, 2));
        let mut r = Report::default();
        r.phase("measure", t);
        assert!(r.result_line(END_TO_END).is_err());
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        let line = r.result_line(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 2, \"metrics\": {\"throughput_rps\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        r.set("mae", f64::NAN);
        assert!(r.result_line(END_TO_END).is_err());
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
    }
}
