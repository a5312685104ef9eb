//! Sample statistics: the percentile rule, medians, and open-loop timing.

use std::time::Duration;

/// The percentile rule needs at least this many samples beyond the reported
/// one, so no single outlier decides a tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: the value, the percentile actually reported
/// (at most the one asked for) and the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The sample value at the reported rank.
    pub value: f64,
    /// The percentile actually reported, in `(0, 100]`.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// The `want`-th percentile of `sorted` (ascending), lowered to the highest
/// percentile that leaves at least [`MIN_BEYOND`] samples beyond it. `None`
/// when there are too few samples for any percentile to qualify.
pub fn percentile(sorted: &[f64], want: f64) -> Option<Pct> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND);
    Some(Pct { value: sorted[rank - 1], pct: 100.0 * rank as f64 / n as f64, n })
}

/// Samples per group below which [`grouped_percentile`] stops splitting:
/// enough for an exact p99 under the percentile rule.
pub const GROUP_MIN: usize = 1000;

/// The `want`-th percentile as the median over groups of each group's
/// percentile (rule applied per group), so one noisy stretch of a run moves
/// one group, not the figure. Groups too small for the rule are skipped.
/// The reported percentile is the median of the groups' ones and `n` counts
/// every sample.
pub fn grouped_percentile(groups: &[Vec<f64>], want: f64) -> Option<Pct> {
    let per: Vec<Pct> = groups.iter().filter_map(|g| percentile(&sorted(g), want)).collect();
    if per.is_empty() {
        return None;
    }
    let values: Vec<f64> = per.iter().map(|p| p.value).collect();
    let pcts: Vec<f64> = per.iter().map(|p| p.pct).collect();
    Some(Pct { value: median(&values), pct: median(&pcts), n: groups.iter().map(Vec::len).sum() })
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the middle two for an even count; `NaN` when
/// empty).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Timing of an open-loop stream: operation `i` is due at `i · period` after
/// the start, whether or not the previous one has finished, so a stalled
/// generator cannot hide the queueing delay it causes.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Interval between due times.
    pub period: Duration,
    /// Per-operation latency in ms, from due time to completion.
    pub latency_ms: Vec<f64>,
    /// Per-operation generator lateness in ms, from due time to issue.
    pub late_ms: Vec<f64>,
}

impl OpenLoop {
    /// An empty record for a stream with the given period.
    pub fn new(period: Duration) -> Self {
        Self { period, ..Self::default() }
    }

    /// When operation `i` is due, relative to the stream start.
    pub fn due(&self, i: usize) -> Duration {
        self.period * i as u32
    }

    /// Records operation `i`, issued at `issued` and completed at `done`
    /// (both relative to the stream start).
    pub fn record(&mut self, i: usize, issued: Duration, done: Duration) {
        let due = self.due(i);
        self.latency_ms.push(ms(done.saturating_sub(due)));
        self.late_ms.push(ms(issued.saturating_sub(due)));
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_exact_once_ten_samples_lie_beyond_it() {
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.value, p.pct, p.n), (990.0, 99.0, 1000));
        assert_eq!(percentile(&ramp(2000), 99.0).unwrap().value, 1980.0);
    }

    #[test]
    fn p99_lowers_to_the_highest_percentile_with_ten_beyond() {
        let p = percentile(&ramp(100), 99.0).unwrap();
        assert_eq!((p.value, p.pct, p.n), (90.0, 90.0, 100));
        let v = ramp(100);
        let beyond = v.iter().filter(|&&x| x > p.value).count();
        assert_eq!(beyond, MIN_BEYOND);
        // The median is unaffected while it has ten samples beyond it.
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&ramp(11), 50.0).unwrap().value, 1.0);
    }

    #[test]
    fn too_few_samples_report_no_percentile() {
        assert!(percentile(&ramp(10), 50.0).is_none());
        assert!(percentile(&[], 99.0).is_none());
    }

    #[test]
    fn grouped_percentile_is_the_median_of_the_groups() {
        let groups = vec![
            ramp(100),
            ramp(100).iter().map(|x| x * 2.0).collect(),
            ramp(100).iter().map(|x| x * 10.0).collect(),
        ];
        // Per group p99 lowers to p90: 90, 180 and 900; the median is 180.
        let p = grouped_percentile(&groups, 99.0).unwrap();
        assert_eq!((p.value, p.pct, p.n), (180.0, 90.0, 300));
        assert!(grouped_percentile(&[ramp(5)], 50.0).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let mut ol = OpenLoop::new(Duration::from_millis(1));
        // Op 0 is on time but takes 5 ms, so op 1 (due at 1 ms) can only be
        // issued at 5 ms and completes at 6 ms.
        ol.record(0, Duration::ZERO, Duration::from_millis(5));
        ol.record(1, Duration::from_millis(5), Duration::from_millis(6));
        // Op 2 is on time again and takes 0.5 ms.
        ol.record(2, Duration::from_millis(2), Duration::from_micros(2500));
        assert_eq!(ol.latency_ms, vec![5.0, 5.0, 0.5]);
        // Generator lateness is reported separately: op 1 left 4 ms late.
        assert_eq!(ol.late_ms, vec![0.0, 4.0, 0.0]);
    }
}
