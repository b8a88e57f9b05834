//! Order statistics, interval arithmetic for span self time, and the
//! `/proc` readers behind `cpu_us_per_req` and `peak_rss_mb`.

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fast decile of `values`: the 90th percentile when higher is
/// better, the 10th when lower is (nearest rank; 0 for an empty slice).
/// The run-level value of the metrics that track machine speed.
///
/// Why not the median: on the shared 2-vCPU box this was written on,
/// identical CPU-bound work runs 25–45 % slower whenever a neighbour
/// shares the core, in episodes that last seconds to minutes and fill
/// anywhere from 10 % to 85 % of a run. Median and mean then report how
/// busy the neighbours were (run-to-run spread 20–40 % on `search_seq`).
/// Interference only ever slows a trial down, so the fast end of a run's
/// trials is the cost of the code on an undisturbed core — what a change
/// to the code moves — and it shows up in nearly every run.
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(&sorted(values), if higher_is_better { 0.9 } else { 0.1 })
}

/// Mean of the fastest fifth of `values` (the single fastest when there
/// are fewer than five): the fast decile's stand-in for a metric read in
/// coarse steps. `/proc` counts CPU in 10 ms ticks, so per-trial CPU
/// readings take few distinct values, and any one order statistic of them
/// reads exactly the same run after run; the mean of a tail does not.
pub fn fast_fifth_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    let tail = &v[..(v.len() / 5).max(1).min(v.len())];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them, so spreads printed here match the ones the driver computes.
/// Fewer than two values have no quartiles: both ends are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median is).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The highest percentile not above `target` (e.g. 0.99) that still has
/// at least ten samples beyond it, with its value: `(percentile, value)`.
/// A tail read from fewer than ten samples is one scheduling hiccup, not
/// a property of the system. `sorted` must be ascending and non-empty.
pub fn tail_percentile(sorted: &[f64], target: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "no samples");
    let n = sorted.len();
    let supported = if n > 10 { 1.0 - 10.0 / n as f64 } else { 0.5 };
    let p = target.min(supported).max(0.5);
    (p, percentile(sorted, p))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Length of the union of `intervals` clipped to `[lo, hi]` — the part of
/// a span its children cover; the span's self time is its length minus
/// this. Children may overlap each other and stick out of the parent.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Process CPU time (user + system) in clock ticks from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3; utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line of `/proc/<pid>/status` (e.g. `VmHWM`) in megabytes.
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Linux reports `/proc` CPU times in units of `1 / sysconf(_SC_CLK_TCK)`
/// seconds, which is 100 on every Linux ABI the standard library targets.
const CLK_TCK: f64 = 100.0;

/// Process CPU seconds so far (user + system, all threads, exited ones
/// included).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / CLK_TCK
}

/// Peak resident set size of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_mb(&status, "VmHWM").expect("/proc/self/status has VmHWM")
}

/// One-minute load average, or 0 when `/proc/loadavg` is unreadable.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_estimators_take_the_fast_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // Times: the fast end is the low end.
        assert_eq!(fast_decile(&v, false), 2.0);
        assert_eq!(fast_fifth_mean(&v, false), (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
        // Rates: the fast end is the high end.
        assert_eq!(fast_decile(&v, true), 18.0);
        assert_eq!(fast_fifth_mean(&v, true), (17.0 + 18.0 + 19.0 + 20.0) / 4.0);
        assert_eq!(fast_decile(&[7.0], false), 7.0);
        assert_eq!(fast_fifth_mean(&[7.0, 9.0], false), 7.0);
        assert_eq!(fast_decile(&[], true), 0.0);
        assert_eq!(fast_fifth_mean(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (p, x) = tail_percentile(&v, 0.99);
        assert_eq!(p, 0.99);
        assert_eq!(x, 1980.0);
        // 200 samples support p95 at most: ten samples lie beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail_percentile(&v, 0.99);
        assert!((p - 0.95).abs() < 1e-12);
        assert_eq!(x, 190.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        // A handful of samples falls back to the median.
        let (p, _) = tail_percentile(&[1.0, 2.0, 3.0], 0.99);
        assert_eq!(p, 0.5);
    }

    #[test]
    fn covered_unions_overlapping_children() {
        // Two overlapping children and one outside the parent.
        let mut kids = vec![(10, 30), (20, 40), (90, 120)];
        assert_eq!(covered(0, 100, &mut kids), 30 + 10);
        // Nested child adds nothing.
        let mut kids = vec![(10, 50), (20, 30)];
        assert_eq!(covered(0, 100, &mut kids), 40);
        // Child starting before the parent is clipped.
        let mut kids = vec![(0, 15)];
        assert_eq!(covered(10, 100, &mut kids), 5);
        assert_eq!(covered(0, 100, &mut []), 0);
    }

    #[test]
    fn stat_cpu_parses_past_a_hostile_command_name() {
        let stat = "1234 (blog bench) x) R 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    321 45 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(366));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_mb_reads_the_named_line_only() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(20.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(10.0));
        assert_eq!(parse_status_mb(status, "Vm"), None);
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
    }

    #[test]
    fn live_proc_readers_return_sane_values() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }
}
