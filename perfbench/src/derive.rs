//! Metric derivations, kept free of I/O and clocks so the tests below can
//! check every rule on synthetic inputs.

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// the two closest ranks (rank `p/100 · (n − 1)` of the sorted samples).
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `samples` (the 50th [`percentile`]).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Index of the first round whose accuracy is at or above `target`;
/// `None` when the run never got there (reported as missing, never as 0).
pub fn crossing(accuracies: &[f32], target: f32) -> Option<usize> {
    accuracies.iter().position(|&a| a >= target)
}

/// Wall-clock intervals between consecutive round starts, the last one
/// closed by `end`: interval `i` covers round `i`'s own work plus the
/// runner's evaluation and bookkeeping after it.
pub fn intervals(starts: &[f64], end: f64) -> Vec<f64> {
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| starts.get(i + 1).copied().unwrap_or(end) - s)
        .collect()
}

/// Length of the part of `parent` covered by the union of `children`
/// (each clipped to the parent), in the spans' own unit.
fn covered(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = parent.0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span: its duration minus the part of it that its child
/// spans cover. Parallel children that overlap are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (parent.1 - parent.0) - covered(parent, children)
}

/// A ratio reported together with its base, so a reader can tell 0 of 0
/// from 0 of a million.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// What was counted.
    pub num: f64,
    /// What it was counted out of.
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or `None` when the base is zero.
    pub fn value(self) -> Option<f64> {
        (self.den != 0.0).then(|| self.num / self.den)
    }
}

/// One reported metric. `value == None` means missing: the event it
/// measures did not happen (a target never reached) and the run fails.
#[derive(Debug)]
pub struct Metric {
    /// Stable name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: Option<f64>,
    /// For ratios: the numerator and denominator the value came from.
    pub base: Option<Ratio>,
    /// Samples the value summarises (repeats, rounds or calls).
    pub samples: usize,
}

impl Metric {
    /// A plain measured value.
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            base: None,
            samples,
        }
    }

    /// A ratio with its base. A zero base means the layer did no such work
    /// on this workload; the value is then reported as 0 and the report
    /// line shows `[0 / 0]`.
    pub fn ratio(name: &'static str, unit: &'static str, r: Ratio, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value: Some(r.value().unwrap_or(0.0)),
            base: Some(r),
            samples,
        }
    }

    /// One human-readable report line: name, value, unit, base, samples.
    pub fn line(&self) -> String {
        let value = match self.value {
            Some(v) => format!("{v:.6}"),
            None => "missing".to_string(),
        };
        let base = match self.base {
            Some(r) => format!("  [{} / {}]", r.num, r.den),
            None => String::new(),
        };
        format!(
            "  {:<36} {:>16} {:<6}{}  (n={})",
            self.name, value, self.unit, base, self.samples
        )
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`; a missing metric is left out rather than written as 0.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            m.value.filter(|v| v.is_finite()).map(|v| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = percentile(&ten, 90.0).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "p90 {p90}");
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn crossing_finds_the_first_round_at_or_above_target() {
        let acc = [0.1, 0.5, 0.95, 0.94, 0.97];
        assert_eq!(crossing(&acc, 0.95), Some(2));
        assert_eq!(crossing(&acc, 0.1), Some(0));
    }

    #[test]
    fn never_crossed_is_missing_not_zero() {
        assert_eq!(crossing(&[0.1, 0.2], 0.95), None);
        assert_eq!(crossing(&[], 0.5), None);
        let m = Metric::new("tta_wall_s", "s", None, 3);
        let json = result_json(false, 10, 10, std::slice::from_ref(&m));
        assert!(!json.contains("tta_wall_s"), "{json}");
        assert!(m.line().contains("missing"));
    }

    #[test]
    fn intervals_close_on_the_run_end() {
        assert_eq!(intervals(&[0.0, 1.0, 3.0], 6.0), vec![1.0, 2.0, 3.0]);
        assert!(intervals(&[], 1.0).is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping parallel children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 60), (30, 70)]), 40);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Zero-length children (instant relay hops) cover nothing.
        assert_eq!(self_time((0, 10), &[(5, 5)]), 10);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio { num: 3.0, den: 4.0 };
        assert_eq!(r.value(), Some(0.75));
        let m = Metric::ratio("x_ratio", "ratio", r, 1);
        assert_eq!(m.base, Some(r));
        assert!(m.line().contains("[3 / 4]"), "{}", m.line());
        let empty = Metric::ratio("y_ratio", "ratio", Ratio { num: 0.0, den: 0.0 }, 1);
        assert_eq!(Ratio { num: 0.0, den: 0.0 }.value(), None);
        assert_eq!(empty.value, Some(0.0));
        assert!(empty.line().contains("[0 / 0]"));
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let ms = [
            Metric::new("rounds_per_s", "1/s", Some(12.5), 3),
            Metric::new("setup_s", "s", Some(0.001), 9),
        ];
        assert_eq!(
            result_json(true, 60, 0, &ms),
            "{\"correct\": true, \"attempted\": 60, \"failed\": 0, \"metrics\": \
             {\"rounds_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.001, \"unit\": \"s\"}}}"
        );
    }
}
