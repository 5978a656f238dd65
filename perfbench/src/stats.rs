//! Latency samples, percentiles with their sample counts, and the JSON
//! number rendering the result line uses.

use std::collections::BTreeMap;
use std::time::Duration;

/// Percentiles need at least this many samples strictly above them; a
/// named percentile with fewer fails the run (see [`Percentile::check`]).
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one action class, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean_ms(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&ns| ns as f64).sum::<f64>() / self.0.len() as f64 / 1e6
    }

    /// Nearest-rank percentile `p` (0 < p < 100).
    pub fn percentile(&self, p: f64) -> Percentile {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        if n == 0 {
            return Percentile {
                p,
                ms: 0.0,
                samples: 0,
                beyond: 0,
            };
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        Percentile {
            p,
            ms: sorted[idx] as f64 / 1e6,
            samples: n,
            beyond: n - 1 - idx,
        }
    }
}

/// One percentile reading with the counts behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub p: f64,
    pub ms: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Percentile {
    /// The sample-count rule: a named percentile must have at least
    /// [`MIN_BEYOND`] samples above it.
    pub fn check(&self, metric: &str) -> Result<(), String> {
        if self.beyond < MIN_BEYOND {
            return Err(format!(
                "{metric}: p{} has {} samples beyond it out of {} (need {MIN_BEYOND}); \
                 lengthen the run",
                self.p, self.beyond, self.samples
            ));
        }
        Ok(())
    }
}

/// Median of a non-empty list of readings.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metric values with units, rendered as the result line's
/// `metrics` object.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite JSON number with every digit kept.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}
