//! Latency percentiles that count failures, and terminal-outcome
//! accounting with its conservation check.

use elasticrmi::RmiError;

/// Latency samples of one phase, one per attempted invocation. A failed,
/// refused, shed or lost invocation is recorded as infinitely late: it
/// missed every latency limit.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ns: Vec<u64>,
    sorted: bool,
}

const MISSED: u64 = u64::MAX;

impl Latencies {
    /// Records a successful invocation that took `ns` nanoseconds.
    pub fn ok(&mut self, ns: u64) {
        self.ns.push(ns.min(MISSED - 1));
        self.sorted = false;
    }

    /// Records an invocation that never produced a result.
    pub fn missed(&mut self) {
        self.ns.push(MISSED);
        self.sorted = false;
    }

    /// Nearest-rank `p`-quantile in microseconds: `+inf` when the rank
    /// lands on a failure, `None` with no samples.
    pub fn percentile_us(&mut self, p: f64) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let v = self.ns[rank(self.ns.len(), p)];
        Some(if v == MISSED {
            f64::INFINITY
        } else {
            v as f64 / 1_000.0
        })
    }

    /// The same quantile over successful invocations only.
    pub fn ok_percentile_us(&mut self, p: f64) -> Option<f64> {
        self.percentile_us(0.0)?;
        let ok = self.ns.partition_point(|&v| v != MISSED);
        (ok > 0).then(|| self.ns[rank(ok, p)] as f64 / 1_000.0)
    }
}

/// Zero-based nearest-rank index of quantile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile of plain values (no failure semantics).
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    values[rank(values.len(), p)]
}

/// Median of plain values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

/// Where every arrival of a phase ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Arrivals the schedule offered.
    pub attempted: u64,
    /// Invocations that returned a correct result.
    pub ok: u64,
    /// Arrivals not begun because the in-flight window was full.
    pub shed: u64,
    /// Refused by every tried member (`Overloaded`, or the local limiter).
    pub refused: u64,
    /// Ran out their deadline.
    pub expired: u64,
    /// At-most-once invocations whose outcome cannot be known.
    pub unknown: u64,
    /// Any other error outcome (remote exception, unreachable pool).
    pub errors: u64,
    /// Returned a result that failed the output check.
    pub wrong: u64,
    /// Begun but never terminated before the drain deadline.
    pub lost: u64,
}

impl Tally {
    /// Counts one terminal error.
    pub fn fail(&mut self, err: &RmiError) {
        match err {
            RmiError::Overloaded { .. } | RmiError::Throttled { .. } => self.refused += 1,
            RmiError::DeadlineExceeded { .. } => self.expired += 1,
            RmiError::OutcomeUnknown { .. } => self.unknown += 1,
            _ => self.errors += 1,
        }
    }

    /// Begun invocations that terminated without a correct result.
    pub fn failed(&self) -> u64 {
        self.refused + self.expired + self.unknown + self.errors + self.wrong
    }

    /// Arrivals that did not produce a correct result, for whatever reason.
    pub fn not_ok(&self) -> u64 {
        self.failed() + self.shed + self.lost
    }

    /// `(failed + shed + lost) / attempted`.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.not_ok() as f64 / self.attempted as f64
        }
    }

    /// Conservation: every arrival ended in exactly one bucket, none was
    /// lost, and every result that came back was correct.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let ended = self.ok + self.failed() + self.shed;
        if self.attempted != ended + self.lost {
            out.push(format!(
                "attempted {} != ok {} + failed {} + shed {} + lost {}",
                self.attempted,
                self.ok,
                self.failed(),
                self.shed,
                self.lost
            ));
        }
        if self.lost != 0 {
            out.push(format!("{} invocations lost", self.lost));
        }
        if self.wrong != 0 {
            out.push(format!(
                "{} invocations returned a wrong result",
                self.wrong
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_sim::SimDuration;

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut l = Latencies::default();
        for us in 1..=98u64 {
            l.ok(us * 1_000);
        }
        l.missed();
        l.missed();
        assert_eq!(l.percentile_us(0.5), Some(50.0));
        assert_eq!(l.percentile_us(0.98), Some(98.0));
        assert_eq!(l.percentile_us(0.99), Some(f64::INFINITY));
        assert_eq!(l.ok_percentile_us(0.99), Some(98.0));
    }

    #[test]
    fn all_failed_has_infinite_median_and_no_ok_tail() {
        let mut l = Latencies::default();
        l.missed();
        assert_eq!(l.percentile_us(0.5), Some(f64::INFINITY));
        assert_eq!(l.ok_percentile_us(0.5), None);
        assert_eq!(Latencies::default().percentile_us(0.5), None);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn conservation_holds_when_every_arrival_is_accounted() {
        let mut t = Tally {
            attempted: 10,
            ok: 6,
            shed: 1,
            ..Tally::default()
        };
        t.fail(&RmiError::Overloaded {
            attempts: 2,
            retry_after: SimDuration::from_millis(5),
        });
        t.fail(&RmiError::DeadlineExceeded { attempts: 1 });
        t.fail(&RmiError::PoolUnreachable { attempts: 2 });
        assert_eq!(t.failed(), 3);
        assert!(t.violations().is_empty(), "{:?}", t.violations());
        assert!((t.fail_frac() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn conservation_flags_lost_unaccounted_and_wrong() {
        let lost = Tally {
            attempted: 3,
            ok: 2,
            lost: 1,
            ..Tally::default()
        };
        assert_eq!(lost.violations().len(), 1, "{:?}", lost.violations());

        let unaccounted = Tally {
            attempted: 5,
            ok: 3,
            ..Tally::default()
        };
        assert_eq!(unaccounted.violations().len(), 1);

        let wrong = Tally {
            attempted: 2,
            ok: 1,
            wrong: 1,
            ..Tally::default()
        };
        assert_eq!(wrong.violations().len(), 1);
        assert_eq!(wrong.not_ok(), 1);
    }
}
