//! The benchmark's summary statistics and outcome definitions, kept free
//! of I/O so the unit tests below can pin them on hand-made inputs.

/// A p99 is reported only over at least this many samples, so that ten
/// samples lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `p` percent of the samples are at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The p99 under the sample-count rule: `None` below
/// [`P99_MIN_SAMPLES`].
pub fn p99(sorted: &[f64]) -> Option<f64> {
    if sorted.len() < P99_MIN_SAMPLES {
        return None;
    }
    nearest_rank(sorted, 99.0)
}

/// Nearest-rank median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0).unwrap_or(0.0)
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    100.0 * part as f64 / whole as f64
}

/// What one oracle-driven session did, counted by the client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTally {
    /// Actions the user demonstrated.
    pub demonstrated: usize,
    /// Predictions the user accepted.
    pub accepted: usize,
    /// Actions automation executed.
    pub automated: usize,
    /// The whole intended script was executed.
    pub script_ran: bool,
}

impl SessionTally {
    /// Solved in the programming-by-demonstration sense of
    /// `q3_end_to_end`: the whole script ran and accepted plus automated
    /// actions outnumber demonstrated ones.
    pub fn solved_by_pbd(&self) -> bool {
        self.script_ran && self.accepted + self.automated > self.demonstrated
    }
}

/// Share of intended actions the system executed (accepted predictions
/// and automated steps) against all of them, demonstrated ones included,
/// pooled over sessions.
pub fn session_accuracy_pct(tallies: &[SessionTally]) -> f64 {
    let executed: usize = tallies.iter().map(|t| t.accepted + t.automated).sum();
    let demonstrated: usize = tallies.iter().map(|t| t.demonstrated).sum();
    pct(executed, executed + demonstrated)
}

/// Share of sessions solved by PBD.
pub fn sessions_solved_pct(tallies: &[SessionTally]) -> f64 {
    let solved = tallies.iter().filter(|t| t.solved_by_pbd()).count();
    pct(solved, tallies.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&v, 50.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(30.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(40.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Rank ceil(0.99 * 1000) = 990: ten samples lie beyond it.
        assert_eq!(nearest_rank(&sorted(1_000), 99.0), Some(990.0));
        assert_eq!(nearest_rank(&sorted(1_001), 99.0), Some(991.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(p99(&sorted(999)), None);
        assert_eq!(p99(&sorted(1_000)), Some(990.0));
        assert_eq!(p99(&sorted(2_000)), Some(1_980.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pbd_solved_needs_the_whole_script_and_an_automation_majority() {
        let base = SessionTally {
            demonstrated: 3,
            accepted: 2,
            automated: 2,
            script_ran: true,
        };
        assert!(base.solved_by_pbd());
        assert!(!SessionTally {
            script_ran: false,
            ..base
        }
        .solved_by_pbd());
        // A tie is not a majority.
        assert!(!SessionTally {
            demonstrated: 4,
            ..base
        }
        .solved_by_pbd());
        let all = [
            base,
            SessionTally {
                demonstrated: 5,
                accepted: 0,
                automated: 0,
                script_ran: true,
            },
        ];
        assert_eq!(sessions_solved_pct(&all), 50.0);
        assert_eq!(sessions_solved_pct(&[]), 0.0);
    }

    #[test]
    fn session_accuracy_pools_executed_over_all_intended_actions() {
        let tallies = [
            SessionTally {
                demonstrated: 2,
                accepted: 1,
                automated: 5,
                script_ran: true,
            },
            SessionTally {
                demonstrated: 2,
                accepted: 0,
                automated: 0,
                script_ran: false,
            },
        ];
        // (1 + 5) executed of (1 + 5) + (2 + 2) intended.
        assert_eq!(session_accuracy_pct(&tallies), 60.0);
        assert_eq!(session_accuracy_pct(&[]), 0.0);
        assert_eq!(pct(1, 3), 100.0 / 3.0);
    }
}
