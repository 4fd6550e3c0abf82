//! Correctness bookkeeping and the simulated outcome of a run.

use memctrl::{McConfig, SystemStats};
use telemetry::json::JsonValue;

/// Counts attempted operations and records each one that failed.
///
/// An operation is one simulator run or one correctness check; a typed
/// `McError` or `FleetError`, or a violated check, fails it.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Records the outcome of one fallible operation, passing its value on.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        if let Err(e) = &result {
            self.check(false, || e.to_string());
        } else {
            self.attempted += 1;
        }
        result.ok()
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The `attempted`, `failed` and `failures` fields of a report.
    pub fn to_json(&self) -> Vec<(String, JsonValue)> {
        vec![
            ("attempted".into(), JsonValue::U64(self.attempted)),
            ("failed".into(), JsonValue::U64(self.failed())),
            (
                "failures".into(),
                JsonValue::Arr(self.failures.iter().cloned().map(JsonValue::Str).collect()),
            ),
        ]
    }
}

/// A stable one-line digest of a run's merged statistics, in the format of
/// `fleet-replay run`'s `final` line.
pub fn digest(stats: &SystemStats) -> String {
    let m = &stats.merged;
    format!(
        "accesses={} activations={} row_hits={} refreshes={} defense_refreshes={} \
         victim_rows={} completion={} latency={} flips={}",
        m.accesses,
        m.activations,
        m.row_hits,
        m.refreshes,
        m.defense_refresh_commands,
        m.victim_rows_refreshed,
        m.completion,
        m.total_latency,
        m.bit_flips,
    )
}

/// Simulated time to finish the run, in ms.
pub fn completion_ms(stats: &SystemStats) -> f64 {
    stats.merged.completion as f64 / 1e9
}

/// DRAM rows refreshed per million ACTs: the rows periodic REF commands
/// refresh plus the victim rows the defense refreshes.
pub fn refresh_rows_per_mact(stats: &SystemStats, config: &McConfig) -> f64 {
    let m = &stats.merged;
    let rows_per_ref =
        dram_model::RefreshEngine::new(&config.timing, config.geometry.rows_per_bank)
            .rows_per_ref();
    let rows = m.refreshes * u64::from(rows_per_ref) + m.victim_rows_refreshed;
    per_mact(rows, m.activations)
}

/// `count` per million of `acts`.
pub fn per_mact(count: u64, acts: u64) -> f64 {
    count as f64 * 1e6 / acts.max(1) as f64
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut checks = Checks::default();
        checks.check(true, || "never".into());
        checks.check(false, || "boom".into());
        assert_eq!(checks.ok::<u8, &str>(Err("typed")), None);
        assert_eq!(checks.ok::<u8, &str>(Ok(7)), Some(7));
        assert_eq!((checks.attempted, checks.failed()), (4, 2));
    }
}
