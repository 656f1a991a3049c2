//! The metrics registry: one fixed-slot home for every planner counter
//! and gauge, replacing the per-solver hand-rolled stat structs.
//!
//! [`MetricsRegistry`] is always on (a disabled [`crate::ObsHandle`] does
//! not touch it):
//! its counters are single relaxed atomic adds, exactly what the old
//! scattered `AtomicU64`s in the evaluator cost. Derived views — the
//! legacy `SolveStats`, the flat JSON dump, the human table — are computed
//! from a [`MetricsSnapshot`] after the run.

use crate::event::{Counter, Gauge};
use crate::export::{json_escape, push_f64};
use std::sync::atomic::{AtomicU64, Ordering};

/// `num / den`, normalized to `0.0` when the denominator is zero.
///
/// Every rate the planner reports (cache hit rate, miss rate) goes
/// through this, so "no probes yet" reads as 0.0 everywhere instead of
/// NaN in some evaluators and 0.0 in others.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Thread-safe fixed-slot registry of all [`Counter`]s and [`Gauge`]s.
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    /// Gauge values as `f64` bits; [`GAUGE_UNSET`] marks never-set slots.
    gauges: [AtomicU64; Gauge::COUNT],
}

/// Sentinel bit pattern for a gauge that was never set (a quiet NaN that
/// `f64::to_bits` cannot produce for any value the planner records).
const GAUGE_UNSET: u64 = u64::MAX;

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Empty registry: all counters zero, all gauges unset.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(GAUGE_UNSET)),
        }
    }

    /// Add `v` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        self.counters[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Set a gauge to its latest value.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: f64) {
        self.gauges[g as usize].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Latest value of a gauge, or `None` if never set.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> Option<f64> {
        match self.gauges[g as usize].load(Ordering::Relaxed) {
            GAUGE_UNSET => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Point-in-time copy of every counter and set gauge.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL.map(|c| self.get(c)),
            gauges: Gauge::ALL.map(|g| self.gauge(g)),
        }
    }
}

/// An owned, immutable copy of the registry at one point in time — what
/// solver outcomes carry and exporters consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    gauges: [Option<f64>; Gauge::COUNT],
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Value of a gauge in this snapshot, or `None` if it was never set.
    pub fn gauge(&self, g: Gauge) -> Option<f64> {
        self.gauges[g as usize]
    }

    /// True if no counter fired and no gauge was set (e.g. a solver that
    /// predates the registry).
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&v| v == 0) && self.gauges.iter().all(|g| g.is_none())
    }

    /// The flat JSON metrics dump (`kfuse solve --metrics`): one
    /// `counters` object and one `gauges` object, keys as in
    /// [`Counter::name`] / [`Gauge::name`]. Unset gauges are omitted.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            json_escape(c.name(), &mut out);
            out.push_str("\": ");
            out.push_str(&self.counters[i].to_string());
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut first = true;
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let Some(v) = self.gauges[i] else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    \"");
            json_escape(g.name(), &mut out);
            out.push_str("\": ");
            push_f64(v, &mut out);
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The human stats table (`kfuse solve` / `kfuse stats`): aligned
    /// `name value` rows, counters first, then set gauges.
    pub fn render_table(&self) -> String {
        let width = Counter::ALL
            .iter()
            .map(|c| c.name().len())
            .chain(Gauge::ALL.iter().map(|g| g.name().len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            out.push_str(&format!(
                "{:<width$}  {:>20}\n",
                c.name(),
                group_digits(self.counters[i])
            ));
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if let Some(v) = self.gauges[i] {
                out.push_str(&format!("{:<width$}  {:>20.6}\n", g.name(), v));
            }
        }
        out
    }
}

/// `1234567` → `"1,234,567"` for the human table.
fn group_digits(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_normalizes_zero_denominator() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.incr(Counter::MemoProbes);
        reg.add(Counter::MemoProbes, 2);
        reg.set_gauge(Gauge::BestObjective, 1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Counter::MemoProbes), 3);
        assert_eq!(snap.get(Counter::MemoMisses), 0);
        assert_eq!(snap.gauge(Gauge::BestObjective), Some(1.5));
        assert_eq!(snap.gauge(Gauge::CacheHitRate), None);
        assert!(!snap.is_empty());
        assert!(MetricsRegistry::new().snapshot().is_empty());
    }

    #[test]
    fn table_lists_every_counter() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::MemoMisses, 1_234_567);
        let table = reg.snapshot().render_table();
        assert!(table.contains("memo_misses"));
        assert!(table.contains("1,234,567"));
        for c in Counter::ALL {
            assert!(table.contains(c.name()), "missing {}", c.name());
        }
    }
}
