//! Order statistics for the reports (shared by both binaries; each uses
//! its own half). Percentiles interpolate linearly
//! between closest ranks; quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (exclusive method), because that is
//! what the acceptance procedure computes spreads with.

#![allow(dead_code)]

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `p` in `[0, 100]` over already sorted values; 0.0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest of p50/p75/p90/p95/p99 that leaves at least ten samples
/// beyond it; p50 when the list is too short for any of them.
pub fn tail_level(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// First and third quartile, exclusive method; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median (0.0 below two values).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, 0.0 when the denominator is 0 (a bypassed layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
