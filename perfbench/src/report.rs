//! Statistics, the per-layer report, the run manifest and JSON output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{Layer, Span};

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The `q`-quantile of `values` by nearest rank (`values` non-empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, and the dominant layer's name.
///
/// The benchmark never nests one layer call inside another, so a layer
/// span's self time is its whole duration; only request spans have
/// children.
pub fn layer_metrics(
    spans: &[Span],
    counts: &BTreeMap<&'static str, u64>,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
) -> (Vec<Metric>, &'static str) {
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let request_ns: f64 = spans
        .iter()
        .filter(|s| s.layer.is_none())
        .map(|s| s.ns() as f64)
        .sum();
    let mut layer_ns = BTreeMap::new();
    let mut metrics = Vec::new();
    for layer in Layer::ALL {
        let calls: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == Some(layer))
            .map(|s| s.ns() as f64)
            .collect();
        // Fold from +0.0: an empty f64 sum is -0.0.
        let total = calls.iter().fold(0.0, |sum, ns| sum + ns);
        layer_ns.insert(layer, total);
        metrics.push(Metric::new(
            format!("{}.us_p50", layer.name()),
            median(&calls) / 1e3,
            "us",
        ));
        metrics.push(Metric::new(
            format!("{}.share", layer.name()),
            ratio(total, request_ns),
            "ratio",
        ));
    }
    let ns = |layer| layer_ns[&layer];

    let explore_calls = count("explore.calls");
    let mappings = count("explore.mappings_evaluated");
    for name in [
        "explore.mappings_evaluated",
        "explore.groupings_examined",
        "explore.states_pruned",
        "explore.comm_pruned",
    ] {
        metrics.push(Metric::new(
            name,
            ratio(count(name), explore_calls),
            "count/call",
        ));
    }
    metrics.push(Metric::new(
        "explore.infeasible",
        ratio(count("explore.infeasible"), explore_calls),
        "ratio",
    ));
    metrics.push(Metric::new(
        "explore.ns_per_mapping",
        ratio(ns(Layer::Explore), mappings),
        "ns",
    ));

    let degraded_calls = count("explore_degraded.calls");
    let rungs = count("explore_degraded.rungs_tried");
    metrics.push(Metric::new(
        "explore_degraded.rungs_tried",
        ratio(rungs, degraded_calls),
        "count/call",
    ));
    metrics.push(Metric::new(
        "explore_degraded.losses_per_rung",
        ratio(count("explore_degraded.losses_resolved"), rungs),
        "ratio",
    ));
    metrics.push(Metric::new(
        "explore_degraded.infeasible_losses",
        ratio(count("explore_degraded.infeasible_losses"), degraded_calls),
        "count/call",
    ));

    let compiled = count("compile.compiled");
    let rejected = count("compile.rejected");
    metrics.push(Metric::new(
        "compile.rejected",
        ratio(rejected, compiled + rejected),
        "ratio",
    ));
    for name in [
        "compile.columns",
        "compile.bus_slots_occupied",
        "compile.bus_slots_idle",
        "compile.bridge_slots_occupied",
        "compile.hyperperiod_ticks",
    ] {
        metrics.push(Metric::new(
            name,
            ratio(count(name), compiled),
            "count/call",
        ));
    }

    let executions = count("execute.calls");
    for name in [
        "execute.reference_ticks",
        "execute.column_cycles",
        "execute.bus_words",
        "execute.bridge_words",
    ] {
        metrics.push(Metric::new(
            name,
            ratio(count(name), executions),
            "count/call",
        ));
    }
    metrics.push(Metric::new(
        "execute.interpreted.ns_per_kcycle",
        ratio(
            ns(Layer::ExecuteInterpreted),
            count("execute.interpreted.column_cycles") / 1e3,
        ),
        "ns",
    ));

    let faulted_calls = count("execute_faulted.calls");
    metrics.push(Metric::new(
        "execute_faulted.stalls",
        ratio(count("execute_faulted.stalls"), faulted_calls),
        "ratio",
    ));
    metrics.push(Metric::new(
        "execute_faulted.ticks_after_kill",
        ratio(
            count("execute_faulted.ticks_after_kill"),
            count("execute_faulted.stalls"),
        ),
        "ticks/stall",
    ));

    let events = count("analyze.events");
    metrics.push(Metric::new(
        "analyze.events",
        ratio(events, count("analyze.calls")),
        "count/call",
    ));
    metrics.push(Metric::new(
        "analyze.ns_per_event",
        ratio(ns(Layer::Analyze), events),
        "ns",
    ));
    metrics.push(Metric::new(
        "analyze.unpriced_events",
        count("analyze.unpriced_events"),
        "count",
    ));
    metrics.push(Metric::new(
        "analyze.dropped_events",
        count("analyze.dropped_events"),
        "count",
    ));

    metrics.push(Metric::new(
        "trace_overhead_pct",
        ratio(traced_p50_ms - untraced_p50_ms, untraced_p50_ms) * 100.0,
        "%",
    ));
    let covered: f64 = layer_ns.values().sum();
    metrics.push(Metric::new("coverage", ratio(covered, request_ns), "ratio"));
    let dominant = Layer::ALL
        .into_iter()
        .max_by(|a, b| ns(*a).total_cmp(&ns(*b)))
        .map_or("none", Layer::name);
    (metrics, dominant)
}

/// Escape `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, become `null` so the line stays valid JSON).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The git revision of the enclosing checkout, read from `.git` without
/// running git; `"unknown"` outside a repository.
pub fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host-wide CPU tick counters `(steal, total)` from `/proc/stat`, or
/// `None` where unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of host CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings, in percent (-1 when unknown).
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => -1.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
