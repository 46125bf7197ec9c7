//! Turning one op's artifacts and spans into the output check and the
//! per-layer metrics.

use agilewatts::aw_telemetry::json::JsonValue;

use crate::digest;
use crate::spans::{layer_totals, Span};
use crate::workloads::{Artifacts, MemReading};

/// The check of one call into a simulate or analyze function.
#[derive(Debug, Clone, PartialEq)]
pub struct CallCheck {
    /// `simulate` or `analyze`.
    pub name: &'static str,
    /// Digest of the call's simulated statistics (16 hex digits).
    pub digest: String,
    /// `Some` when the call returned a failure artifact.
    pub error: Option<String>,
}

impl CallCheck {
    /// The check as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("name", JsonValue::str(self.name)),
            ("digest", JsonValue::str(&self.digest)),
            ("error", self.error.as_ref().map_or(JsonValue::Null, JsonValue::str)),
        ])
    }
}

/// One check per simulate or analyze call of the op, in call order.
#[must_use]
pub fn call_checks(artifacts: &Artifacts) -> Vec<CallCheck> {
    match artifacts {
        Artifacts::Server { runs, timelines, analyses, .. } => {
            let mut checks: Vec<CallCheck> = runs
                .iter()
                .enumerate()
                .map(|(i, out)| {
                    let mut d = digest::run_metrics(&out.metrics);
                    if let Some((csv, json)) = timelines.get(i) {
                        d.str(csv).str(json);
                    }
                    CallCheck {
                        name: "simulate",
                        digest: d.hex(),
                        error: out.failure.as_ref().map(ToString::to_string),
                    }
                })
                .collect();
            checks.extend(analyses.iter().map(|a| CallCheck {
                name: "analyze",
                digest: digest::idle_report(&a.report, &a.csv, &a.json).hex(),
                error: None,
            }));
            checks
        }
        Artifacts::Fleet { report, .. } => vec![CallCheck {
            name: "simulate",
            digest: digest::fleet_report(report).hex(),
            error: report.failure.as_ref().map(ToString::to_string),
        }],
    }
}

/// Simulated events an op processed (queue pops plus inline idle-skip
/// steps), summed over its simulate calls.
#[must_use]
pub fn events(artifacts: &Artifacts) -> u64 {
    match artifacts {
        Artifacts::Server { runs, .. } => runs.iter().map(|o| o.metrics.events).sum(),
        Artifacts::Fleet { report, .. } => report.events,
    }
}

/// AW-vs-Baseline core power savings and p99 change, in percent, for a
/// single-server op (Baseline is run 0, AW run 1).
#[must_use]
pub fn savings(artifacts: &Artifacts) -> Option<(f64, f64)> {
    let Artifacts::Server { runs, .. } = artifacts else { return None };
    let (base, aw) = (&runs[0].metrics, &runs[1].metrics);
    Some((100.0 * aw.power_savings_vs(base).get(), 100.0 * aw.tail_latency_delta_vs(base)))
}

/// `num / den`, or zero when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
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

/// Per-layer metrics of one traced op, by name. A layer the workload does
/// not call reads zero.
#[must_use]
pub fn layer_metrics(
    spans: &[Span],
    op: u64,
    artifacts: &Artifacts,
    mem: &[MemReading],
    jobs: usize,
) -> Vec<(String, f64)> {
    let totals = layer_totals(spans, op);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let incl_s = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    let (mut events, mut chained, mut completed, mut transitions) = (0u64, 0u64, 0u64, 0u64);
    let (mut intervals, mut windows) = (0u64, 0u64);
    let mut cluster = [0.0; 10];
    match artifacts {
        Artifacts::Server { runs, analyses, .. } => {
            for out in runs {
                events += out.metrics.events;
                chained += out.chained;
                completed += out.metrics.completed;
                transitions += out.metrics.transitions.values().sum::<u64>();
                if let Some(attr) = &out.attribution {
                    windows += attr.timeline.windows().len() as u64;
                }
            }
            intervals = analyses.iter().map(|a| a.report.ledger.intervals).sum();
        }
        Artifacts::Fleet { report, epochs, run_cpu_s, run_wall_s, .. } => {
            events = report.events;
            completed = report.completed;
            let counter = |key: &str| report.counters.get(key).copied().unwrap_or(0) as f64;
            let loaded = counter("fleet.server_epochs.loaded");
            let gaps: Vec<f64> = epochs.iter().map(|e| e.wall_s).collect();
            let busy = epochs.iter().map(|e| ratio(e.cpu_s, e.wall_s * jobs as f64));
            cluster = [
                incl_s("cluster.run"),
                ratio(incl_s("cluster.run") * 1e6, loaded),
                median(&gaps),
                gaps.iter().copied().fold(0.0, f64::max),
                self_s("cluster.report"),
                loaded,
                counter("fleet.server_epochs.parked"),
                report.latency.count as f64,
                ratio(*run_cpu_s, run_wall_s * jobs as f64),
                busy.reduce(f64::min).unwrap_or(0.0),
            ];
        }
    }

    let run_s = self_s("server.run");
    put("server.run_s", run_s);
    put("server.ns_per_event", ratio(run_s * 1e9, events as f64));
    put("server.ns_per_request", ratio(run_s * 1e9, completed as f64));
    put("server.chain_share", ratio(chained as f64, events as f64));
    put("server.events", events as f64);
    put("server.chained", chained as f64);
    put("server.completed", completed as f64);
    put("server.transitions", transitions as f64);

    let analyze_s = self_s("sleep.analyze");
    put("sleep.analyze_s", analyze_s);
    put("sleep.ns_per_interval", ratio(analyze_s * 1e9, intervals as f64));
    put("sleep.intervals", intervals as f64);

    put("telemetry.export_s", self_s("telemetry.export"));
    put("telemetry.windows", windows as f64);

    let names = [
        "cluster.run_s",
        "cluster.us_per_server_epoch",
        "cluster.epoch_s_p50",
        "cluster.epoch_s_max",
        "cluster.report_s",
        "cluster.server_epochs",
        "cluster.parked_server_epochs",
        "cluster.pooled_samples",
        "exec.busy_share",
        "exec.epoch_busy_share_min",
    ];
    for (name, value) in names.into_iter().zip(cluster) {
        put(name, value);
    }

    put("report.format_s", self_s("report.format"));
    put("trace.unattributed_s", self_s("op"));
    for &(boundary, rss, hwm) in mem {
        put(&format!("mem.rss_mb.{boundary}"), rss);
        put(&format!("mem.hwm_mb.{boundary}"), hwm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
