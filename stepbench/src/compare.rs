//! The benchmark's metric table and the run-comparison rule.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! `benchmark_json_matches_the_metric_table` test keeps the two in step.

use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// End-to-end metrics of the untraced run.
pub const END_TO_END: [Metric; 6] = [
    lower("step_p50_s", "s", 0.25),
    lower("step_p90_s", "s", 0.25),
    Metric {
        name: "grid_points_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    lower("setup_s", "s", 0.25),
    lower("peak_rss_mib", "MiB", 0.15),
    lower("energy_budget_rel_err", "ratio", 0.15),
];

/// Per-layer metrics of the traced run: name and unit. Times are per step
/// and per rank; counts are per step and per rank, except `alloc.*`, which
/// count the whole process.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.transform.f2p_s", "s"),
    ("core.transform.p2f_s", "s"),
    ("core.transform.self_s", "s"),
    ("core.transform.calls", "count"),
    ("core.ns.cross_s", "s"),
    ("core.ns.nonlinear_self_s", "s"),
    ("core.ns.projection_s", "s"),
    ("core.ns.step_self_s", "s"),
    ("core.integrity.check_s", "s"),
    ("core.integrity.retries", "count"),
    ("fft.busy_s", "s"),
    ("domain.pack_s", "s"),
    ("comm.a2a_post_s", "s"),
    ("comm.a2a_wait_s", "s"),
    ("comm.a2a_calls", "count"),
    ("comm.net_bytes", "B"),
    ("comm.hidden_frac", "ratio"),
    ("device.h2d_s", "s"),
    ("device.d2h_s", "s"),
    ("device.h2d_bytes", "B"),
    ("device.d2h_bytes", "B"),
    ("device.copy_calls", "count"),
    ("device.kernel_launches", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("trace.step_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("host.yardstick_s", "s"),
];

/// Metric values of one run, by name.
pub type Run = BTreeMap<String, f64>;

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// An end-to-end metric whose median got worse by more than its bound.
#[derive(Debug, PartialEq)]
pub struct Regression {
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of the base median by which `new` is worse.
    pub worse_by: f64,
    pub bound: f64,
}

/// Compare two sets of runs of one workload metric by metric: a metric
/// regresses when its median over `new` is worse than its median over
/// `base` by more than the metric's bound. Metrics missing on either side
/// are skipped.
pub fn regressions(base: &[Run], new: &[Run]) -> Vec<Regression> {
    let med = |runs: &[Run], name: &str| {
        let v: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let mut out = Vec::new();
    for m in &END_TO_END {
        let (Some(b), Some(n)) = (med(base, m.name), med(new, m.name)) else {
            continue;
        };
        let worse_by = if m.higher_is_better {
            (b - n) / b
        } else {
            (n - b) / b
        };
        if worse_by > m.bound {
            out.push(Regression {
                metric: m.name,
                base: b,
                new: n,
                worse_by,
                bound: m.bound,
            });
        }
    }
    out
}

/// Noise context: the ratio of the two sides' `host.yardstick_s` medians,
/// when both sides report it. A ratio far from 1 means the host itself ran
/// at a different speed, so a flagged regression may be the neighbours'.
pub fn yardstick_ratio(base: &[Run], new: &[Run]) -> Option<f64> {
    let med = |runs: &[Run]| {
        let v: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("host.yardstick_s").copied())
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    Some(med(new)? / med(base)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn runs(scale: f64) -> Vec<Run> {
        (0..5)
            .map(|i| {
                let jitter = 1.0 + 0.01 * i as f64;
                let mut r = Run::new();
                r.insert("step_p50_s".into(), 0.125 * jitter * scale);
                r.insert("step_p90_s".into(), 0.14 * jitter * scale);
                r.insert("grid_points_per_s".into(), 2.0e6 * jitter / scale);
                r.insert("setup_s".into(), 0.4 * jitter);
                r.insert("peak_rss_mib".into(), 120.0);
                r.insert("energy_budget_rel_err".into(), 5e-8 * jitter);
                r.insert("host.yardstick_s".into(), 0.01 * jitter);
                r
            })
            .collect()
    }

    #[test]
    fn identical_result_sets_raise_nothing() {
        assert!(regressions(&runs(1.0), &runs(1.0)).is_empty());
        assert_eq!(yardstick_ratio(&runs(1.0), &runs(1.0)), Some(1.0));
    }

    #[test]
    fn a_2x_slowdown_is_flagged_on_every_time_metric() {
        let found = regressions(&runs(1.0), &runs(2.0));
        let names: Vec<&str> = found.iter().map(|r| r.metric).collect();
        assert_eq!(names, ["step_p50_s", "step_p90_s", "grid_points_per_s"]);
        assert!((found[0].worse_by - 1.0).abs() < 1e-12);
        assert!((found[2].worse_by - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_speedup_is_not_a_regression() {
        assert!(regressions(&runs(1.0), &runs(0.5)).is_empty());
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).unwrap();
        let list = |key: &str| match j.get(key) {
            Some(Json::Arr(v)) => v.clone(),
            _ => panic!("{key} is not a list"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(&e2e) {
            assert_eq!(j.get("name").and_then(Json::str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(j.get("better").and_then(Json::str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::num), Some(m.bound));
        }
        let workloads = list("workloads");
        let workloads: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::names());
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for ((name, unit), j) in PER_LAYER.iter().zip(&layers) {
            assert_eq!(j.get("name").and_then(Json::str), Some(*name));
            assert_eq!(j.get("unit").and_then(Json::str), Some(*unit));
        }
    }
}
