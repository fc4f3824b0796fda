//! `perfbench compare PARENT CHANGE`: compares two sets of runs.
//!
//! Each file holds result lines as `run --out FILE` appends them, one JSON
//! object per run with its `workload` and `metrics`. Per workload and
//! metric, both sides' medians and quartiles are printed. An end-to-end
//! metric is flagged `regressed` when the change's median is worse than the
//! parent's by more than the bound `BENCHMARK.json` fixes for it, and
//! `unresolved` when the parent's own interquartile range, as a share of
//! its median, is already wider than the bound — unless every change run
//! reads better than every parent run, which is `improved`. Per-layer
//! metrics have no bound and are printed for information.

use crate::summary::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// Outcome of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every change run better than every parent run.
    Improved,
    /// Median worse than the parent's by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// Per-layer metric: no bound.
    Info,
}

/// One printed comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent quartiles (Q1, median, Q3).
    pub parent: [f64; 3],
    /// Change quartiles (Q1, median, Q3).
    pub change: [f64; 3],
    /// Runs on each side.
    pub runs: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// workload → metric → one value per run.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn specs_of(doc: &Value, key: &str, gated: bool) -> Result<Vec<Spec>, String> {
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a `{key}` entry lacks `{f}`"))
            };
            let bound = if gated {
                Some(
                    m.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or(format!("a `{key}` entry lacks `bound`"))?,
                )
            } else {
                None
            };
            Ok(Spec {
                name: field("name")?,
                lower_is_better: field("better")? == "lower",
                bound,
            })
        })
        .collect()
}

/// The end-to-end and per-layer metrics declared in `BENCHMARK.json`.
///
/// # Errors
/// Malformed JSON or a missing field.
pub fn load_specs(text: &str) -> Result<Vec<Spec>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut specs = specs_of(&doc, "end_to_end", true)?;
    specs.extend(specs_of(&doc, "per_layer", false)?);
    Ok(specs)
}

/// Groups result lines by workload and metric.
///
/// # Errors
/// A non-blank line that is not a result object.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no `workload`"))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no `metrics`"))?;
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("a metric without a numeric `value`"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

fn verdict(spec: &Spec, parent: &[f64], change: &[f64]) -> Verdict {
    let Some(bound) = spec.bound else {
        return Verdict::Info;
    };
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    if change.iter().all(|&c| parent.iter().all(|&p| better(c, p))) {
        return Verdict::Improved;
    }
    let [p1, pm, p3] = quartiles(parent);
    let cm = quartiles(change)[1];
    let base = pm.abs().max(f64::MIN_POSITIVE);
    let worse = if spec.lower_is_better {
        cm - pm
    } else {
        pm - cm
    } / base;
    if (p3 - p1) / base > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares every declared metric of every workload both sides ran.
pub fn compare(specs: &[Spec], parent: &Runs, change: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, p_metrics) in parent {
        let Some(c_metrics) = change.get(workload) else {
            continue;
        };
        for spec in specs {
            let (Some(p), Some(c)) = (p_metrics.get(&spec.name), c_metrics.get(&spec.name)) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                parent: quartiles(p),
                change: quartiles(c),
                runs: (p.len(), c.len()),
                verdict: verdict(spec, p, c),
            });
        }
    }
    rows
}

/// The rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<38} {:>34} {:>34} {:>7} verdict\n",
        "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "runs"
    );
    for r in rows {
        let q = |v: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", v[0], v[1], v[2]);
        out.push_str(&format!(
            "{:<14} {:<38} {:>34} {:>34} {:>3}/{:<3} {:?}\n",
            r.workload,
            r.metric,
            q(r.parent),
            q(r.change),
            r.runs.0,
            r.runs.1,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
        "end_to_end": [
            {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]
    }"#;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    r#"{{"workload": "{workload}", "metrics": {{"{metric}": {{"value": {v}, "unit": "x"}}}}}}"#
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn verdict_of(metric: &str, parent: &[f64], change: &[f64]) -> Verdict {
        let specs = load_specs(BENCH).unwrap();
        let p = parse_runs(&runs("w", metric, parent)).unwrap();
        let c = parse_runs(&runs("w", metric, change)).unwrap();
        let rows = compare(&specs, &p, &c);
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn flags_a_median_worse_than_the_bound() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict_of("op_ms_p50", &parent, &[112.0, 113.0, 111.0, 99.0, 112.5]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of("op_ms_p50", &parent, &[105.0, 104.0, 99.5, 106.0, 105.5]),
            Verdict::Ok
        );
        // Higher is better: a falling rate regresses.
        assert_eq!(
            verdict_of("rate", &parent, &[85.0, 86.0, 101.0, 84.0, 85.5]),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let parent = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict_of("op_ms_p50", &parent, &[130.0, 90.0, 125.0, 118.0, 140.0]),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict_of("op_ms_p50", &parent, &[70.0, 75.0, 72.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn per_layer_metrics_are_informational_and_quartiles_are_reported() {
        let rows = compare(
            &load_specs(BENCH).unwrap(),
            &parse_runs(&runs("w", "hits", &[1.0, 2.0, 3.0, 4.0, 5.0])).unwrap(),
            &parse_runs(&runs("w", "hits", &[2.0, 2.0])).unwrap(),
        );
        assert_eq!(rows[0].verdict, Verdict::Info);
        assert_eq!(rows[0].parent, [1.5, 3.0, 4.5]);
        assert_eq!(rows[0].runs, (5, 2));
    }

    #[test]
    fn workloads_only_one_side_ran_are_skipped_and_bad_lines_rejected() {
        let specs = load_specs(BENCH).unwrap();
        let p = parse_runs(&runs("a", "op_ms_p50", &[1.0])).unwrap();
        let c = parse_runs(&runs("b", "op_ms_p50", &[1.0])).unwrap();
        assert!(compare(&specs, &p, &c).is_empty());
        assert!(parse_runs("{\"metrics\": {}}").is_err());
        assert!(parse_runs("not json").is_err());
        assert!(parse_runs("\n\n").unwrap().is_empty());
    }
}
