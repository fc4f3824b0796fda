//! The metrics a run prints, and the result line.
//!
//! Every workload reports every end-to-end metric: each workload names one
//! timed operation (a solve, a served query, an UPDATE acknowledgement, a
//! save → RELOAD → PROPOSE iteration), and the metrics describe that
//! operation. A traced run reports every per-layer metric instead, `0` for a
//! layer the workload does not exercise.

use crate::summary::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::Outcome;
use serde_json::{Map, Value};

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// End-to-end metrics, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("data.generate_ms", "ms"),
    ("index.iquadtree_build_ms", "ms"),
    ("core.iqt.sets_ms", "ms"),
    ("core.iqt.pruned_pct", "%"),
    ("influence.pairs_total", "count"),
    ("influence.pairs_verified", "count"),
    ("influence.prob_evals", "count"),
    ("influence.blocks_opened", "count"),
    ("influence.pf_fallbacks", "count"),
    ("core.select.ms", "ms"),
    ("core.select.gain_evals", "count"),
    ("core.select.gain_updates", "count"),
    ("core.select.heap_pushes", "count"),
    ("serve.engine.answer_us_p50", "us"),
    ("serve.engine.answer_us_p90", "us"),
    ("core.shard.scatter_events_per_query", "count"),
    ("core.shard.critical_path_us_p50", "us"),
    ("core.select.gain_updates_per_query", "count"),
    ("serve.protocol.encode_us_p50", "us"),
    ("serve.protocol.decode_us_p50", "us"),
    ("serve.protocol.response_bytes_p50", "bytes"),
    ("serve.wire.overhead_us_p50", "us"),
    ("serve.cache.hit_pct", "%"),
    ("serve.server.p50_us", "us"),
    ("serve.server.p99_us", "us"),
    ("serve.server.coalesced", "count"),
    ("serve.server.rejected", "count"),
    ("serve.server.errors", "count"),
    ("read.sat_qps", "1/s"),
    ("live.query_us_p50", "us"),
    ("live.query_us_p90", "us"),
    ("live.stale_answers", "count"),
    ("core.update.apply_ms", "ms"),
    ("core.update.prob_evals", "count"),
    ("core.update.flipped", "count"),
    ("core.update.compact_ms", "ms"),
    ("serve.snapshot.assemble_ms", "ms"),
    ("serve.snapshot.encode_ms", "ms"),
    ("serve.view.load_ms", "ms"),
    ("serve.engine.first_answer_ms", "ms"),
    ("serve.live.batch_ms", "ms"),
    ("ops.save_ms_p50", "ms"),
    ("ops.reload_ms_p50", "ms"),
    ("ops.propose_ms_p50", "ms"),
    ("serve.snapshot.write_ms", "ms"),
    ("serve.view.read_ms", "ms"),
    ("serve.snapshot.mb", "MB"),
    ("serve.snapshot.iset_mb", "MB"),
    ("serve.snapshot.iinv_mb", "MB"),
    ("serve.snapshot.pblk_mb", "MB"),
    ("serve.snapshot.iqtr_mb", "MB"),
    ("serve.view.pblk_decode_ms", "ms"),
    ("candgen.sweep_ms", "ms"),
    ("candgen.anchors", "count"),
    ("candgen.nonempty_cells", "count"),
    ("bench.gen_late_us_p90", "us"),
    ("bench.op_ms_p99", "ms"),
    ("bench.rss_peak_mb", "MB"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer metrics taken from span self times: (metric, span, quantile,
/// nanoseconds per unit).
const FROM_SPANS: [(&str, &str, f64, f64); 19] = [
    ("data.generate_ms", "data.generate", 0.5, 1e6),
    (
        "index.iquadtree_build_ms",
        "index.iquadtree_build",
        0.5,
        1e6,
    ),
    ("core.iqt.sets_ms", "core.iqt.sets", 0.5, 1e6),
    ("core.select.ms", "core.select", 0.5, 1e6),
    (
        "serve.engine.answer_us_p50",
        "serve.engine.answer",
        0.5,
        1e3,
    ),
    (
        "serve.engine.answer_us_p90",
        "serve.engine.answer",
        0.9,
        1e3,
    ),
    (
        "serve.protocol.encode_us_p50",
        "serve.protocol.encode",
        0.5,
        1e3,
    ),
    (
        "serve.protocol.decode_us_p50",
        "serve.protocol.decode",
        0.5,
        1e3,
    ),
    ("core.update.apply_ms", "core.update.apply", 0.5, 1e6),
    ("core.update.compact_ms", "core.update.compact", 0.5, 1e6),
    (
        "serve.snapshot.assemble_ms",
        "serve.snapshot.assemble",
        0.5,
        1e6,
    ),
    (
        "serve.snapshot.encode_ms",
        "serve.snapshot.encode",
        0.5,
        1e6,
    ),
    ("serve.view.load_ms", "serve.view.load", 0.5, 1e6),
    (
        "serve.engine.first_answer_ms",
        "serve.engine.first_answer",
        0.5,
        1e6,
    ),
    ("serve.live.batch_ms", "serve.live.batch", 0.5, 1e6),
    ("serve.snapshot.write_ms", "serve.snapshot.write", 0.5, 1e6),
    ("serve.view.read_ms", "serve.view.read", 0.5, 1e6),
    (
        "serve.view.pblk_decode_ms",
        "serve.view.pblk_decode",
        0.5,
        1e6,
    ),
    ("candgen.sweep_ms", "candgen.sweep", 0.5, 1e6),
];

fn op_ms(o: &Outcome) -> Vec<f64> {
    o.ops.iter().map(|op| op.ms).collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let ops = op_ms(o);
    let values = [
        (median(&o.setup_s), o.setup_s.len()),
        (percentile(&ops, 0.5), ops.len()),
        (percentile(&ops, 0.9), ops.len()),
        (o.cpu_ms / ops.len().max(1) as f64, ops.len()),
        (o.rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome, tr: &Tracer) -> Vec<Metric> {
    let mut values: Vec<(f64, usize)> = vec![(0.0, 0); PER_LAYER.len()];
    let mut set = |name: &str, value: f64, samples: usize| {
        if let Some(i) = PER_LAYER.iter().position(|&(n, _)| n == name) {
            values[i] = (value, samples);
        }
    };
    for (metric, span, q, ns_per_unit) in FROM_SPANS {
        let times = tr.self_times_ns(span);
        set(metric, percentile(&times, q) / ns_per_unit, times.len());
    }
    for &(name, _) in &PER_LAYER {
        if let Some(mean) = tr.count_mean(name) {
            set(name, mean, 1);
        }
    }
    let ops = op_ms(o);
    let (traced, untraced): (Vec<_>, Vec<_>) = o.ops.iter().partition(|op| op.traced);
    let med = |v: &[&crate::workloads::Op]| median(&v.iter().map(|op| op.ms).collect::<Vec<_>>());
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (med(&traced) / med(&untraced) - 1.0) * 100.0
    };
    set(
        "bench.gen_late_us_p90",
        percentile(&o.gen_late_us, 0.9),
        o.gen_late_us.len(),
    );
    set("bench.op_ms_p99", percentile(&ops, 0.99), ops.len());
    set("bench.rss_peak_mb", crate::sys::peak_rss_mb(), 1);
    set("bench.trace_overhead_pct", overhead, ops.len());
    for &(name, value) in &o.layers {
        set(name, value, 1);
    }
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect()
}

/// The result object: `correct`, `attempted`, `failed` and every metric
/// with its value and unit.
pub fn result(o: &Outcome, metrics: &[Metric]) -> Map {
    let mut m = Map::new();
    m.insert("correct".into(), Value::from(o.failed == 0));
    m.insert("attempted".into(), Value::from(o.checked));
    m.insert("failed".into(), Value::from(o.failed));
    let mut values = Map::new();
    for metric in metrics {
        let mut v = Map::new();
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        v.insert("value".into(), Value::from(value));
        v.insert("unit".into(), Value::from(metric.unit));
        values.insert(metric.name.to_string(), Value::Object(v));
    }
    m.insert("metrics".into(), Value::Object(values));
    m
}
