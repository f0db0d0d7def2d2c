//! Metric tables and the two output forms: `workload metric value unit`
//! lines for people, one JSON object for machines.

use std::fmt::Write as _;

use crate::json::quote;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// An end-to-end metric's contract: which way is better and by what share
/// of the baseline it may worsen before a change counts as a regression.
#[derive(Copy, Clone, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound, as a share of the baseline.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. "sim" is virtual time of
/// the modelled system, "host" is wall clock of the simulator. The same
/// table is in `BENCHMARK.json`; a self-test keeps the two equal.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_read_gib_s",
        unit: "GiB/s",
        higher_is_better: true,
        bound: 0.04,
    },
    EndToEnd {
        name: "sim_write_gib_s",
        unit: "GiB/s",
        higher_is_better: true,
        bound: 0.04,
    },
    EndToEnd {
        name: "sim_read_lat_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_read_lat_tail_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.18,
    },
    EndToEnd {
        name: "sim_write_lat_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_write_lat_tail_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.18,
    },
    EndToEnd {
        name: "host_ns_per_op",
        unit: "ns",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_allocs_per_op",
        unit: "count",
        higher_is_better: false,
        bound: 0.02,
    },
];

/// Failed `issue` calls over attempted ones. Zero at baseline on every
/// workload and any increase is a regression, so it cannot carry a bound
/// that is a share of its baseline: the driver reads it from the result
/// line's `failed` / `attempted`, and it is listed with the per-layer
/// metrics.
pub const FAILED_OP_SHARE: &str = "failed_op_share";

/// An end-to-end value with the spread between the repetitions it is the
/// median of (distance between their quartiles over their median).
#[derive(Clone, Debug)]
pub struct Reported {
    /// The value.
    pub metric: Metric,
    /// Spread between repetitions; zero for values that repeat exactly.
    pub spread: f64,
}

/// Everything one workload's run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Failed output checks (empty = correct).
    pub violations: Vec<String>,
    /// `issue` calls made, all repetitions.
    pub attempted: u64,
    /// `issue` calls that failed.
    pub failed: u64,
    /// Timed untraced repetitions behind the end-to-end values.
    pub repetitions: usize,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Reported>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Informational lines (tail quantiles chosen, caps, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `failed / attempted`.
    pub fn failed_op_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints one `workload metric value unit` line per metric, notes and
/// violations as `#` comments.
pub fn print_lines(o: &Outcome, end_to_end: bool, per_layer: bool) {
    let w = o.workload;
    if end_to_end {
        for r in &o.end_to_end {
            println!("{w} {} {} {}", r.metric.name, r.metric.value, r.metric.unit);
        }
        // Listed with the per-layer metrics; print it once either way.
        if !per_layer {
            println!("{w} {FAILED_OP_SHARE} {} ratio", o.failed_op_share());
        }
    }
    if per_layer {
        for m in &o.per_layer {
            println!("{w} {} {} {}", m.name, m.value, m.unit);
        }
    }
    for n in &o.notes {
        println!("# {w}: {n}");
    }
    for v in &o.violations {
        println!("# {w}: CHECK FAILED: {v}");
    }
}

fn metric_json(name: &str, value: f64, unit: &str, spread: Option<f64>) -> String {
    let mut out = format!(
        "{}: {{\"value\": {value}, \"unit\": {}",
        quote(name),
        quote(unit)
    );
    if let Some(s) = spread {
        let _ = write!(out, ", \"spread\": {s}");
    }
    out.push('}');
    out
}

fn plain_metrics<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    metrics
        .map(|m| metric_json(m.name, m.value, m.unit, None))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The driver's result line for one workload: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being every end-to-end
/// metric untraced and every per-layer metric traced.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        plain_metrics(o.per_layer.iter())
    } else {
        plain_metrics(o.end_to_end.iter().map(|r| &r.metric))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct(),
        o.attempted,
        o.failed
    )
}

/// The full report of a run over several workloads, on one line.
pub fn full_report(seed: u64, seconds: f64, quick: bool, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let mut metrics: Vec<String> = o
                .end_to_end
                .iter()
                .map(|r| metric_json(r.metric.name, r.metric.value, r.metric.unit, Some(r.spread)))
                .collect();
            metrics.push(metric_json(
                FAILED_OP_SHARE,
                o.failed_op_share(),
                "ratio",
                Some(0.0),
            ));
            format!(
                "{}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"repetitions\": {}, \"metrics\": {{{}}}, \"per_layer\": {{{}}}}}",
                quote(o.workload),
                o.correct(),
                o.attempted,
                o.failed,
                o.repetitions,
                metrics.join(", "),
                plain_metrics(o.per_layer.iter())
            )
        })
        .collect();
    format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}, \"workloads\": {{{}}}}}",
        workloads.join(", ")
    )
}
