//! JSON rendering of results and of the traced run's per-layer summary.

use std::fmt::Write;

use crate::run::Window;
use crate::trace::Trace;
use crate::{Metric, Outcome};

/// A finite number as JSON (non-finite values, which no metric should
/// produce, render as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        metrics_json(&o.metrics)
    )
}

fn window_json(w: &Window) -> String {
    format!(
        "{{\"ops\": {}, \"ops_per_s\": {}, \"p50_us\": {}}}",
        w.ops,
        num(w.ops_per_s()),
        num(w.p50_us())
    )
}

/// Per-layer summary of a traced run: each span name's count, p50,
/// self-time p50 and share of the workload's `root` spans; the
/// per-layer metrics; and the tracing overhead as the untraced and
/// traced windows of the same stream.
pub(crate) fn summary_json(
    trace: &Trace,
    root: &str,
    metrics: &[Metric],
    untraced: &Window,
    traced: &Window,
) -> String {
    let mut layers = String::new();
    for (i, l) in trace.summary(root).iter().enumerate() {
        let _ = write!(
            layers,
            "{}\n    \"{}\": {{\"count\": {}, \"p50_us\": {}, \"self_p50_us\": {}, \"share_of_root\": {}}}",
            if i == 0 { "" } else { "," },
            l.name,
            l.count,
            num(l.p50_ns as f64 / 1e3),
            num(l.self_p50_ns as f64 / 1e3),
            num(l.share_of_root)
        );
    }
    format!(
        "{{\n  \"root\": \"{root}\",\n  \"untraced\": {},\n  \"traced\": {},\n  \"layers\": {{{layers}\n  }},\n  \"metrics\": {}\n}}\n",
        window_json(untraced),
        window_json(traced),
        metrics_json(metrics)
    )
}
