//! The benchmark's own checks, at a tiny scale: a few applets, two
//! short apps and sub-second windows.

use std::path::PathBuf;
use std::sync::OnceLock;

use dvm_perfbench::{report, run, Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

/// Every workload, timed and traced, run once for all tests.
fn outcomes() -> &'static [(Workload, bool, Outcome)] {
    static RUNS: OnceLock<Vec<(Workload, bool, Outcome)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Options {
                    workload,
                    seed: 5,
                    seconds: 0.6,
                    trace,
                    scale: Scale::tiny(),
                    out_dir: out_dir.clone(),
                };
                let outcome = run(&opts).expect("trace output is writable");
                runs.push((workload, trace, outcome));
            }
        }
        runs
    })
}

fn outcome(workload: Workload, trace: bool) -> &'static Outcome {
    &outcomes()
        .iter()
        .find(|(w, t, _)| *w == workload && *t == trace)
        .expect("every pairing ran")
        .2
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn every_named_metric_is_emitted_with_a_unit_and_a_finite_value() {
    for (workload, trace, o) in outcomes() {
        let table = if *trace { PER_LAYER } else { END_TO_END };
        let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, table, "{workload:?} trace={trace}");
        for m in &o.metrics {
            assert!(m.value.is_finite(), "{workload:?} {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn end_to_end_metrics_are_positive() {
    for w in Workload::ALL {
        for m in &outcome(w, false).metrics {
            assert!(m.value > 0.0, "{w:?} {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn no_output_check_fails() {
    for (workload, trace, o) in outcomes() {
        assert!(o.attempted > 0, "{workload:?} trace={trace}");
        assert_eq!(
            o.failed, 0,
            "failed_ratio must be 0: {workload:?} trace={trace}"
        );
    }
}

#[test]
fn warm_fetch_hits_the_cache_and_cold_rewrite_rewrites_each_url_once() {
    let warm = outcome(Workload::WarmFetch, true);
    assert_eq!(metric(warm, "proxy.cache.hit_ratio"), 1.0);
    assert_eq!(metric(warm, "proxy.rewrites_per_url"), 0.0);
    let cold = outcome(Workload::ColdRewrite, true);
    assert_eq!(metric(cold, "proxy.rewrites_per_url"), 1.0);
    assert_eq!(metric(cold, "proxy.cache.hit_ratio"), 0.0);
}

#[test]
fn a_traced_warm_fetch_never_has_a_child_outlasting_its_root() {
    let trace = outcome(Workload::WarmFetch, true)
        .trace
        .as_ref()
        .expect("traced run keeps its spans");
    let mut children = 0;
    for s in trace.spans.iter().filter(|s| s.parent != 0) {
        let root = trace.get(s.request);
        if root.name != "net.fetch" {
            continue;
        }
        children += 1;
        assert!(
            s.start_ns >= root.start_ns && s.end_ns() <= root.end_ns(),
            "{} [{}, {}] outside net.fetch [{}, {}]",
            s.name,
            s.start_ns,
            s.end_ns(),
            root.start_ns,
            root.end_ns()
        );
    }
    assert!(children > 0, "warm fetch roots carry replayed children");
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let line = report::result_json(outcome(Workload::AppRun, false));
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(
        line.contains(", \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{line}"
    );
    assert!(!line.contains('\n'));
}

/// The `"name"` values of one metric list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let end = start + json[start..].find(']').expect("list closes");
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(listed(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed(&json, "workloads"), workloads);
}
