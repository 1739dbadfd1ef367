//! Wall-clock benchmark of the DVM stack: warm class fetches, cold
//! rewrites and Figure-5 app runs over the reactor on loopback, with a
//! separate traced run that splits each operation into named layers.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload warm_fetch --seed 1 --seconds 10 --trace 0`

mod inputs;
mod layers;
pub mod report;
mod run;
mod stack;
mod stats;
mod sys;
pub mod trace;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections fetch the seeded applet corpus from a warm cache.
    WarmFetch,
    /// Two connections fetch disjoint halves of the corpus from an
    /// empty cache, on a fresh organization per pass.
    ColdRewrite,
    /// Fresh remote DVM clients run the Figure-5 apps, one at a time.
    AppRun,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::WarmFetch, Workload::ColdRewrite, Workload::AppRun];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmFetch => "warm_fetch",
            Workload::ColdRewrite => "cold_rewrite",
            Workload::AppRun => "app_run",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much input a run uses. `full` is what the benchmark measures;
/// `tiny` keeps the benchmark's own tests fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Applets of the seeded corpus (of 100) fetched by the fetch workloads.
    pub applets: usize,
    /// Figure-5 iteration divisor (2000 is `--quick` scale).
    pub app_den: i32,
    /// Figure-5 apps run by `app_run` (of 5).
    pub fig5_apps: usize,
    /// Applets run for the app layers of the fetch workloads' traced run.
    pub layer_apps: usize,
    /// Set-ups per timed run (their median is `setup_s`); for
    /// `cold_rewrite`, the least number of passes.
    pub setup_reps: usize,
    /// Most cache-hit fetches whose layers a traced run replays.
    pub warm_replays: usize,
    /// Most rewrites whose layers a traced run replays.
    pub cold_replays: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Scale {
        Scale {
            applets: 100,
            app_den: 2000,
            fig5_apps: 5,
            layer_apps: 5,
            setup_reps: 3,
            warm_replays: 2048,
            cold_replays: 256,
        }
    }

    /// A few applets and two small apps.
    pub fn tiny() -> Scale {
        Scale {
            applets: 4,
            app_den: 20_000,
            fig5_apps: 2,
            layer_apps: 2,
            setup_reps: 2,
            warm_replays: 64,
            cold_replays: 16,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Picks the corpus and every order.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Where a traced run writes its spans and summary.
    pub out_dir: PathBuf,
}

/// End-to-end metrics, reported by every timed run: name and unit. An
/// operation is a class fetch on the fetch workloads and a whole app
/// run on `app_run`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.fetch_us", "us"),
    ("net.frame.encode_us", "us"),
    ("net.frame.decode_us", "us"),
    ("net.residual_us", "us"),
    ("net.client.retries", "count"),
    ("net.server.overload_rejects", "count"),
    ("reactor.events_per_fetch", "count"),
    ("reactor.loop_iterations_per_fetch", "count"),
    ("reactor.backpressure_stalls", "count"),
    ("proxy.serve_hit_us", "us"),
    ("proxy.cache.get_us", "us"),
    ("proxy.md5.ir_key_us", "us"),
    ("proxy.sign.detach_us", "us"),
    ("proxy.rewrite_us", "us"),
    ("proxy.sign.attach_us", "us"),
    ("proxy.cache.put_us", "us"),
    ("proxy.cache.hit_ratio", "ratio"),
    ("proxy.cache.evictions_per_put", "ratio"),
    ("proxy.rewrites_per_url", "ratio"),
    ("proxy.rewrite_parallelism", "ratio"),
    ("classfile.parse_us", "us"),
    ("classfile.write_us", "us"),
    ("verifier.verify_us", "us"),
    ("security.rewrite_us", "us"),
    ("monitor.audit_us", "us"),
    ("exec.compile_us", "us"),
    ("exec.decode_us", "us"),
    ("exec.ir_share", "ratio"),
    ("exec.ir_wall_ratio", "ratio"),
    ("core.client_connect_ms", "ms"),
    ("jvm.load_ms", "ms"),
    ("jvm.execute_ms", "ms"),
    ("jvm.instructions_per_run", "count"),
    ("net.fetches_per_run", "count"),
    ("trace.overhead_pct", "%"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// `value` under `name`, with the unit the metric tables give it.
    pub fn new(name: &'static str, value: f64) -> Metric {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        Metric { name, unit, value }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (set-up fetches included).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (sample counts, set-up samples).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub trace: Option<trace::Trace>,
}

/// Runs `opts`: the timed run, or the traced run.
pub fn run(opts: &Options) -> std::io::Result<Outcome> {
    if opts.trace {
        run::traced(opts, &opts.out_dir)
    } else {
        Ok(run::timed(opts))
    }
}
