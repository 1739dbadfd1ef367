//! The three workloads, timed (tracing off) and traced.

use std::path::Path;
use std::time::{Duration, Instant};

use dvm_core::Organization;
use dvm_net::{NetClassProvider, ProxyServer};
use dvm_proxy::ServedFrom;

use crate::inputs::{self, Inputs, Rng};
use crate::layers::{self, Replayer};
use crate::stack::{self, AppResult, AppRun, Driven, FetchOp, Length, SUB_WINDOW};
use crate::stats::{beyond, median, percentile};
use crate::sys::Usage;
use crate::trace::Trace;
use crate::{Metric, Options, Outcome, Scale, Workload};

/// Latency tail each workload reports as `op_tail_us`. `warm_fetch`
/// takes p99, the highest percentile its sub-windows support with ten
/// samples beyond. `cold_rewrite` stops at p90: each pass fetches every
/// class once, so its p99 is the rewrite of the seeded corpus's few
/// largest classes (9–13 KB depending on the seed) and tracks the seed
/// more than the system. `app_run` has about a hundred runs pooled.
pub fn tail_quantile(workload: Workload) -> f64 {
    match workload {
        Workload::WarmFetch => 0.99,
        Workload::ColdRewrite | Workload::AppRun => 0.90,
    }
}

fn inputs_for(opts: &Options) -> Inputs {
    match opts.workload {
        Workload::AppRun => inputs::figure5(opts.seed, &opts.scale),
        _ => inputs::applets(opts.seed, &opts.scale),
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A warm organization: served, its two fetchers connected, every class
/// rewritten once and promoted back to the memory tier.
struct Warm {
    providers: Vec<NetClassProvider>,
    server: ProxyServer,
    org: Organization,
    /// Verified payload of every URL, from the warming pass.
    expected: Vec<Vec<u8>>,
    /// The warming pass: two clients fetch disjoint halves, rewriting
    /// every class not rewritten yet.
    warming: Driven,
    /// In-process reference results, parallel to `inputs.apps`.
    references: Vec<AppResult>,
    /// Fetches made while warming, and how many failed their check.
    attempted: u64,
    failed: u64,
}

/// With `apps`, the apps are first run once each, in order, by remote
/// clients: the proxy then rewrites their classes in the order the
/// apps load them, as it does for a first user. What a rewrite emits
/// depends on what the verifier has already seen, so a fixed order
/// keeps the code every later run executes the same for every seed.
fn warm_up(inputs: &Inputs, epoch: Instant, apps: bool) -> Warm {
    let org = stack::organization(&inputs.classes, true);
    let server = stack::serve(&org);
    let first_runs: Vec<AppRun> = if apps {
        let addr = server.addr();
        inputs
            .apps
            .iter()
            .map(|a| stack::app_run(&org, addr, a, false, None, epoch))
            .collect()
    } else {
        Vec::new()
    };
    let mut providers = vec![
        stack::provider(server.addr(), "client0"),
        stack::provider(server.addr(), "client1"),
    ];
    let order: Vec<usize> = (0..inputs.urls.len()).collect();
    let urls = &inputs.urls;
    let warming = stack::drive(
        &mut providers,
        &stack::halves(&order),
        urls,
        Length::Once,
        true,
        epoch,
        &|i, p| stack::parses_as(&urls[i], p),
    );
    let mut expected = vec![Vec::new(); urls.len()];
    for op in &warming.ops {
        if let Some(p) = &op.payload {
            expected[op.url] = p.clone();
        }
    }
    // The IR packages written while rewriting push some classes out to
    // the disk tier; one more pass brings every class back to memory.
    let promote = stack::drive(
        &mut providers,
        &stack::halves(&order),
        urls,
        Length::Once,
        false,
        epoch,
        &|i, p| p == expected[i].as_slice(),
    );
    let references = if apps {
        inputs
            .apps
            .iter()
            .map(|a| stack::reference_run(&org, a))
            .collect()
    } else {
        Vec::new()
    };
    let all = warming.ops.iter().chain(&promote.ops);
    let failed =
        all.clone().filter(|o| !o.ok).count() + first_runs.iter().filter(|r| !r.ok).count();
    Warm {
        attempted: (all.count() + first_runs.len()) as u64,
        failed: failed as u64,
        providers,
        server,
        org,
        expected,
        warming,
        references,
    }
}

/// Set-up repeated `scale.setup_reps` times; the last one is kept.
fn warm_setups(inputs: &Inputs, opts: &Options, epoch: Instant) -> (Warm, Vec<f64>) {
    let refs = opts.workload == Workload::AppRun;
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..opts.scale.setup_reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let w = warm_up(inputs, epoch, refs);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(w);
    }
    (kept.expect("at least one set-up"), times)
}

/// Each client walks the whole seeded order, from its own offset.
fn rotations(n: usize, clients: usize) -> Vec<Vec<usize>> {
    (0..clients)
        .map(|k| (0..n).map(|i| (i + k * n / clients) % n).collect())
        .collect()
}

/// The warm stream for `d`: two clients fetch the seeded order.
fn warm_stream(w: &mut Warm, inputs: &Inputs, d: Duration, epoch: Instant) -> Driven {
    let expected = &w.expected;
    stack::drive(
        &mut w.providers,
        &rotations(inputs.urls.len(), 2),
        &inputs.urls,
        Length::For(d),
        false,
        epoch,
        &|i, p| p == expected[i].as_slice(),
    )
}

/// Rounds of app runs for at least `d`, whole rounds only, each round
/// a fresh seeded permutation of the apps.
/// Returns every run, which app each was, and one sub-window per round.
fn app_rounds(
    w: &Warm,
    inputs: &Inputs,
    seed: u64,
    d: Duration,
    preload: bool,
    epoch: Instant,
) -> (Vec<AppRun>, Vec<usize>, Window) {
    let mut rng = Rng::new(seed ^ 0x0A99_5EED);
    let begin = Instant::now();
    let (mut runs, mut which, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let mut order: Vec<usize> = (0..inputs.apps.len()).collect();
        rng.shuffle(&mut order);
        let (t, usage0) = (Instant::now(), Usage::now());
        let mut round = Vec::new();
        for a in order {
            let expect = w.references.get(a);
            round.push(stack::app_run(
                &w.org,
                w.server.addr(),
                &inputs.apps[a],
                preload,
                expect,
                epoch,
            ));
            which.push(a);
        }
        parts.push(Part::new(
            round.iter().map(|r| r.total_ns).collect(),
            round.iter().filter(|r| !r.ok).count() as u64,
            ns(t.elapsed()),
            Usage::now().since(usage0),
        ));
        runs.extend(round);
        if begin.elapsed() >= d {
            break;
        }
    }
    (runs, which, Window::new(parts, true))
}

/// One cold pass: a fresh organization (built outside the timed
/// window), two clients each fetching a disjoint half of the seeded
/// URL order from an empty cache.
struct ColdPass {
    setup_s: f64,
    driven: Driven,
    usage: Usage,
    counters: Counters,
    /// The pass's fetchers, server and organization, while kept up.
    env: Option<(Vec<NetClassProvider>, ProxyServer, Organization)>,
    /// The pass's own corpus, while kept up (see [`cold_passes`]).
    inputs: Option<Inputs>,
}

impl ColdPass {
    fn org(&self) -> &Organization {
        &self.env.as_ref().expect("pass stays up").2
    }
}

fn cold_pass(inputs: &Inputs, keep: bool, epoch: Instant) -> ColdPass {
    let t = Instant::now();
    let org = stack::organization(&inputs.classes, true);
    let server = stack::serve(&org);
    let mut providers = vec![
        stack::provider(server.addr(), "client0"),
        stack::provider(server.addr(), "client1"),
    ];
    let setup_s = t.elapsed().as_secs_f64();
    let order: Vec<usize> = (0..inputs.urls.len()).collect();
    let urls = &inputs.urls;
    let before = Counters::read(&org, &server, &providers);
    let usage0 = Usage::now();
    let driven = stack::drive(
        &mut providers,
        &stack::halves(&order),
        urls,
        Length::Once,
        keep,
        epoch,
        &|i, p| stack::parses_as(&urls[i], p),
    );
    let usage = Usage::now().since(usage0);
    let counters = Counters::read(&org, &server, &providers).minus(&before);
    ColdPass {
        setup_s,
        driven,
        usage,
        counters,
        env: Some((providers, server, org)),
        inputs: None,
    }
}

/// `cold_rewrite` passes, numbered from `first`, until their timed
/// windows add up to `d`, and at least `min` of them. Pass 0 rewrites
/// the seed's own corpus and pass `p` the corpus of a seed derived from
/// it and `p`: what a class costs to rewrite depends on the corpus,
/// and the median over many corpora tracks the system rather than one
/// draw of 100 applets. Only the newest pass stays up; each older one
/// is torn down outside the timed windows.
fn cold_passes(
    opts: &Options,
    first: u64,
    d: Duration,
    min: usize,
    keep: bool,
    epoch: Instant,
) -> Vec<ColdPass> {
    let mut passes: Vec<ColdPass> = Vec::new();
    let mut timed = 0;
    while timed < ns(d) || passes.len() < min {
        if let Some(prev) = passes.last_mut() {
            prev.env = None;
            prev.inputs = None;
        }
        let p = first + passes.len() as u64;
        let seed = match p {
            0 => opts.seed,
            p => opts.seed ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let inputs = inputs::applets(seed, &opts.scale);
        let mut pass = cold_pass(&inputs, keep, epoch);
        pass.inputs = Some(inputs);
        timed += pass.driven.wall_ns;
        passes.push(pass);
    }
    passes
}

/// Server- and client-side counters read from the telemetry and stats
/// snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    requests: u64,
    memory_hits: u64,
    rewrites: u64,
    ir_compiles: u64,
    evictions: u64,
    reactor_events: u64,
    reactor_loops: u64,
    backpressure_stalls: u64,
    overload_rejects: u64,
    client_retries: u64,
}

impl Counters {
    fn read(org: &Organization, server: &ProxyServer, providers: &[NetClassProvider]) -> Counters {
        let t = server.telemetry();
        let r = t.registry();
        let c = |name: &str| r.counter(name).get();
        Counters {
            requests: c("proxy.requests"),
            memory_hits: c("proxy.cache.hit.memory"),
            rewrites: c("proxy.rewrites"),
            ir_compiles: c("exec.ir.compiles"),
            evictions: org.proxy.cache_stats().evictions,
            reactor_events: c("reactor.events_total"),
            reactor_loops: c("reactor.loop_iterations"),
            backpressure_stalls: c("reactor.backpressure_stalls_total"),
            overload_rejects: c("net.server.overload_rejects"),
            client_retries: providers.iter().map(|p| p.stats().retries).sum(),
        }
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            requests: f(self.requests, o.requests),
            memory_hits: f(self.memory_hits, o.memory_hits),
            rewrites: f(self.rewrites, o.rewrites),
            ir_compiles: f(self.ir_compiles, o.ir_compiles),
            evictions: f(self.evictions, o.evictions),
            reactor_events: f(self.reactor_events, o.reactor_events),
            reactor_loops: f(self.reactor_loops, o.reactor_loops),
            backpressure_stalls: f(self.backpressure_stalls, o.backpressure_stalls),
            overload_rejects: f(self.overload_rejects, o.overload_rejects),
            client_retries: f(self.client_retries, o.client_retries),
        }
    }

    fn minus(&self, o: &Counters) -> Counters {
        self.zip(o, u64::saturating_sub)
    }

    fn plus(&self, o: &Counters) -> Counters {
        self.zip(o, u64::saturating_add)
    }
}

/// One sub-window of a timed stream.
pub(crate) struct Part {
    /// Latencies, ascending.
    lat_ns: Vec<u64>,
    failed: u64,
    wall_ns: u64,
    usage: Usage,
}

impl Part {
    fn new(mut lat_ns: Vec<u64>, failed: u64, wall_ns: u64, usage: Usage) -> Part {
        lat_ns.sort_unstable();
        Part {
            lat_ns,
            failed,
            wall_ns,
            usage,
        }
    }

    fn of_fetches<'a>(ops: impl Iterator<Item = &'a FetchOp>, wall_ns: u64, usage: Usage) -> Part {
        let (mut lat, mut failed) = (Vec::new(), 0);
        for o in ops {
            lat.push(o.dur_ns);
            failed += u64::from(!o.ok);
        }
        Part::new(lat, failed, wall_ns, usage)
    }

    /// Host steal per ns of the sub-window.
    fn steal_share(&self) -> f64 {
        self.usage.steal_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// The sub-windows of a timed fetch stream of length `d`, one per
/// sampling interval of `drive`.
fn fetch_parts(driven: &Driven, d: Duration) -> Vec<Part> {
    let k = driven.marks.len().saturating_sub(1).max(1);
    let every = ns(SUB_WINDOW);
    let mut buckets: Vec<Vec<&FetchOp>> = vec![Vec::new(); k];
    for op in &driven.ops {
        let i = (op.start_ns.saturating_sub(driven.begin_ns) / every) as usize;
        buckets[i.min(k - 1)].push(op);
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, ops)| {
            let wall = if k == 1 {
                driven.wall_ns
            } else {
                every.min(ns(d) - i as u64 * every)
            };
            let usage = match (driven.marks.get(i), driven.marks.get(i + 1)) {
                (Some(a), Some(b)) => b.since(*a),
                _ => Usage::default(),
            };
            Part::of_fetches(ops.into_iter(), wall, usage)
        })
        .collect()
}

/// End-to-end figures of one timed stream, cut into sub-windows.
///
/// The hypervisor of a shared machine steals CPU time from it in bursts
/// of a few seconds, and every figure here is slower in a sub-window it
/// hit. So only the quieter sub-windows count: those whose host steal
/// (`/proc/stat`) is at most the median sub-window's or within one tick
/// of none: at least half of them, and all when there was no steal.
/// Over those, rates, latencies, CPU cost and the resident set at the
/// sub-window's end are medians, so interference that spans less than
/// half of them moves none of the figures either. With `pooled`, latency quantiles
/// are taken over every sample of the kept sub-windows instead (app
/// runs: a sub-window holds one run of each app, too few for a tail).
/// Operation and failure counts cover every sub-window.
pub(crate) struct Window {
    pub(crate) ops: u64,
    pub(crate) failed: u64,
    pub(crate) wall_ns: u64,
    /// Latencies of the kept sub-windows, ascending.
    pub(crate) lat_ns: Vec<u64>,
    /// The kept sub-windows, and how many there were in all.
    parts: Vec<Part>,
    all_parts: usize,
    pooled: bool,
}

impl Window {
    fn new(parts: Vec<Part>, pooled: bool) -> Window {
        let (ops, failed, wall_ns, all_parts) = (
            parts.iter().map(|p| p.lat_ns.len() as u64).sum(),
            parts.iter().map(|p| p.failed).sum(),
            parts.iter().map(|p| p.wall_ns).sum(),
            parts.len(),
        );
        let shares: Vec<f64> = parts.iter().map(Part::steal_share).collect();
        let limit = median(&shares);
        let parts: Vec<Part> = parts
            .into_iter()
            .filter(|p| p.usage.steal_ns <= crate::sys::NS_PER_TICK || p.steal_share() <= limit)
            .collect();
        let mut lat_ns: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.lat_ns.iter().copied())
            .collect();
        lat_ns.sort_unstable();
        Window {
            ops,
            failed,
            wall_ns,
            lat_ns,
            parts,
            all_parts,
            pooled,
        }
    }

    fn part_median(&self, f: impl Fn(&Part) -> f64) -> f64 {
        let v: Vec<f64> = self
            .parts
            .iter()
            .filter(|p| !p.lat_ns.is_empty())
            .map(f)
            .collect();
        median(&v)
    }

    pub(crate) fn ops_per_s(&self) -> f64 {
        self.part_median(|p| p.lat_ns.len() as f64 / (p.wall_ns.max(1) as f64 / 1e9))
    }

    /// Latency quantile `q`, in µs.
    pub(crate) fn quantile_us(&self, q: f64) -> f64 {
        let ns = if self.pooled {
            percentile(&self.lat_ns, q) as f64
        } else {
            self.part_median(|p| percentile(&p.lat_ns, q) as f64)
        };
        ns / 1e3
    }

    pub(crate) fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.part_median(|p| p.usage.cpu_ns as f64 / 1e3 / p.lat_ns.len() as f64)
    }

    /// Resident set at the end of a sub-window, in MiB.
    fn rss_mb(&self) -> f64 {
        self.part_median(|p| p.usage.rss_kb as f64 / 1024.0)
    }

    /// Samples beyond quantile `q` in the sample it is taken from (the
    /// fewest over the sub-windows, unless pooled).
    fn beyond(&self, q: f64) -> usize {
        if self.pooled {
            beyond(self.lat_ns.len(), q)
        } else {
            self.parts
                .iter()
                .map(|p| beyond(p.lat_ns.len(), q))
                .min()
                .unwrap_or(0)
        }
    }

    /// Sample sizes behind `quantile_us`, for the report.
    fn sample_note(&self, q: f64) -> String {
        format!(
            "{} ops in {:.3} s; {} of {} sub-windows kept (least host steal); \
             quantiles {} with at least {} samples beyond p{}",
            self.ops,
            self.wall_ns as f64 / 1e9,
            self.parts.len(),
            self.all_parts,
            if self.pooled {
                "pooled"
            } else {
                "are sub-window medians"
            },
            self.beyond(q),
            q * 100.0
        )
    }
}

/// One sub-window per cold pass.
fn cold_window(passes: &[ColdPass]) -> Window {
    let parts = passes
        .iter()
        .map(|p| Part::of_fetches(p.driven.ops.iter(), p.driven.wall_ns, p.usage))
        .collect();
    Window::new(parts, false)
}

/// The timed run: set-up, then the workload's stream for
/// `opts.seconds` with tracing off.
pub fn timed(opts: &Options) -> Outcome {
    let epoch = Instant::now();
    let steal0 = crate::sys::steal_ns();
    let d = Duration::from_secs_f64(opts.seconds);
    let (mut setup_attempted, mut setup_failed) = (0, 0);
    let mut reference_notes = Vec::new();
    let (window, setups) = match opts.workload {
        Workload::WarmFetch => {
            let inputs = inputs_for(opts);
            let (mut w, setups) = warm_setups(&inputs, opts, epoch);
            (setup_attempted, setup_failed) = (w.attempted, w.failed);
            let driven = warm_stream(&mut w, &inputs, d, epoch);
            (Window::new(fetch_parts(&driven, d), false), setups)
        }
        Workload::ColdRewrite => {
            let passes = cold_passes(opts, 0, d, opts.scale.setup_reps, false, epoch);
            let setups = passes.iter().map(|p| p.setup_s).collect();
            (cold_window(&passes), setups)
        }
        Workload::AppRun => {
            let inputs = inputs_for(opts);
            let (w, setups) = warm_setups(&inputs, opts, epoch);
            (setup_attempted, setup_failed) = (w.attempted, w.failed);
            for (app, r) in inputs.apps.iter().zip(&w.references) {
                reference_notes.push(format!("{}: {} instructions", app.main, r.instructions));
            }
            (
                app_rounds(&w, &inputs, opts.seed, d, false, epoch).2,
                setups,
            )
        }
    };
    let q = tail_quantile(opts.workload);
    let metrics = vec![
        Metric::new("setup_s", median(&setups)),
        Metric::new("ops_per_s", window.ops_per_s()),
        Metric::new("op_p50_us", window.p50_us()),
        Metric::new("op_tail_us", window.quantile_us(q)),
        Metric::new("cpu_us_per_op", window.cpu_us_per_op()),
        Metric::new("rss_mb", window.rss_mb()),
    ];
    let mut notes = vec![
        window.sample_note(q),
        format!("op_tail_us is p{}", q * 100.0),
        format!("set-up samples (s): {setups:.4?}"),
    ];
    notes.extend(reference_notes);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    notes.push(format!(
        "host steal over the run: {:.1}% of {cpus} CPUs",
        (crate::sys::steal_ns() - steal0) as f64 / (ns(epoch.elapsed()) * cpus as u64) as f64
            * 100.0
    ));
    if window.beyond(q) < 10 {
        notes.push(format!(
            "warning: fewer than 10 samples beyond p{}",
            q * 100.0
        ));
    }
    Outcome {
        attempted: window.ops + setup_attempted,
        failed: window.failed + setup_failed,
        metrics,
        notes,
        trace: None,
    }
}

/// Evenly spaced sample of at most `cap` of `n` indices.
fn sample(n: usize, cap: usize) -> Vec<usize> {
    let step = n.div_ceil(cap.max(1)).max(1);
    (0..n).step_by(step).collect()
}

/// Records a sample of `ops` as roots named `root` and replays their
/// layers beneath them: a rewrite when the fetch was `Rewritten`, a
/// cache hit otherwise, then the wire calls on the signed bytes.
/// Returns the mean replayed rewrite time times the rewrites in `ops`:
/// the serial cost of all of them.
fn replay_fetches(
    trace: &mut Trace,
    replayer: &mut Replayer,
    inputs: &Inputs,
    root: &'static str,
    ops: &[FetchOp],
    cap: usize,
    live: &Organization,
) -> u64 {
    let signer = stack::signer();
    let (mut rewrite_ns, mut rewrites) = (0u64, 0u64);
    for i in sample(ops.len(), cap) {
        let op = &ops[i];
        let Some(served) = op.served else { continue };
        if served == ServedFrom::Rewritten && replayer.rewritten(op.url) {
            continue;
        }
        let url = &inputs.urls[op.url];
        let signed: Vec<u8> = match &op.payload {
            Some(p) => signer.attach(p.clone()),
            None => match live.proxy.cache_peek(url) {
                Some((bytes, _)) => bytes.to_vec(),
                None => continue,
            },
        };
        let id = trace.root(root, op.start_ns, op.dur_ns);
        let mut at = op.start_ns;
        if served == ServedFrom::Rewritten {
            if let Some(d) = replayer.rewrite(trace, Some(id), &mut at, inputs, op.url) {
                rewrite_ns += d;
                rewrites += 1;
            }
        } else {
            replayer.hit(trace, Some(id), &mut at, &live.proxy, url, &signed);
        }
        replayer.wire(trace, Some(id), &mut at, served, &signed);
    }
    let all = ops
        .iter()
        .filter(|o| o.served == Some(ServedFrom::Rewritten))
        .count() as u64;
    rewrite_ns
        .checked_div(rewrites)
        .map_or(0, |mean| mean * all)
}

/// What traced app runs measured.
#[derive(Default)]
struct AppLayers {
    runs: u64,
    failed: u64,
    instructions: u64,
    ir_invocations: u64,
    interp_invocations: u64,
    /// Σ `run_main` time of the first traced run of each app.
    first_exec_ns: u64,
    client_fetches: u64,
    client_retries: u64,
}

/// Records traced app runs as `app.run` roots over their live phases,
/// and replays `dvm_exec::decode` of each class's IR package inside the
/// load phase of the first run of each app.
fn trace_app_runs(
    trace: &mut Trace,
    runs: &[AppRun],
    which: &[usize],
    packages: &[Vec<Vec<u8>>],
) -> AppLayers {
    let mut out = AppLayers::default();
    let mut seen = vec![false; packages.len()];
    for (r, &a) in runs.iter().zip(which) {
        let id = trace.root("app.run", r.start_ns, r.total_ns);
        trace.child(id, "core.client_connect", r.start_ns, r.connect_ns);
        let load_start = r.start_ns + r.connect_ns;
        let load = trace.child(id, "jvm.load", load_start, r.load_ns);
        trace.child(id, "jvm.execute", load_start + r.load_ns, r.execute_ns);
        if !std::mem::replace(&mut seen[a], true) {
            let mut at = load_start;
            for package in &packages[a] {
                trace.lay(load, "exec.decode", &mut at, layers::decode_ns(package));
            }
            out.first_exec_ns += r.execute_ns;
        }
        out.runs += 1;
        out.failed += u64::from(!r.ok);
        out.instructions += r.instructions;
        out.ir_invocations += r.ir_invocations;
        out.interp_invocations += r.interp_invocations;
        out.client_fetches += r.fetches;
        out.client_retries += r.retries;
    }
    out
}

/// The IR package of every class of every app, fetched and verified the
/// way a DVM client fetches it.
fn ir_packages(addr: std::net::SocketAddr, inputs: &Inputs) -> Vec<Vec<Vec<u8>>> {
    let mut p = stack::provider(addr, "ir-fetch");
    inputs
        .apps
        .iter()
        .map(|app| {
            app.classes
                .iter()
                .filter_map(|c| {
                    let (_, t) = p.fetch(&inputs::class_url(c)).ok()?;
                    p.fetch(&t.ir_key?).ok().map(|(ir, _)| ir)
                })
                .collect()
        })
        .collect()
}

/// Σ `run_main` time of each app on an interpreter-only organization,
/// after a first run that rewrites its classes.
fn interpreter_exec_ns(inputs: &Inputs, epoch: Instant) -> u64 {
    let org = stack::organization(&inputs.classes, false);
    let server = stack::serve(&org);
    inputs
        .apps
        .iter()
        .map(|app| {
            stack::app_run(&org, server.addr(), app, true, None, epoch);
            stack::app_run(&org, server.addr(), app, true, None, epoch).execute_ns
        })
        .sum()
}

/// The live part of a traced run: the workload's stream, untraced and
/// then traced, and what its counters read over the traced window.
struct Stream {
    untraced: Window,
    traced: Window,
    counters: Counters,
    /// Fetch latencies of the stream (app_run: of its replayed class
    /// loads), ascending.
    fetch_lat_ns: Vec<u64>,
    /// Distinct URLs each organization was asked for, summed.
    distinct_urls: u64,
    /// Σ serial rewrite time ÷ wall time of a two-client cold pass.
    parallelism: f64,
    apps: Option<AppLayers>,
    attempted: u64,
    failed: u64,
}

/// The traced run: the workload's stream untraced and then traced for
/// half of `opts.seconds` each, followed by the layer replays. Writes
/// the spans and the per-layer summary under `out_dir`.
pub fn traced(opts: &Options, out_dir: &Path) -> std::io::Result<Outcome> {
    // cold_rewrite replaces these with its last pass's corpus.
    let mut inputs = inputs_for(opts);
    let epoch = Instant::now();
    let half = Duration::from_secs_f64(opts.seconds / 2.0);
    let scale: &Scale = &opts.scale;
    let mut trace = Trace::default();
    let root = if opts.workload == Workload::AppRun {
        "app.run"
    } else {
        "net.fetch"
    };

    let mut warm = None;
    let mut cold = Vec::new();
    let mut stream = match opts.workload {
        Workload::WarmFetch | Workload::AppRun => {
            let apps = opts.workload == Workload::AppRun;
            let mut replayer = Replayer::new(&inputs);
            let mut w = warm_up(&inputs, epoch, apps);
            // The rewrite layers come from a two-client cold pass: the
            // warming pass for warm_fetch, a pass on a fresh
            // organization for app_run (whose warm-up rewrites through
            // app runs).
            let fresh = apps.then(|| cold_pass(&inputs, true, epoch));
            let (pass, org) = match &fresh {
                Some(c) => (&c.driven, c.org()),
                None => (&w.warming, &w.org),
            };
            let rewrite_ns = replay_fetches(
                &mut trace,
                &mut replayer,
                &inputs,
                "setup.fetch",
                &pass.ops,
                scale.cold_replays,
                org,
            );
            let parallelism = rewrite_ns as f64 / pass.wall_ns.max(1) as f64;
            let (fresh_ops, fresh_failed) = fresh.as_ref().map_or((0, 0), |c| {
                let ops = &c.driven.ops;
                (
                    ops.len() as u64,
                    ops.iter().filter(|o| !o.ok).count() as u64,
                )
            });
            drop(fresh);
            w.attempted += fresh_ops;
            w.failed += fresh_failed;
            let s = if apps {
                trace_app_stream(
                    &mut trace,
                    &mut replayer,
                    &inputs,
                    &w,
                    opts,
                    half,
                    epoch,
                    parallelism,
                )
            } else {
                let u = warm_stream(&mut w, &inputs, half, epoch);
                let before = Counters::read(&w.org, &w.server, &w.providers);
                let t = warm_stream(&mut w, &inputs, half, epoch);
                let counters = Counters::read(&w.org, &w.server, &w.providers).minus(&before);
                replay_fetches(
                    &mut trace,
                    &mut replayer,
                    &inputs,
                    root,
                    &t.ops,
                    scale.warm_replays,
                    &w.org,
                );
                let traced = Window::new(fetch_parts(&t, half), false);
                let untraced = Window::new(fetch_parts(&u, half), false);
                Stream {
                    fetch_lat_ns: traced.lat_ns.clone(),
                    attempted: untraced.ops + traced.ops,
                    failed: untraced.failed + traced.failed,
                    untraced,
                    traced,
                    counters,
                    distinct_urls: inputs.urls.len() as u64,
                    parallelism,
                    apps: None,
                }
            };
            let (a, f) = (w.attempted, w.failed);
            warm = Some(w);
            Stream {
                attempted: s.attempted + a,
                failed: s.failed + f,
                ..s
            }
        }
        Workload::ColdRewrite => {
            let u = cold_passes(opts, 0, half, 1, false, epoch);
            cold = cold_passes(opts, u.len() as u64, half, 1, true, epoch);
            let untraced = cold_window(&u);
            let traced = cold_window(&cold);
            drop(u);
            // Replays need each URL's corpus: only the last pass, whose
            // organization is still up, is replayed.
            let last = cold.last_mut().expect("one traced pass");
            inputs = last.inputs.take().expect("newest pass keeps its corpus");
            let last = cold.last().expect("one traced pass");
            let last_org = last.org();
            let mut replayer = Replayer::new(&inputs);
            let rewrite_ns = replay_fetches(
                &mut trace,
                &mut replayer,
                &inputs,
                root,
                &last.driven.ops,
                scale.cold_replays,
                last_org,
            );
            // Off the cold path: cache hits on the now-warm organization.
            for i in sample(inputs.urls.len(), scale.warm_replays) {
                let url = &inputs.urls[i];
                if let Some((signed, _)) = last_org.proxy.cache_peek(url) {
                    let mut at = 0;
                    replayer.hit(&mut trace, None, &mut at, &last_org.proxy, url, &signed);
                }
            }
            Stream {
                fetch_lat_ns: traced.lat_ns.clone(),
                attempted: untraced.ops + traced.ops,
                failed: untraced.failed + traced.failed,
                parallelism: rewrite_ns as f64 / last.driven.wall_ns.max(1) as f64,
                untraced,
                traced,
                counters: cold
                    .iter()
                    .fold(Counters::default(), |acc, p| acc.plus(&p.counters)),
                distinct_urls: cold.iter().map(|p| p.driven.ops.len() as u64).sum(),
                apps: None,
            }
        }
    };

    // The app layers: app_run's own stream, or else one round of the
    // seeded applets on the warm organization.
    let (mut attempted, mut failed) = (stream.attempted, stream.failed);
    let apps = match stream.apps.take() {
        Some(a) => a,
        None => {
            let (org, server) = match (&warm, cold.last()) {
                (Some(w), _) => (&w.org, &w.server),
                (None, Some(p)) => {
                    let (_, server, org) = p.env.as_ref().expect("newest pass stays up");
                    (org, server)
                }
                (None, None) => unreachable!("every workload keeps an organization"),
            };
            let packages = ir_packages(server.addr(), &inputs);
            let (mut runs, mut which) = (Vec::new(), Vec::new());
            for (a, app) in inputs.apps.iter().enumerate() {
                let reference = stack::reference_run(org, app);
                runs.push(stack::app_run(
                    org,
                    server.addr(),
                    app,
                    true,
                    Some(&reference),
                    epoch,
                ));
                which.push(a);
            }
            trace_app_runs(&mut trace, &runs, &which, &packages)
        }
    };
    attempted += apps.runs;
    failed += apps.failed;
    let interp_ns = interpreter_exec_ns(&inputs, epoch);

    let metrics = layer_metrics(&trace, &stream, &apps, interp_ns);
    std::fs::create_dir_all(out_dir)?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    trace.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))?;
    let summary =
        crate::report::summary_json(&trace, root, &metrics, &stream.untraced, &stream.traced);
    std::fs::write(out_dir.join(format!("{stem}.summary.json")), summary)?;
    let notes = vec![format!(
        "{} spans; untraced {:.1} ops/s p50 {:.1} us, traced {:.1} ops/s p50 {:.1} us",
        trace.spans.len(),
        stream.untraced.ops_per_s(),
        stream.untraced.p50_us(),
        stream.traced.ops_per_s(),
        stream.traced.p50_us()
    )];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
        trace: Some(trace),
    })
}

/// app_run's traced stream: rounds of app runs (untraced, then traced
/// with load and execute split), and its class loads replayed as one
/// client's fetch stream for the fetch layers.
#[allow(clippy::too_many_arguments)]
fn trace_app_stream(
    trace: &mut Trace,
    replayer: &mut Replayer,
    inputs: &Inputs,
    w: &Warm,
    opts: &Options,
    half: Duration,
    epoch: Instant,
    parallelism: f64,
) -> Stream {
    let packages = ir_packages(w.server.addr(), inputs);
    let (_, _, untraced) = app_rounds(w, inputs, opts.seed, half, false, epoch);
    let before = Counters::read(&w.org, &w.server, &[]);
    let (t, which, traced) = app_rounds(w, inputs, opts.seed, half, true, epoch);
    let mut counters = Counters::read(&w.org, &w.server, &[]).minus(&before);
    let apps = trace_app_runs(trace, &t, &which, &packages);
    counters.client_retries = apps.client_retries;

    let mut p = stack::provider(w.server.addr(), "replay");
    let order: Vec<usize> = (0..inputs.urls.len()).collect();
    let expected = &w.expected;
    let fetches = stack::drive(
        std::slice::from_mut(&mut p),
        &[order],
        &inputs.urls,
        Length::Once,
        false,
        epoch,
        &|i, pl| pl == expected[i].as_slice(),
    );
    replay_fetches(
        trace,
        replayer,
        inputs,
        "net.fetch",
        &fetches.ops,
        opts.scale.warm_replays,
        &w.org,
    );
    let fetch = Window::new(
        vec![Part::of_fetches(
            fetches.ops.iter(),
            fetches.wall_ns,
            Usage::default(),
        )],
        true,
    );
    Stream {
        fetch_lat_ns: fetch.lat_ns,
        attempted: untraced.ops + fetch.ops,
        failed: untraced.failed + fetch.failed,
        untraced,
        traced,
        counters,
        distinct_urls: inputs.urls.len() as u64,
        parallelism,
        apps: Some(apps),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, from the spans, the counters and the app
/// layers of one traced run.
fn layer_metrics(trace: &Trace, s: &Stream, apps: &AppLayers, interp_ns: u64) -> Vec<Metric> {
    let p50 = |name: &str| percentile(&trace.durations(name), 0.5) as f64;
    let us = |name: &str| p50(name) / 1e3;
    let ms = |name: &str| p50(name) / 1e6;
    let c = &s.counters;
    let overhead = (s.traced.p50_us() - s.untraced.p50_us()) / s.untraced.p50_us().max(1e-9);
    vec![
        Metric::new(
            "net.fetch_us",
            percentile(&s.fetch_lat_ns, 0.5) as f64 / 1e3,
        ),
        Metric::new("net.frame.encode_us", us("net.frame.encode")),
        Metric::new("net.frame.decode_us", us("net.frame.decode")),
        Metric::new("net.residual_us", trace.self_p50("net.fetch") as f64 / 1e3),
        Metric::new("net.client.retries", c.client_retries as f64),
        Metric::new("net.server.overload_rejects", c.overload_rejects as f64),
        Metric::new(
            "reactor.events_per_fetch",
            ratio(c.reactor_events, c.requests),
        ),
        Metric::new(
            "reactor.loop_iterations_per_fetch",
            ratio(c.reactor_loops, c.requests),
        ),
        Metric::new("reactor.backpressure_stalls", c.backpressure_stalls as f64),
        Metric::new("proxy.serve_hit_us", us("proxy.serve_hit")),
        Metric::new("proxy.cache.get_us", us("proxy.cache.get")),
        Metric::new("proxy.md5.ir_key_us", us("proxy.md5.ir_key")),
        Metric::new("proxy.sign.detach_us", us("proxy.sign.detach")),
        Metric::new("proxy.rewrite_us", us("proxy.rewrite")),
        Metric::new("proxy.sign.attach_us", us("proxy.sign.attach")),
        Metric::new("proxy.cache.put_us", us("proxy.cache.put")),
        Metric::new("proxy.cache.hit_ratio", ratio(c.memory_hits, c.requests)),
        Metric::new(
            "proxy.cache.evictions_per_put",
            ratio(c.evictions, c.rewrites + c.ir_compiles),
        ),
        Metric::new("proxy.rewrites_per_url", ratio(c.rewrites, s.distinct_urls)),
        Metric::new("proxy.rewrite_parallelism", s.parallelism),
        Metric::new("classfile.parse_us", us("classfile.parse")),
        Metric::new("classfile.write_us", us("classfile.write")),
        Metric::new("verifier.verify_us", us("verifier.verify")),
        Metric::new("security.rewrite_us", us("security.rewrite")),
        Metric::new("monitor.audit_us", us("monitor.audit")),
        Metric::new("exec.compile_us", us("exec.compile")),
        Metric::new("exec.decode_us", us("exec.decode")),
        Metric::new(
            "exec.ir_share",
            ratio(
                apps.ir_invocations,
                apps.ir_invocations + apps.interp_invocations,
            ),
        ),
        Metric::new("exec.ir_wall_ratio", ratio(interp_ns, apps.first_exec_ns)),
        Metric::new("core.client_connect_ms", ms("core.client_connect")),
        Metric::new("jvm.load_ms", ms("jvm.load")),
        Metric::new("jvm.execute_ms", ms("jvm.execute")),
        Metric::new(
            "jvm.instructions_per_run",
            ratio(apps.instructions, apps.runs),
        ),
        Metric::new("net.fetches_per_run", ratio(apps.client_fetches, apps.runs)),
        Metric::new("trace.overhead_pct", overhead * 100.0),
    ]
}
