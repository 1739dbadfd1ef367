//! In-memory spans for the traced run, written out at exit.
//!
//! A root span covers one operation of the workload's stream (a fetch or
//! an app run) and is timed live. Its children are either timed live
//! too (an app run's connect, load and execute) or *replayed*: the
//! same public call on the same input, timed on its own after the
//! stream, and laid end to end from the start of its parent. A replayed
//! child keeps its measured duration; only its position is assigned.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::stats::percentile;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id; 0 is "no parent".
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    /// Shared by every span of one request (the root's id).
    pub request: u32,
    /// Layer call, e.g. `proxy.cache.get`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns (wall clock).
    pub dur_ns: u64,
}

impl Span {
    /// End of the span, ns since the run's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Per-layer figures over one traced run.
#[derive(Debug, Clone)]
pub struct LayerSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Median duration, ns.
    pub p50_ns: u64,
    /// Median self time (duration minus the part children cover), ns.
    pub self_p50_ns: u64,
    /// Σ self time of spans under a workload root ÷ Σ root durations.
    pub share_of_root: f64,
}

/// The span store.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in recording order; a parent precedes its children.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a root span and returns its id.
    pub fn root(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.push(Span {
            id,
            parent: 0,
            request: id,
            name,
            start_ns,
            dur_ns,
        })
    }

    /// Records a child of `parent` at an explicit position.
    pub fn child(&mut self, parent: u32, name: &'static str, start_ns: u64, dur_ns: u64) -> u32 {
        let request = self.get(parent).request;
        let id = self.spans.len() as u32 + 1;
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            dur_ns,
        })
    }

    /// Records a replayed child of `parent` at `*at`, then advances `*at`
    /// past it (children laid end to end).
    pub fn lay(&mut self, parent: u32, name: &'static str, at: &mut u64, dur_ns: u64) -> u32 {
        let id = self.child(parent, name, *at, dur_ns);
        *at += dur_ns;
        id
    }

    fn push(&mut self, span: Span) -> u32 {
        let id = span.id;
        self.spans.push(span);
        id
    }

    /// The span with id `id`.
    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Every duration recorded under `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Self time of every span, indexed like `spans`: its duration minus
    /// the union of its children's intervals clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns()));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns()));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns - covered
            })
            .collect()
    }

    /// Median self time of the spans named `name`.
    pub fn self_p50(&self, name: &str) -> u64 {
        let selfs = self.self_times();
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .collect();
        v.sort_unstable();
        percentile(&v, 0.5)
    }

    /// Per-layer count, p50, self time and share of the `root`-named
    /// workload roots, by span name.
    pub fn summary(&self, root: &str) -> Vec<LayerSummary> {
        let selfs = self.self_times();
        let under_root = |s: &Span| self.get(s.request).name == root;
        let root_total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == root)
            .map(|s| s.dur_ns)
            .sum();
        let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>, u64)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur_ns);
            e.1.push(own);
            if under_root(s) {
                e.2 += own;
            }
        }
        by_name
            .into_iter()
            .map(|(name, (mut durs, mut owns, rooted))| {
                durs.sort_unstable();
                owns.sort_unstable();
                LayerSummary {
                    name,
                    count: durs.len(),
                    p50_ns: percentile(&durs, 0.5),
                    self_p50_ns: percentile(&owns, 0.5),
                    share_of_root: if root_total == 0 {
                        0.0
                    } else {
                        rooted as f64 / root_total as f64
                    },
                }
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Trace::default();
        let r = t.root("root", 100, 100);
        let mut at = 100;
        t.lay(r, "a", &mut at, 30);
        let b = t.lay(r, "b", &mut at, 20);
        t.child(b, "c", 130, 5);
        let selfs = t.self_times();
        assert_eq!(selfs, vec![50, 30, 15, 5]);
        let sum = t.summary("root");
        let share: f64 = sum.iter().map(|l| l.share_of_root).sum();
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn children_outside_the_parent_do_not_count() {
        let mut t = Trace::default();
        let r = t.root("root", 0, 10);
        t.child(r, "late", 8, 10);
        assert_eq!(t.self_times()[0], 8);
    }
}
