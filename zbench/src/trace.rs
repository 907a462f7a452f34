//! In-memory spans recorded around the benchmark's calls into each
//! layer of the toolchain.
//!
//! A span has a name (`layer.call`), the workload and design it served,
//! its start and end, the span that caused it, the iteration it belongs
//! to, and counts attached at the same boundary. Spans stay in memory
//! and are written out once, when the run ends. With tracing off,
//! [`Tracer::span`] only times its closure, so end-to-end figures are
//! measured without the recording cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// What an iteration of the run was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One measured pass of the named stage over the workload's designs.
    Pass(&'static str),
    /// One set-up: input generation, compilation, fault-list build.
    Setup,
    /// An outside probe of a layer whose calls are opaque in the passes.
    Probe,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Pass(stage) => stage,
            Kind::Setup => "setup",
            Kind::Probe => "probe",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub design: &'static str,
    pub iter: usize,
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The sum of the counts named `key` attached to the span.
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for one run.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    on: bool,
    /// Each iteration's kind and whether it was traced.
    iters: Vec<(Kind, bool)>,
    /// The iteration new spans belong to.
    cur: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            on: false,
            iters: Vec::new(),
            cur: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new iteration, traced or not; later spans belong to it.
    /// Returns its index for [`Tracer::resume`].
    pub fn begin(&mut self, kind: Kind, on: bool) -> usize {
        self.on = on;
        self.iters.push((kind, on));
        self.cur = self.iters.len() - 1;
        self.cur
    }

    /// Excludes an iteration from the per-layer figures (its spans are
    /// still written out).
    pub fn discard(&mut self, iter: usize) {
        self.iters[iter].1 = false;
    }

    /// Continues an earlier iteration: later spans belong to it again.
    pub fn resume(&mut self, iter: usize) {
        self.cur = iter;
        self.on = self.iters[iter].1;
    }

    /// Runs `f` inside a span and returns its result with the wall time
    /// it took, in seconds. The duration is measured the same way with
    /// tracing on or off.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        design: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.on {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            design,
            iter: self.cur,
            parent: self.open.last().copied(),
            start,
            end: start,
            counts: Vec::new(),
        });
        self.open.push(idx);
        let t = Instant::now();
        let r = f(self);
        let dt = t.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        (r, dt)
    }

    /// Attaches a count to the innermost open span (no-op when off).
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&i) = self.open.last() {
            if self.on {
                self.spans[i].counts.push((key, value));
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The typical per-run amount of `value(span)` over the spans
    /// `select` picks. Selected spans are summed per traced iteration.
    /// Stage passes come first: the median over each stage's traced
    /// passes, summed over the stages in which a selected span occurs
    /// (one pass of every stage). Failing that, the median over traced
    /// set-ups, then over probes; 0 when no selected span exists.
    pub fn typical(
        &self,
        select: impl Fn(&Span) -> bool,
        value: impl Fn(usize, &Span) -> f64,
    ) -> f64 {
        let mut sums = vec![0.0; self.iters.len()];
        let mut hit = vec![false; self.iters.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if select(s) {
                sums[s.iter] += value(i, s);
                hit[s.iter] = true;
            }
        }
        // Per group (stage, set-up, probe): the traced sums, and whether
        // any of them holds a selected span.
        let mut groups: BTreeMap<(u8, &str), (Vec<f64>, bool)> = BTreeMap::new();
        for (it, &(kind, traced)) in self.iters.iter().enumerate() {
            if traced {
                let rank = match kind {
                    Kind::Pass(_) => 0,
                    Kind::Setup => 1,
                    Kind::Probe => 2,
                };
                let g = groups.entry((rank, kind.name())).or_default();
                g.0.push(sums[it]);
                g.1 |= hit[it];
            }
        }
        let hits: Vec<(u8, f64)> = groups
            .iter()
            .filter(|(_, (_, h))| *h)
            .map(|((rank, _), (v, _))| (*rank, median(v)))
            .collect();
        let Some(&(best, _)) = hits.iter().min_by_key(|(rank, _)| *rank) else {
            return 0.0;
        };
        hits.iter()
            .filter(|(rank, _)| *rank == best)
            .map(|(_, v)| v)
            .sum()
    }

    /// Typical time spent in spans named `name`.
    pub fn time(&self, name: &str) -> f64 {
        self.typical(|s| s.name == name, |_, s| s.duration())
    }

    /// Typical total of count `key` over spans named `name`.
    pub fn total(&self, name: &str, key: &str) -> f64 {
        self.typical(|s| s.name == name, |_, s| s.count(key))
    }

    /// Typical self time of a layer: each span's duration minus the
    /// part of it that its child spans cover.
    pub fn self_time(&self, layer: &str) -> f64 {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.typical(|s| s.layer() == layer, |i, s| s.duration() - child[i])
    }

    /// The spans as JSON, one object per span.
    pub fn to_json(&self, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [",
            self.workload
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"design\": \"{}\", \
                 \"iter\": {}, \"kind\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \
                 \"counts\": {{",
                s.name,
                self.workload,
                s.design,
                s.iter,
                self.iters[s.iter].0.name(),
                s.start,
                s.end
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}\"{k}\": {v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new("t");
        tr.begin(Kind::Pass("opt"), true);
        tr.span("bench.op", "d", |tr| {
            tr.span("opt.optimize", "d", |tr| {
                tr.count("rewrites", 3.0);
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let total = tr.time("bench.op");
        let inner = tr.time("opt.optimize");
        assert!(inner >= 0.005 && total >= inner);
        let harness = tr.self_time("bench");
        assert!((harness - (total - inner)).abs() < 1e-9);
        assert_eq!(tr.total("opt.optimize", "rewrites"), 3.0);
        assert_eq!(tr.time("sat.solve"), 0.0);
    }

    #[test]
    fn typical_sums_stage_medians_and_skips_untraced_passes() {
        let mut tr = Tracer::new("t");
        let a = tr.begin(Kind::Pass("a"), true);
        tr.span("x.y", "d", |tr| tr.count("n", 1.0));
        tr.begin(Kind::Pass("a"), false);
        tr.span("x.y", "d", |tr| tr.count("n", 99.0));
        tr.begin(Kind::Pass("a"), true);
        tr.span("x.y", "d", |tr| tr.count("n", 3.0));
        tr.begin(Kind::Pass("b"), true);
        tr.span("x.y", "d", |tr| tr.count("n", 5.0));
        // A pass resumed later keeps adding to its own iteration.
        tr.resume(a);
        tr.span("x.y", "d", |tr| tr.count("n", 2.0));
        tr.begin(Kind::Setup, true);
        tr.span("x.y", "d", |tr| tr.count("n", 1000.0));
        // Stage "a": median of its traced passes (3 and 3); stage "b": 5.
        assert_eq!(tr.total("x.y", "n"), 3.0 + 5.0);
    }

    #[test]
    fn untraced_spans_are_timed_but_not_recorded() {
        let mut tr = Tracer::new("t");
        tr.begin(Kind::Pass("opt"), false);
        let (v, dt) = tr.span("bench.op", "d", |tr| {
            tr.count("x", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
