//! zbench: the Zeus toolchain benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path zbench/Cargo.toml -- \
//!     --workload flow|grade|atpg --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `benchmarks/*.znl`). One
//! process, one thread: the toolchain is driven in-process through its
//! public crate APIs, each campaign with a single worker.
//!
//! A run sets up its inputs several times (reporting the median set-up
//! time), then runs the workload's stages — compile, optimize, simulate,
//! grade, ATPG — until `--seconds` of measured work has accumulated and
//! every stage has completed a pass. A pass runs one unit per design (per
//! design and seed for ATPG) and is one sample. Between units, reference
//! samples ([`speed`]) track the machine's drifting speed, and each
//! unit's time is scaled by the samples taken around it. After one whole
//! pass of each stage but ATPG, repetitions give every stage at least
//! [`MIN_STAGE_S`] of units in turn, so cheap stages collect many samples
//! and long passes interleave with the others rather than leaving them a
//! single window of the machine's drifting speed. Each stage's first pass
//! is checked against a reference from outside the code under test,
//! outside every timed span; every later pass must reproduce its outputs
//! and work counts exactly.
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics. With `--trace 1` each stage alternates untraced
//! and traced passes, outside probes of the packed core and the SAT
//! solver run at the end, the spans are written to `zbench-out/`, and the
//! JSON carries the per-layer metrics with self times and the tracing
//! overhead.

mod designs;
mod pipeline;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use designs::{workload, Workload, NAMES};
use pipeline::{Ops, Output, Pass, Prepared};
use speed::{Speed, REF_S};
use stats::{high_percentile, median};
use trace::{Kind, Tracer};
use zeus::StableHasher;

/// Set-ups per run, at least [`SETUPS`] and for at least [`SETUP_S`]
/// seconds; `setup_s` is their median.
const SETUPS: usize = 5;
const SETUP_S: f64 = 0.5;
/// Minimum time each stage runs per repetition, in seconds.
const MIN_STAGE_S: f64 = 0.2;
/// The run stops after a repetition that could carry it past this many
/// seconds, complete or not.
const MAX_WALL_S: f64 = 140.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}; got '{}'",
            NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The stages of a repetition, in order; the discriminant indexes
/// [`STAGES`] and the per-stage logs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Compile,
    Opt,
    Sim,
    Grade,
    Atpg,
}

const STAGES: [Stage; 5] = [
    Stage::Compile,
    Stage::Opt,
    Stage::Sim,
    Stage::Grade,
    Stage::Atpg,
];

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::Opt => "opt",
            Stage::Sim => "sim",
            Stage::Grade => "grade",
            Stage::Atpg => "atpg",
        }
    }
}

/// Every pass of one stage, with whether it was traced.
#[derive(Default)]
struct Log {
    passes: Vec<(bool, Pass)>,
}

impl Log {
    fn first(&self) -> Option<&Pass> {
        self.passes.first().map(|(_, p)| p)
    }

    fn times(&self, traced: bool) -> Vec<f64> {
        self.passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p.time)
            .collect()
    }

    /// The untraced pass times, scaled to the reference speed.
    fn scaled(&self, speed: &Speed) -> Vec<f64> {
        self.passes
            .iter()
            .filter(|(t, _)| !*t)
            .map(|(_, p)| scaled(p, speed))
            .collect()
    }

    /// The untraced passes' work per second at the reference speed.
    fn rates(&self, speed: &Speed) -> Vec<f64> {
        let work = self.passes.iter().filter(|(t, _)| !*t).map(|(_, p)| p.work);
        let times = self.scaled(speed);
        work.zip(times).map(|(w, t)| w / t.max(1e-12)).collect()
    }

    fn count(&self, key: &str) -> f64 {
        self.first()
            .and_then(|p| p.counts.get(key).copied())
            .unwrap_or(0.0)
    }
}

/// A pass's time with each unit scaled to the reference speed by the
/// samples taken around it.
fn scaled(p: &Pass, speed: &Speed) -> f64 {
    let unit = |&(dt, from, to): &(f64, f64, f64)| dt * speed.factor(from, to);
    p.units.iter().map(unit).sum()
}

/// A stage pass whose units are still running.
struct Open {
    iter: usize,
    traced: bool,
    next: usize,
    pass: Pass,
    hash: StableHasher,
    outputs: Vec<Output>,
}

/// One stage of the run: its units (design index, ATPG seed), the pass
/// in progress, and every completed pass.
struct StageRun {
    units: Vec<(usize, u64)>,
    open: Option<Open>,
    log: Log,
}

/// Runs stage passes unit by unit, so a long pass (ATPG, the scaled
/// designs' optimization) interleaves with the other stages' passes
/// instead of hiding them for its whole length.
struct Runner<'a> {
    tr: Tracer,
    speed: Speed,
    ops: Ops,
    ps: &'a [Prepared],
    stages: Vec<StageRun>,
    trace: bool,
    /// Total time of the units run so far, and of the reference samples
    /// between them.
    measured: f64,
    /// The first opt pass's designs, which the sim stage simulates.
    optimized: Vec<Option<zeus::Design>>,
    /// The first ATPG pass's reports, for the SAT probe.
    atpg: Vec<(usize, zeus::AtpgReport)>,
}

impl<'a> Runner<'a> {
    fn new(tr: Tracer, speed: Speed, ps: &'a [Prepared], trace: bool) -> Runner<'a> {
        let stages = STAGES
            .iter()
            .map(|&stage| {
                let units = ps
                    .iter()
                    .enumerate()
                    .flat_map(|(i, p)| {
                        let seeds: Vec<u64> = match stage {
                            Stage::Compile | Stage::Opt | Stage::Sim if p.role.flow => vec![0],
                            Stage::Grade if p.role.grade => vec![0],
                            Stage::Atpg => p.atpg_seeds.clone(),
                            _ => Vec::new(),
                        };
                        seeds.into_iter().map(move |k| (i, k))
                    })
                    .collect();
                StageRun {
                    units,
                    open: None,
                    log: Log::default(),
                }
            })
            .collect();
        Runner {
            tr,
            speed,
            ops: Ops::default(),
            ps,
            stages,
            trace,
            measured: 0.0,
            optimized: Vec::new(),
            atpg: Vec::new(),
        }
    }

    /// Runs units of `stage` for at least `budget` seconds, or, with no
    /// budget, to the end of its current pass.
    fn advance(&mut self, stage: Stage, budget: Option<f64>) {
        let mut spent = 0.0;
        while !self.stages[stage as usize].units.is_empty() {
            let (dt, done) = self.unit(stage);
            spent += dt;
            if let Some(Open {
                traced,
                mut pass,
                hash,
                outputs,
                ..
            }) = done
            {
                pass.digest = hash.finish();
                let run = &self.stages[stage as usize];
                match run.log.first() {
                    Some(first) => {
                        let check = check_repeat(stage, first, &pass);
                        self.ops.record(check);
                    }
                    None => {
                        let units = run.units.clone();
                        self.first_pass(&units, outputs);
                    }
                }
                self.stages[stage as usize].log.passes.push((traced, pass));
                if budget.is_none() {
                    return;
                }
            }
            if budget.is_some_and(|b| spent >= b) {
                return;
            }
        }
    }

    /// Runs the next unit of `stage`'s pass, opening a pass if none is
    /// open. Returns the unit's time and, when it was the pass's last
    /// unit, the finished pass.
    fn unit(&mut self, stage: Stage) -> (f64, Option<Open>) {
        let run = &mut self.stages[stage as usize];
        let open = match &mut run.open {
            Some(o) => {
                self.tr.resume(o.iter);
                o
            }
            None => {
                // Traced runs alternate untraced and traced passes of
                // each stage, so both see the same machine conditions.
                let traced = self.trace && run.log.passes.len() % 2 == 1;
                run.open.insert(Open {
                    iter: self.tr.begin(Kind::Pass(stage.name()), traced),
                    traced,
                    next: 0,
                    pass: Pass::default(),
                    hash: StableHasher::new(),
                    outputs: Vec::new(),
                })
            }
        };
        let (d, seed) = run.units[open.next];
        let (tr, ops, p) = (&mut self.tr, &mut self.ops, &self.ps[d]);
        let (pass, h) = (&mut open.pass, &mut open.hash);
        let before = pass.time;
        let start = self.speed.now();
        let out = match stage {
            Stage::Compile => pipeline::compile_unit(tr, ops, p, pass, h),
            Stage::Opt => pipeline::opt_unit(tr, ops, p, pass, h),
            Stage::Sim => {
                let o = self.optimized.get(open.next).and_then(Option::as_ref);
                pipeline::sim_unit(tr, ops, p, o, pass, h)
            }
            Stage::Grade => pipeline::grade_unit(tr, ops, p, pass, h),
            Stage::Atpg => pipeline::atpg_unit(tr, ops, p, seed, pass, h),
        };
        let dt = pass.time - before;
        pass.units.push((dt, start, self.speed.now()));
        self.measured += dt + self.speed.keep_up(dt);
        open.outputs.push(out);
        open.next += 1;
        let finished = open.next == run.units.len();
        (dt, if finished { run.open.take() } else { None })
    }

    /// Holds a stage's first pass against its reference, outside every
    /// timed span, and keeps what later stages and probes need.
    fn first_pass(&mut self, units: &[(usize, u64)], outputs: Vec<Output>) {
        for (i, (&(d, _), out)) in units.iter().zip(outputs).enumerate() {
            let p = &self.ps[d];
            let check = match out {
                Output::Optimized(o) => {
                    self.optimized.push(o);
                    continue;
                }
                Output::Trace(digest) => match self.optimized.get(i).and_then(Option::as_ref) {
                    Some(o) => pipeline::lockstep(p, o).and_then(|want| {
                        (want == digest).then_some(()).ok_or_else(|| {
                            format!("{}: sim trace differs from the lockstep's", p.spec.label)
                        })
                    }),
                    None => continue,
                },
                Output::Campaign(Some(r)) => pipeline::check_grade(p, &r),
                Output::Atpg(Some(r)) => {
                    let c = pipeline::check_atpg(p, &r);
                    self.atpg.push((d, r));
                    c
                }
                Output::Campaign(None) | Output::Atpg(None) | Output::Nothing => continue,
            };
            self.ops.record(check);
        }
    }

    /// Drops the traced samples of passes left unfinished when the run
    /// stops.
    fn close(&mut self) {
        for run in &mut self.stages {
            if let Some(o) = run.open.take() {
                self.tr.discard(o.iter);
            }
        }
    }

    fn logs(&self) -> Vec<&Log> {
        self.stages.iter().map(|r| &r.log).collect()
    }
}

/// Every later pass must reproduce the first pass's outputs and counts.
fn check_repeat(stage: Stage, first: &Pass, pass: &Pass) -> Result<(), String> {
    if first.digest != pass.digest {
        return Err(format!("{}: outputs differ between passes", stage.name()));
    }
    if first.counts != pass.counts {
        return Err(format!(
            "{}: work counts differ between passes: {:?} vs {:?}",
            stage.name(),
            first.counts,
            pass.counts
        ));
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_seeds(w: &Workload, seed: u64, ps: &[Prepared]) {
    println!("workload {} seed {seed}", w.name);
    for p in ps {
        let atpg: Vec<String> = p.atpg_seeds.iter().map(u64::to_string).collect();
        println!(
            "  seeds {}: sim={} grade={} atpg=[{}]",
            p.spec.label,
            p.sim_seed,
            p.grade_seed,
            atpg.join(",")
        );
    }
}

/// A timing summary: median, sample count, and the highest percentile
/// with at least ten samples beyond it.
fn describe(name: &str, unit: &str, xs: &[f64]) {
    let (p, v) = high_percentile(xs);
    println!(
        "  {name} = {:.6} {unit} (median of {} samples; p{p} = {v:.6})",
        median(xs),
        xs.len()
    );
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    out.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn end_to_end(logs: &[&Log], setups: &[(f64, f64, f64)], speed: &Speed) -> Vec<Metric> {
    let log = |s: Stage| logs[s as usize];
    let mut m = Vec::new();
    let kernel = speed.times();
    println!(
        "reference samples: median {:.6} s over {} (quartiles {:.6}, {:.6}); \
         timings below are scaled to a sample time of {REF_S} s, the wall clock in brackets",
        median(&kernel),
        kernel.len(),
        stats::quantile(&kernel, 0.25),
        stats::quantile(&kernel, 0.75),
    );
    println!("end-to-end (untraced passes):");
    let mut timing = |name: &'static str, unit: &'static str, xs: &[f64], wall: &[f64]| {
        describe(name, unit, xs);
        println!("    [wall clock: median {:.6} {unit}]", median(wall));
        metric(&mut m, name, unit, median(xs));
    };
    let times = |s: Stage| (log(s).scaled(speed), log(s).times(false));
    let raw_rates = |s: Stage| {
        let l = log(s);
        let ps = l.passes.iter().filter(|(t, _)| !*t);
        ps.map(|(_, p)| p.work / p.time.max(1e-12))
            .collect::<Vec<_>>()
    };
    let (x, w) = times(Stage::Compile);
    timing("compile_s", "s", &x, &w);
    let (x, w) = times(Stage::Opt);
    timing("opt_s", "s", &x, &w);
    let (sim, grade) = (Stage::Sim, Stage::Grade);
    timing(
        "sim_cycles_per_s",
        "1/s",
        &log(sim).rates(speed),
        &raw_rates(sim),
    );
    timing(
        "grade_fault_vectors_per_s",
        "1/s",
        &log(grade).rates(speed),
        &raw_rates(grade),
    );
    let (x, w) = times(Stage::Atpg);
    timing("atpg_s", "s", &x, &w);
    let scaled: Vec<f64> = setups
        .iter()
        .map(|&(dt, from, to)| dt * speed.factor(from, to))
        .collect();
    let wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
    timing("setup_s", "s", &scaled, &wall);
    let (opt, atpg) = (log(Stage::Opt), log(Stage::Atpg));
    metric(
        &mut m,
        "opt_gates_after",
        "gates",
        opt.count("opt_gates_after"),
    );
    metric(
        &mut m,
        "opt_depth_after",
        "levels",
        opt.count("opt_depth_after"),
    );
    let cov = ratio(atpg.count("atpg.detected"), atpg.count("atpg.testable"));
    metric(&mut m, "atpg_testable_coverage", "fraction", cov);
    metric(
        &mut m,
        "atpg_vectors",
        "vectors",
        atpg.count("atpg_vectors"),
    );
    metric(&mut m, "peak_rss_mb", "MB", peak_rss_mb());
    m
}

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 11] = [
    "syntax", "sema", "elab", "netlist", "opt", "sim", "packed", "fault", "atpg", "sat", "bench",
];

/// Per-layer metrics read straight off the spans: `(metric, unit, span,
/// count)`, where an empty count means the span's time.
const SPAN_METRICS: [(&str, &str, &str, &str); 35] = [
    ("syntax.parse_s", "s", "syntax.parse", ""),
    ("sema.check_s", "s", "sema.check", ""),
    ("elab.elaborate_s", "s", "elab.elaborate", ""),
    ("elab.nodes", "count", "elab.elaborate", "nodes"),
    ("elab.nets", "count", "elab.elaborate", "nets"),
    ("netlist.export_s", "s", "netlist.export", ""),
    ("netlist.import_s", "s", "netlist.import", ""),
    ("netlist.bytes", "bytes", "netlist.export", "bytes"),
    ("opt.optimize_s", "s", "opt.optimize", ""),
    ("opt.metrics_s", "s", "opt.metrics", ""),
    ("opt.iterations", "count", "opt.optimize", "iterations"),
    ("opt.rewrites", "count", "opt.optimize", "rewrites"),
    ("sim.step_s", "s", "sim.step", ""),
    ("sim.cycles", "count", "bench.sim", "cycles"),
    ("sim.conflicts", "count", "bench.sim", "conflicts"),
    ("packed.step_s", "s", "packed.step", ""),
    (
        "packed.node_words",
        "count",
        "bench.packed_probe",
        "node_words",
    ),
    ("fault.enumerate_s", "s", "fault.enumerate", ""),
    ("fault.faults", "count", "fault.campaign", "faults"),
    ("fault.collapsed", "count", "fault.enumerate", "collapsed"),
    ("fault.words", "count", "fault.campaign", "words"),
    ("fault.campaign_s", "s", "fault.campaign", ""),
    ("atpg.run_s", "s", "atpg.run", ""),
    (
        "atpg.harvest_rounds",
        "count",
        "atpg.run",
        "atpg.harvest_rounds",
    ),
    (
        "atpg.podem_attempts",
        "count",
        "atpg.run",
        "atpg.podem_attempts",
    ),
    (
        "atpg.podem_aborted",
        "count",
        "atpg.run",
        "atpg.podem_aborted",
    ),
    (
        "atpg.compaction_removed",
        "count",
        "atpg.run",
        "atpg.compaction_removed",
    ),
    ("sat.solves", "count", "atpg.run", "sat.solves"),
    ("sat.unknown", "count", "atpg.run", "sat.unknown"),
    ("sat.promoted", "count", "atpg.run", "sat.promoted"),
    ("sat.rescued", "count", "atpg.run", "sat.rescued"),
    ("sat.encode_s", "s", "sat.encode", ""),
    ("sat.solve_s", "s", "sat.solve", ""),
    ("sat.conflicts", "count", "sat.solve", "conflicts"),
    ("sat.clauses", "count", "sat.encode", "clauses"),
];

fn per_layer(tr: &Tracer, logs: &[&Log], speed: &Speed) -> Vec<Metric> {
    let mut m = Vec::new();
    for (name, unit, span, key) in SPAN_METRICS {
        let v = if key.is_empty() {
            tr.time(span)
        } else {
            tr.total(span, key)
        };
        metric(&mut m, name, unit, v);
    }
    // Ratios, each with its base.
    for (name, label) in [
        ("opt.s_per_kgate.ripple4", "rippleCarry4p"),
        ("opt.s_per_kgate.ripple512", "ripple512"),
        ("opt.s_per_kgate.routing8", "routing8"),
        ("opt.s_per_kgate.routing32", "routing32"),
    ] {
        let pick = |s: &trace::Span| s.name == "opt.optimize" && s.design == label;
        let secs = tr.typical(pick, |_, s| s.end - s.start);
        let gates = tr.typical(pick, |_, s| s.count("gates_before"));
        metric(&mut m, name, "s/kgate", ratio(secs, gates / 1000.0));
    }
    let node_words = tr.total("bench.packed_probe", "node_words");
    let rate = ratio(node_words, tr.time("packed.step"));
    metric(&mut m, "packed.node_words_per_s", "1/s", rate);
    let detected = tr.total("fault.campaign", "detected");
    let frac = ratio(detected, tr.total("fault.campaign", "faults"));
    metric(&mut m, "fault.detected_frac", "fraction", frac);
    let podem = |k: &str| tr.total("atpg.run", k);
    let yield_ = ratio(podem("atpg.podem_detected"), podem("atpg.podem_attempts"));
    metric(&mut m, "atpg.podem_yield", "fraction", yield_);
    for layer in LAYERS {
        metric(&mut m, format!("{layer}.self_s"), "s", tr.self_time(layer));
    }

    // Tracing overhead. Passes alternate untraced and traced, so each
    // traced pass is compared with the untraced pass just before it,
    // which ran under nearly the same machine conditions, both scaled
    // to the reference speed. A stage's
    // delta is the median over its pairs; the total weighs each stage
    // by its median untraced pass time.
    let (mut on, mut off) = (0.0, 0.0);
    println!("tracing overhead (traced pass vs the untraced pass before it):");
    for (stage, log) in STAGES.iter().zip(logs) {
        let deltas: Vec<f64> = log
            .passes
            .chunks_exact(2)
            .map(|pair| ratio(scaled(&pair[1].1, speed), scaled(&pair[0].1, speed)) - 1.0)
            .collect();
        let (d, u) = (median(&deltas), median(&log.times(false)));
        println!(
            "  {:<8} delta {:+.2}% over {} pairs, untraced pass {u:.6} s",
            stage.name(),
            100.0 * d,
            deltas.len()
        );
        on += u * (1.0 + d);
        off += u;
    }
    let overhead = 100.0 * ratio(on - off, off);
    println!(
        "  total    delta {overhead:+.2}% over {} spans",
        tr.spans().len()
    );
    metric(&mut m, "trace.overhead_pct", "%", overhead);
    metric(&mut m, "trace.spans", "count", tr.spans().len() as f64);
    m
}

fn to_json(ops: &Ops, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload(&args.workload).ok_or("unknown workload")?;
    let mut tr = Tracer::new(w.name);
    let mut speed = Speed::new();

    // Each set-up: its time, and when it started and ended.
    let mut setups: Vec<(f64, f64, f64)> = Vec::new();
    let mut ps = Vec::new();
    while setups.len() < SETUPS || setups.iter().map(|s| s.0).sum::<f64>() < SETUP_S {
        speed.keep_up(0.0);
        tr.begin(Kind::Setup, args.trace);
        let start = speed.now();
        let (r, dt) = tr.span("bench.setup", "", |tr| {
            pipeline::setup(tr, &w.designs, args.seed)
        });
        ps = r?;
        setups.push((dt, start, speed.now()));
        speed.keep_up(dt);
    }
    print_seeds(&w, args.seed, &ps);

    let started = Instant::now();
    let mut r = Runner::new(tr, speed, &ps, args.trace);
    // One whole pass of each stage in order first: the simulator needs
    // the optimizer's output. ATPG, which nothing depends on, starts
    // interleaved with the others.
    for stage in [Stage::Compile, Stage::Opt, Stage::Sim, Stage::Grade] {
        r.advance(stage, None);
    }
    let need = if args.trace { 2 } else { 1 };
    let mut reps = 0;
    loop {
        let rep_started = Instant::now();
        for stage in STAGES {
            r.advance(stage, Some(MIN_STAGE_S));
        }
        reps += 1;
        let rep_s = rep_started.elapsed().as_secs_f64();
        let complete = r
            .stages
            .iter()
            .all(|s| s.units.is_empty() || s.log.passes.len() >= need);
        let out_of_time = started.elapsed().as_secs_f64() + rep_s > MAX_WALL_S;
        if out_of_time || (complete && r.measured >= args.seconds) {
            break;
        }
    }
    r.close();
    println!(
        "{reps} interleaved repetitions, {:.3} s measured",
        r.measured
    );

    let metrics = if args.trace {
        r.tr.begin(Kind::Probe, true);
        pipeline::packed_probe(&mut r.tr, &mut r.ops, &ps);
        let runs: Vec<_> = r.atpg.iter().map(|(d, rep)| (&ps[*d], rep)).collect();
        pipeline::sat_probe(&mut r.tr, &mut r.ops, &runs);
        let m = per_layer(&r.tr, &r.logs(), &r.speed);
        std::fs::create_dir_all("zbench-out").map_err(|e| e.to_string())?;
        let path = format!("zbench-out/trace-{}-{}.json", w.name, args.seed);
        std::fs::write(&path, r.tr.to_json(args.seed)).map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
        m
    } else {
        end_to_end(&r.logs(), &setups, &r.speed)
    };
    println!("metrics:");
    for m in &metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    let ops = &r.ops;
    println!("ops: {} attempted, {} failed", ops.attempted, ops.failed);
    println!("{}", to_json(ops, &metrics));
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|a| run(&a));
    if let Err(e) = result {
        eprintln!("zbench: {e}");
        std::process::exit(2);
    }
}
