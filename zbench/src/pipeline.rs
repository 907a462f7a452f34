//! The calls each stage makes into the toolchain, and the checks that
//! hold their outputs against references from outside the code under
//! test.
//!
//! Every library call runs inside a [`Tracer`] span named after the
//! layer it enters. Each stage's per-design work runs inside a
//! `bench.<stage>` span, whose duration is what the end-to-end figures
//! sum; checks run outside those spans and are never timed.

use std::collections::BTreeMap;

use zeus::{
    design_digest, encode_detection, enumerate_faults, metrics, netlist_from_text, netlist_to_text,
    optimize, run_atpg, run_campaign, run_campaign_packed, AtpgConfig, AtpgMode, AtpgReport,
    CampaignConfig, CoverageReport, Design, EncodeOptions, Engine, Fault, FaultList,
    FaultListOptions, Limits, OptConfig, PackedSim, SatOutcome, Simulator, Solver, StableHasher,
    Value, VectorStream, LANES,
};

use crate::designs::{derive, Role, Source, Spec, GRADE_VECTORS, SIM_CYCLES};
use crate::trace::Tracer;

/// Deterministic work counts of one stage pass, by name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Attempted and failed operations over the whole run.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Records one operation; a failure is reported on stderr.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("zbench: FAILED: {e}");
        }
    }
}

/// One design after set-up.
pub struct Prepared {
    pub spec: &'static Spec,
    pub role: Role,
    /// The input text: Zeus source or a `zeus netlist v1` file.
    pub input: String,
    pub design: Design,
    pub digest: u64,
    pub faults: FaultList,
    pub sim_seed: u64,
    pub grade_seed: u64,
    pub atpg_seeds: Vec<u64>,
}

fn zeus_source(example: &str) -> Result<&'static str, String> {
    zeus::examples::ALL
        .iter()
        .find(|(n, _, _)| *n == example)
        .map(|(_, s, _)| *s)
        .ok_or_else(|| format!("no bundled example '{example}'"))
}

/// The front end: parse, check and elaborate a Zeus program, or import
/// and validate an interchange file.
fn front_end(tr: &mut Tracer, spec: &'static Spec, input: &str) -> Result<Design, String> {
    let label = spec.label;
    match spec.source {
        Source::Zeus { top, args, .. } => {
            let (prog, _) = tr.span("syntax.parse", label, |_| zeus_syntax::parse_program(input));
            let prog = prog.map_err(|e| format!("{label}: parse: {e}"))?;
            let (checked, _) = tr.span("sema.check", label, |_| zeus_sema::check_program(&prog));
            checked.map_err(|e| format!("{label}: check: {e}"))?;
            let (design, _) = tr.span("elab.elaborate", label, |tr| {
                let d = zeus_elab::elaborate_with(&prog, top, args, &Limits::default());
                if let Ok(d) = &d {
                    tr.count("nodes", d.netlist.node_count() as f64);
                    tr.count("nets", d.netlist.net_count() as f64);
                }
                d
            });
            design.map_err(|e| format!("{label}: elaborate: {e}"))
        }
        Source::Netlist { .. } => {
            let (design, _) = tr.span("netlist.import", label, |_| netlist_from_text(input));
            design.map_err(|e| format!("{label}: import: {e}"))
        }
    }
}

/// Reads the inputs, compiles every design and builds the fault lists.
pub fn setup(
    tr: &mut Tracer,
    designs: &[(&'static Spec, Role)],
    seed: u64,
) -> Result<Vec<Prepared>, String> {
    let mut out = Vec::new();
    for &(spec, role) in designs {
        let label = spec.label;
        let input = match spec.source {
            Source::Zeus { example, .. } => zeus_source(example)?.to_string(),
            Source::Netlist { file } => std::fs::read_to_string(file)
                .map_err(|e| format!("{label}: reading {file}: {e}"))?,
        };
        let design = front_end(tr, spec, &input)?;
        let faults = if role.grade || role.atpg > 0 {
            tr.span("fault.enumerate", label, |tr| {
                let l = enumerate_faults(&design, &FaultListOptions::default());
                tr.count("faults", l.faults.len() as f64);
                tr.count("enumerated", l.total_enumerated as f64);
                tr.count("collapsed", l.collapsed as f64);
                l
            })
            .0
        } else {
            FaultList {
                faults: Vec::new(),
                total_enumerated: 0,
                collapsed: 0,
            }
        };
        out.push(Prepared {
            spec,
            role,
            digest: design_digest(&design),
            input,
            design,
            faults,
            sim_seed: derive(seed, label, "sim", 0),
            grade_seed: derive(seed, label, "grade", 0),
            atpg_seeds: (0..role.atpg)
                .map(|k| derive(seed, label, "atpg", k))
                .collect(),
        });
    }
    Ok(out)
}

/// The running totals of one stage pass; each unit adds to them.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Summed duration of the per-unit `bench.<stage>` spans.
    pub time: f64,
    /// Each unit's time, start and end, the last two in
    /// [`crate::speed::Speed::now`] seconds.
    pub units: Vec<(f64, f64, f64)>,
    /// Work completed (cycles, fault-vectors), for rates.
    pub work: f64,
    /// Digest of every output the pass produced, set when it completes.
    pub digest: u64,
    pub counts: Counts,
}

impl Pass {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }
}

/// What a unit produced that the checks or later stages need.
pub enum Output {
    Nothing,
    Optimized(Option<Design>),
    Trace(u64),
    Campaign(Option<CoverageReport>),
    Atpg(Option<AtpgReport>),
}

/// Compile one design: front end, then export and re-import through the
/// interchange format. Checks export → import → export byte identity and
/// that the design matches the set-up's.
pub fn compile_unit(
    tr: &mut Tracer,
    ops: &mut Ops,
    p: &Prepared,
    pass: &mut Pass,
    h: &mut StableHasher,
) -> Output {
    let label = p.spec.label;
    let (res, dt) = tr.span("bench.compile", label, |tr| {
        let d = front_end(tr, p.spec, &p.input)?;
        let (text, _) = tr.span("netlist.export", label, |tr| {
            let t = netlist_to_text(&d);
            tr.count("bytes", t.len() as f64);
            t
        });
        let (back, _) = tr.span("netlist.import", label, |_| netlist_from_text(&text));
        let back = back.map_err(|e| format!("{label}: re-import: {e}"))?;
        Ok::<_, String>((d, text, back))
    });
    pass.time += dt;
    ops.record(res.and_then(|(d, text, back)| {
        pass.add("elab.nodes", d.netlist.node_count() as f64);
        pass.add("elab.nets", d.netlist.net_count() as f64);
        pass.add("netlist.bytes", text.len() as f64);
        h.write_str(&text);
        if netlist_to_text(&back) != text {
            return Err(format!(
                "{label}: export -> import -> export is not byte-identical"
            ));
        }
        if design_digest(&back) != p.digest {
            return Err(format!(
                "{label}: compiled design differs from the set-up's"
            ));
        }
        Ok(())
    }));
    Output::Nothing
}

/// Optimize one design with the default configuration.
pub fn opt_unit(
    tr: &mut Tracer,
    ops: &mut Ops,
    p: &Prepared,
    pass: &mut Pass,
    h: &mut StableHasher,
) -> Output {
    let label = p.spec.label;
    let (res, dt) = tr.span("bench.opt", label, |tr| {
        let (o, _) = tr.span("opt.optimize", label, |tr| {
            let o = optimize(&p.design, &OptConfig::default());
            if let Ok(o) = &o {
                tr.count("gates_before", o.report.before.gates as f64);
                tr.count("iterations", f64::from(o.report.iterations));
                tr.count("rewrites", o.report.total_rewrites() as f64);
            }
            o
        });
        let o = o.map_err(|e| format!("{label}: optimize: {e}"))?;
        let (m, _) = tr.span("opt.metrics", label, |_| metrics(&o.design));
        Ok::<_, String>((o, m))
    });
    pass.time += dt;
    let mut kept = None;
    ops.record(res.and_then(|(o, m)| {
        let r = &o.report;
        pass.add("opt_gates_after", r.after.gates as f64);
        pass.add("opt_depth_after", r.after.depth as f64);
        pass.add("opt.rewrites", r.total_rewrites() as f64);
        pass.add("opt.iterations", f64::from(r.iterations));
        h.write_u64(design_digest(&o.design));
        if m != r.after {
            return Err(format!("{label}: report {:?} != measured {m:?}", r.after));
        }
        if r.after.gates > r.before.gates || r.after.depth > r.before.depth {
            return Err(format!("{label}: optimization made the design worse"));
        }
        kept = Some(o.design);
        Ok(())
    }));
    Output::Optimized(kept)
}

fn value_code(v: Value) -> u64 {
    match v {
        Value::Zero => 0,
        Value::One => 1,
        Value::Undef => 2,
        Value::NoInfl => 3,
    }
}

/// The boolean view of every port of `sim`, as compared between an
/// optimized design and its source.
fn observe(sim: &Simulator, ports: &[String]) -> Vec<Value> {
    ports
        .iter()
        .flat_map(|p| sim.port(p))
        .map(|v| v.to_boolean())
        .collect()
}

/// Applies cycle `cycle`'s stimulus: cycle 0 is a reset cycle with all
/// inputs zero, later cycles draw from the stream.
fn drive(sim: &mut Simulator, stream: &mut VectorStream, cycle: u32) -> Result<(), String> {
    let vector = if cycle == 0 {
        sim.set_rset(true);
        stream.zero_vector()
    } else {
        sim.set_rset(false);
        stream.next_vector()
    };
    for (port, bits) in &vector {
        sim.set_port(port, bits).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn port_names(d: &Design) -> Vec<String> {
    d.ports.iter().map(|p| p.name.clone()).collect()
}

/// Simulates one optimized design over seeded cycles; the digest covers
/// the boolean view of every port on every cycle.
pub fn sim_unit(
    tr: &mut Tracer,
    ops: &mut Ops,
    p: &Prepared,
    optimized: Option<&Design>,
    pass: &mut Pass,
    h: &mut StableHasher,
) -> Output {
    let label = p.spec.label;
    let Some(o) = optimized else {
        return Output::Trace(0);
    };
    let ports = port_names(&p.design);
    let (res, dt) = tr.span("bench.sim", label, |tr| {
        let mut sim = Simulator::new(o.clone()).map_err(|e| format!("{label}: {e}"))?;
        sim.reseed(p.sim_seed);
        let mut stream = VectorStream::new(&p.design, p.sim_seed);
        let mut th = StableHasher::new();
        let mut conflicts = 0usize;
        for c in 0..=SIM_CYCLES {
            drive(&mut sim, &mut stream, c).map_err(|e| format!("{label}: {e}"))?;
            let (r, _) = tr.span("sim.step", label, |_| sim.try_step());
            conflicts += r
                .map_err(|e| format!("{label}: step {c}: {e}"))?
                .conflicts
                .len();
            for v in observe(&sim, &ports) {
                th.write_u64(value_code(v));
            }
        }
        tr.count("cycles", f64::from(SIM_CYCLES + 1));
        tr.count("conflicts", conflicts as f64);
        Ok::<_, String>((th.finish(), conflicts))
    });
    pass.time += dt;
    let mut digest = 0;
    ops.record(res.map(|(d, conflicts)| {
        pass.work += f64::from(SIM_CYCLES + 1);
        pass.add("sim.cycles", f64::from(SIM_CYCLES + 1));
        pass.add("sim.conflicts", conflicts as f64);
        digest = d;
    }));
    h.write_u64(digest);
    Output::Trace(digest)
}

/// Lockstep reference for the sim stage: the source design and its
/// optimized form step side by side on the scalar simulator under the
/// same stimulus as [`sim_pass`], and must agree on the boolean view of
/// every port on every cycle. Returns the digest [`sim_pass`] must
/// reproduce.
pub fn lockstep(p: &Prepared, optimized: &Design) -> Result<u64, String> {
    let label = p.spec.label;
    let mut a = Simulator::new(p.design.clone()).map_err(|e| format!("{label}: {e}"))?;
    let mut b = Simulator::new(optimized.clone()).map_err(|e| format!("{label}: {e}"))?;
    a.reseed(p.sim_seed);
    b.reseed(p.sim_seed);
    let mut sa = VectorStream::new(&p.design, p.sim_seed);
    let mut sb = VectorStream::new(&p.design, p.sim_seed);
    let ports = port_names(&p.design);
    let mut h = StableHasher::new();
    for c in 0..=SIM_CYCLES {
        drive(&mut a, &mut sa, c)?;
        drive(&mut b, &mut sb, c)?;
        a.try_step()
            .map_err(|e| format!("{label}: source step {c}: {e}"))?;
        b.try_step()
            .map_err(|e| format!("{label}: optimized step {c}: {e}"))?;
        let (va, vb) = (observe(&a, &ports), observe(&b, &ports));
        if va != vb {
            return Err(format!(
                "{label}: optimized design diverges from its source at cycle {c}"
            ));
        }
        for v in va {
            h.write_u64(value_code(v));
        }
    }
    Ok(h.finish())
}

fn campaign_config(p: &Prepared) -> CampaignConfig {
    CampaignConfig::new(Engine::Graph, GRADE_VECTORS, p.grade_seed)
}

/// A packed stuck-at campaign on one design, with one worker.
pub fn grade_unit(
    tr: &mut Tracer,
    ops: &mut Ops,
    p: &Prepared,
    pass: &mut Pass,
    h: &mut StableHasher,
) -> Output {
    let label = p.spec.label;
    let cfg = campaign_config(p);
    let (res, dt) = tr.span("bench.grade", label, |tr| {
        tr.span("fault.campaign", label, |tr| {
            let r = run_campaign_packed(&p.design, &p.faults, &cfg, 1);
            if let Ok(r) = &r {
                tr.count("faults", r.results.len() as f64);
                tr.count("words", r.results.len().div_ceil(LANES) as f64);
                tr.count("detected", r.detected() as f64);
            }
            r
        })
        .0
    });
    pass.time += dt;
    let mut kept = None;
    ops.record(
        res.map_err(|e| format!("{label}: packed campaign: {e}"))
            .map(|r| {
                let n = r.results.len();
                pass.work += (n as f64) * f64::from(GRADE_VECTORS);
                pass.add("fault.faults", n as f64);
                pass.add("fault.words", n.div_ceil(LANES) as f64);
                pass.add("fault.detected", r.detected() as f64);
                h.write_str(&r.to_text());
                kept = Some(r);
            }),
    );
    Output::Campaign(kept)
}

/// Campaigns with at most this many faults are checked against the
/// scalar engine in full (c432like's 362 take about 1.5 s).
const SCALAR_ALL: usize = 400;
/// Larger campaigns are checked on a seeded sample of this many faults.
const SCALAR_SAMPLE: usize = 256;

/// Holds a packed campaign report against the scalar `run_campaign`
/// engine, fault by fault, on all faults or a seeded sample of them.
pub fn check_grade(p: &Prepared, packed: &CoverageReport) -> Result<(), String> {
    let label = p.spec.label;
    let n = p.faults.faults.len();
    let mut idx: Vec<usize> = (0..n).collect();
    if n > SCALAR_ALL {
        let mut x = derive(p.grade_seed, label, "sample", 0);
        for i in 0..SCALAR_SAMPLE {
            x = derive(x, label, "sample", i as u64);
            let j = i + (x % (n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(SCALAR_SAMPLE);
        idx.sort_unstable();
    }
    let sub = FaultList {
        faults: idx.iter().map(|&i| p.faults.faults[i]).collect(),
        total_enumerated: p.faults.total_enumerated,
        collapsed: p.faults.collapsed,
    };
    let scalar = run_campaign(&p.design, &sub, &campaign_config(p))
        .map_err(|e| format!("{label}: scalar campaign: {e}"))?;
    if packed.results.len() != n {
        return Err(format!(
            "{label}: packed report covers {} of {n} faults",
            packed.results.len()
        ));
    }
    for (k, &i) in idx.iter().enumerate() {
        if scalar.results[k] != packed.results[i] {
            return Err(format!(
                "{label}: fault {} ({}): packed {:?} vs scalar {:?}",
                i,
                packed.results[i].site_name,
                packed.results[i].outcome,
                scalar.results[k].outcome
            ));
        }
    }
    Ok(())
}

/// SAT-assisted ATPG at default budgets on one design with one seed.
pub fn atpg_unit(
    tr: &mut Tracer,
    ops: &mut Ops,
    p: &Prepared,
    seed: u64,
    pass: &mut Pass,
    h: &mut StableHasher,
) -> Output {
    let label = p.spec.label;
    let cfg = AtpgConfig {
        seed,
        sat: true,
        ..AtpgConfig::default()
    };
    let (res, dt) = tr.span("bench.atpg", label, |tr| {
        tr.span("atpg.run", label, |tr| {
            let r = run_atpg(&p.design, &cfg);
            if let Ok(r) = &r {
                for (k, v) in atpg_counts(r) {
                    tr.count(k, v);
                }
            }
            r
        })
        .0
    });
    pass.time += dt;
    let mut kept = None;
    ops.record(
        res.map_err(|e| format!("{label}: atpg seed {seed}: {e}"))
            .and_then(|r| {
                if r.partial {
                    return Err(format!("{label}: atpg seed {seed}: partial report"));
                }
                for (k, v) in atpg_counts(&r) {
                    pass.add(k, v);
                }
                h.write_u64(r.vector_digest());
                h.write_str(&r.grade.to_text());
                kept = Some(r);
                Ok(())
            }),
    );
    Output::Atpg(kept)
}

/// The work counts of one ATPG report.
fn atpg_counts(r: &AtpgReport) -> Vec<(&'static str, f64)> {
    let s = &r.stats;
    let sat = r.sat.unwrap_or_default();
    let testable = r.grade.results.len().saturating_sub(r.redundant.len());
    // PODEM verdicts are test, redundant (all SAT-confirmed) or aborted.
    let aborted = s
        .podem_attempts
        .saturating_sub(s.podem_detected + sat.confirmed_redundant);
    vec![
        ("atpg_vectors", r.vectors.len() as f64),
        ("atpg.detected", r.grade.detected() as f64),
        ("atpg.testable", testable as f64),
        ("atpg.harvest_rounds", s.harvest_rounds as f64),
        ("atpg.podem_attempts", s.podem_attempts as f64),
        ("atpg.podem_detected", s.podem_detected as f64),
        ("atpg.podem_aborted", aborted as f64),
        ("atpg.compaction_removed", s.compaction_removed as f64),
        ("sat.solves", sat.solves as f64),
        ("sat.unknown", sat.unknown as f64),
        ("sat.promoted", sat.promoted_redundant as f64),
        ("sat.rescued", sat.rescued as f64),
    ]
}

/// Re-grades an ATPG run's emitted vectors with the scalar engine; the
/// replay must reproduce the report's claimed grade fault by fault.
pub fn check_atpg(p: &Prepared, r: &AtpgReport) -> Result<(), String> {
    let label = p.spec.label;
    let cfg = CampaignConfig::replay(Engine::Graph, r.vectors.clone());
    let replay = run_campaign(&p.design, &p.faults, &cfg)
        .map_err(|e| format!("{label}: replay campaign: {e}"))?;
    if replay.results != r.grade.results {
        return Err(format!(
            "{label}: atpg seed {}: claimed {} detected, replay detects {}",
            r.seed,
            r.grade.detected(),
            replay.detected()
        ));
    }
    Ok(())
}

/// Outside probe of the packed core, whose calls are opaque inside a
/// campaign: the first word of each grade design's faults, one fault per
/// lane, stepped over the campaign's seeded vectors.
pub fn packed_probe(tr: &mut Tracer, ops: &mut Ops, ps: &[Prepared]) {
    for p in ps.iter().filter(|p| p.role.grade) {
        let label = p.spec.label;
        let (res, _) = tr.span("bench.packed_probe", label, |tr| {
            let mut sim = PackedSim::new(p.design.clone()).map_err(|e| format!("{label}: {e}"))?;
            for (lane, &f) in p.faults.faults.iter().take(LANES).enumerate() {
                sim.inject_lanes(f, 1 << lane)
                    .map_err(|e| format!("{label}: inject: {e}"))?;
            }
            let mut stream = VectorStream::new(&p.design, p.grade_seed);
            let mut node_words = 0u64;
            for c in 0..=GRADE_VECTORS {
                let vector = if c == 0 {
                    sim.set_rset(true);
                    stream.zero_vector()
                } else {
                    sim.set_rset(false);
                    stream.next_vector()
                };
                for (port, bits) in &vector {
                    sim.set_port(port, bits)
                        .map_err(|e| format!("{label}: {e}"))?;
                }
                let (r, _) = tr.span("packed.step", label, |_| sim.try_step());
                r.map_err(|e| format!("{label}: packed step {c}: {e}"))?;
                let sweeps = sim.lane_sweeps().iter().max().copied().unwrap_or(1);
                node_words += sim.order_len() as u64 * u64::from(sweeps);
            }
            tr.count("node_words", node_words as f64);
            Ok(())
        });
        ops.record(res);
    }
}

/// Outside probe of the SAT layer: encode and solve, one frame deep,
/// every fault a combinational ATPG run proved redundant. Each must come
/// back UNSAT again.
pub fn sat_probe(tr: &mut Tracer, ops: &mut Ops, runs: &[(&Prepared, &AtpgReport)]) {
    let mut faults: Vec<(&Prepared, Fault)> = Vec::new();
    for &(p, r) in runs {
        if r.mode == AtpgMode::Combinational {
            for (_, f) in &r.redundant {
                if !faults
                    .iter()
                    .any(|(q, g)| q.spec.label == p.spec.label && g == f)
                {
                    faults.push((p, *f));
                }
            }
        }
    }
    for (p, f) in faults {
        let label = p.spec.label;
        let mut gov = Limits::default().governor();
        let opts = EncodeOptions {
            frames: 1,
            ..EncodeOptions::default()
        };
        let (det, _) = tr.span("sat.encode", label, |tr| {
            let d = encode_detection(&p.design, f, &opts, &mut gov);
            if let Ok(d) = &d {
                tr.count("clauses", d.cnf.clauses.len() as f64);
            }
            d
        });
        let res = match det {
            Err(e) => Err(format!("{label}: encode {f:?}: {e:?}")),
            Ok(det) => {
                let (answer, _) = tr.span("sat.solve", label, |tr| {
                    let mut s = Solver::from_cnf(&det.cnf);
                    let a = s.solve(AtpgConfig::default().sat_conflicts, &mut gov);
                    tr.count("conflicts", s.conflicts as f64);
                    a
                });
                match answer {
                    SatOutcome::Unsat => Ok(()),
                    SatOutcome::Sat(_) => Err(format!(
                        "{label}: {f:?} was reported redundant but re-solves SAT"
                    )),
                    SatOutcome::Unknown => Err(format!(
                        "{label}: {f:?} was reported redundant but re-solves unknown"
                    )),
                }
            }
        };
        ops.record(res);
    }
}
