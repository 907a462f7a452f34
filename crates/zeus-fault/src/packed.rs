//! Bit-parallel, multi-threaded fault campaigns.
//!
//! [`run_campaign_packed`] produces the *same* [`CoverageReport`] as
//! [`run_campaign`](crate::run_campaign) on the graph engine — byte for
//! byte, for the same design, fault list, and seed — but simulates up to
//! 64 faulty circuits per packed word ([`PackedSim`], one fault per
//! lane). Words are scheduled, sharded across `std::thread` workers,
//! journaled and merged by the same scheduler as the scalar campaign.
//!
//! Three ingredients keep the output identical to the scalar path:
//!
//! 1. **A shared golden trace.** The fault-free run is the same for
//!    every fault, so it is executed once with the real scalar
//!    [`Simulator`] under the campaign [`Limits`] and its per-tick OUT
//!    port values (boolean view) are recorded, along with the
//!    classification of a budget error if the golden run itself runs
//!    out. Every faulty lane then compares against this trace exactly
//!    where `run_differential` would have compared against a live golden
//!    simulator.
//! 2. **Per-lane budget emulation.** The packed simulator bills its own
//!    fuel per pattern-word, but each scalar faulty run has its *own*
//!    governor. Each lane therefore carries a [`LaneBudget`] replaying
//!    the exact scalar arithmetic — `charge(order + 1)` before the step
//!    and `charge((sweeps - 1) * order + 1)` after a multi-sweep cycle,
//!    using the packed engine's per-lane sweep counts — so a fault that
//!    exhausts its budget on cycle *k* scalar-side is classified
//!    `BudgetExhausted` on cycle *k* packed-side, before any output
//!    compare, exactly like `classify_error`. Deadlines are wall-clock
//!    and checked once per tick per shard.
//! 3. **Deterministic merge.** Faults are packed into words in list
//!    order, exactly the words the scalar campaign runs, and the shared
//!    scheduler merges finished words by index, so the result order is
//!    the scalar one no matter how many workers ran.

use crate::campaign::{
    classify_error, schedule, CampaignConfig, Engine, Outcome, UndetectedReason,
};
use crate::checkpoint::CheckpointOptions;
use crate::list::FaultList;
use crate::report::CoverageReport;
use std::time::Instant;
use zeus_elab::{Design, Fault, Limits};
use zeus_sema::Value;
use zeus_sim::{PackedSim, Simulator};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

/// The recorded fault-free run: one entry per successful tick (the RSET
/// tick first when the design uses RSET, then one per vector), each
/// holding the boolean-view bits of every OUT port in declaration order.
struct GoldenTrace {
    ticks: Vec<Vec<Vec<Value>>>,
    /// Classification to apply to lanes still alive when the golden run
    /// stopped early (its own budget ran out at tick `ticks.len()`).
    stopped: Option<Outcome>,
}

/// Replays the scalar [`Simulator::try_step`] budget arithmetic for one
/// lane (fuel and step ceiling; the deadline is handled per shard).
struct LaneBudget {
    steps: u64,
    max_steps: Option<u64>,
    fuel: Option<u64>,
    exhausted: bool,
}

impl LaneBudget {
    fn new(limits: &Limits) -> LaneBudget {
        LaneBudget {
            steps: 0,
            max_steps: limits.max_steps,
            fuel: limits.fuel,
            exhausted: false,
        }
    }

    /// `Governor::charge`: draining the tank mid-charge still zeroes it.
    fn charge(&mut self, amount: u64) -> bool {
        if let Some(left) = &mut self.fuel {
            if *left < amount {
                *left = 0;
                self.exhausted = true;
                return false;
            }
            *left -= amount;
        }
        true
    }

    /// The pre-step half of `try_step`: the step-count ceiling, then one
    /// sweep's worth of fuel.
    fn begin_cycle(&mut self, order: u64) -> bool {
        if self.exhausted {
            return false;
        }
        if let Some(max) = self.max_steps {
            if self.steps >= max {
                self.exhausted = true;
                return false;
            }
        }
        self.steps += 1;
        self.charge(order + 1)
    }

    /// The post-step half: re-sweeps forced by bridge fixpoints.
    fn settle(&mut self, order: u64, sweeps: u32) -> bool {
        if self.exhausted {
            return false;
        }
        if sweeps > 1 {
            return self.charge((sweeps as u64 - 1) * order + 1);
        }
        true
    }
}

/// Runs a fault campaign with the packed bit-parallel engine, sharded
/// over `jobs` worker threads. Produces a [`CoverageReport`] that is
/// byte-identical (text and JSON) to the scalar
/// [`run_campaign`](crate::run_campaign) for the same inputs and seed,
/// for any `jobs >= 1`.
///
/// # Errors
///
/// Returns a diagnostic for the switch engine (packed evaluation models
/// the semantics graph, not the transistor network), and propagates any
/// non-budget construction or stepping error exactly like the scalar
/// campaign.
pub fn run_campaign_packed(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    jobs: usize,
) -> Result<CoverageReport, Diagnostic> {
    run_campaign_packed_with(design, list, cfg, jobs, None)
}

/// [`run_campaign_packed`] with optional crash-safe checkpointing (see
/// [`crate::run_campaign_with`] — the journal format is shared, so a
/// scalar checkpoint resumes packed and vice versa). Completed words are
/// journaled incrementally as workers deliver them; a panic inside a
/// worker's word is retried once on a fresh simulator and then
/// classified [`Outcome::ToolError`](crate::Outcome::ToolError) without
/// killing the campaign; the cancellation flag and campaign deadline
/// drain in-flight words and yield a partial report.
///
/// # Errors
///
/// As [`run_campaign_packed`], plus checkpoint I/O failures and a digest
/// mismatch when resuming a journal recorded for a different campaign.
pub fn run_campaign_packed_with(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    jobs: usize,
    checkpoint: Option<&CheckpointOptions>,
) -> Result<CoverageReport, Diagnostic> {
    if cfg.engine == Engine::Switch {
        return Err(Diagnostic::error(
            Span::dummy(),
            "packed campaigns support the graph engine only; \
             run the switch engine through the scalar campaign",
        ));
    }
    schedule(design, list, cfg, jobs, checkpoint, |limits| {
        let golden = record_golden(design, cfg, &limits)?;
        Ok(move |faults: &[Fault]| run_word(design, faults, cfg, &limits, &golden))
    })
}

/// Runs the fault-free simulation once under the campaign limits and
/// records everything the faulty lanes need to compare against.
fn record_golden(
    design: &Design,
    cfg: &CampaignConfig,
    limits: &Limits,
) -> Result<GoldenTrace, Diagnostic> {
    let out_names: Vec<String> = design.outputs().map(|p| p.name.clone()).collect();
    let mut golden = Simulator::with_limits(design.clone(), limits)?;
    golden.reseed(cfg.seed);
    let mut stream = cfg.stream(design);
    let mut trace = GoldenTrace {
        ticks: Vec::with_capacity(cfg.vectors as usize + 1),
        stopped: None,
    };
    let capture = |sim: &Simulator| out_names.iter().map(|n| sim.port(n)).collect::<Vec<_>>();

    if design.rset.is_some() {
        golden.set_rset(true);
        for (name, bits) in stream.zero_vector() {
            golden.set_port(&name, &bits)?;
        }
        match golden.try_step() {
            Ok(_) => {
                trace.ticks.push(capture(&golden));
                golden.set_rset(false);
            }
            Err(e) => {
                trace.stopped = Some(classify_error(e)?);
                return Ok(trace);
            }
        }
    }
    for _ in 0..cfg.vectors {
        for (name, bits) in &stream.next_vector() {
            golden.set_port(name, bits)?;
        }
        match golden.try_step() {
            Ok(_) => trace.ticks.push(capture(&golden)),
            Err(e) => {
                trace.stopped = Some(classify_error(e)?);
                break;
            }
        }
    }
    Ok(trace)
}

/// The golden trace ran out of ticks: the stop reason is part of the
/// trace contract (recorded when the fault-free run died early). A
/// missing one is an internal invariant breach, reported as a `Z999`
/// diagnostic the driver can classify instead of panicking a worker
/// thread mid-campaign.
fn golden_stop(golden: &GoldenTrace) -> Result<Outcome, Diagnostic> {
    golden.stopped.clone().ok_or_else(|| {
        Diagnostic::internal(
            Span::dummy(),
            "packed campaign: golden trace ended without a recorded stop reason",
        )
    })
}

/// Simulates up to 64 faults — one per lane — against the golden trace,
/// returning their outcomes in lane order.
fn run_word(
    design: &Design,
    faults: &[Fault],
    cfg: &CampaignConfig,
    limits: &Limits,
    golden: &GoldenTrace,
) -> Result<Vec<Outcome>, Diagnostic> {
    let out_names: Vec<String> = design.outputs().map(|p| p.name.clone()).collect();
    // The packed simulator runs unbudgeted; each lane's budget is the
    // [`LaneBudget`] replay below (billing the shared word sweep once
    // per *lane-circuit*, as the scalar campaign does — the word itself
    // is never billed 64×).
    let mut sim = PackedSim::new(design.clone())?;
    sim.reseed(cfg.seed);
    for (lane, &fault) in faults.iter().enumerate() {
        sim.inject_lanes(fault, 1u64 << lane)?;
    }
    let mut stream = cfg.stream(design);
    let order = sim.order_len() as u64;
    let started = Instant::now();

    let n = faults.len();
    let mut budgets: Vec<LaneBudget> = (0..n).map(|_| LaneBudget::new(limits)).collect();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
    let mut alive = n;
    let mut tick = 0usize;

    macro_rules! finish_rest {
        ($outcome:expr) => {
            for slot in outcomes.iter_mut().filter(|s| s.is_none()) {
                *slot = Some($outcome);
            }
        };
    }

    // Reset pulse, exactly like the scalar campaign (no output compare
    // on this tick).
    if design.rset.is_some() {
        sim.set_rset(true);
        for (name, bits) in stream.zero_vector() {
            sim.set_port(&name, &bits)?;
        }
        if golden.ticks.len() == tick {
            let stop = golden_stop(golden)?;
            finish_rest!(stop.clone());
            return Ok(outcomes
                .into_iter()
                .map(|o| o.unwrap_or_else(|| stop.clone()))
                .collect());
        }
        check_deadline(limits, started, &mut outcomes, &mut alive);
        let pre: Vec<bool> = budgets.iter_mut().map(|b| b.begin_cycle(order)).collect();
        sim.step();
        let sweeps = *sim.lane_sweeps();
        for l in 0..n {
            if outcomes[l].is_some() {
                continue;
            }
            if !pre[l] || !budgets[l].settle(order, sweeps[l]) {
                outcomes[l] = Some(Outcome::Undetected(UndetectedReason::BudgetExhausted));
                alive -= 1;
            }
        }
        sim.set_rset(false);
        tick += 1;
    }

    for cycle in 0..cfg.vectors {
        if alive == 0 {
            break;
        }
        for (name, bits) in &stream.next_vector() {
            sim.set_port(name, bits)?;
        }
        // `run_differential` steps the golden side first: when it died
        // here, every still-unclassified fault inherits that outcome.
        if golden.ticks.len() == tick {
            let stop = golden_stop(golden)?;
            finish_rest!(stop.clone());
            break;
        }
        check_deadline(limits, started, &mut outcomes, &mut alive);
        let pre: Vec<bool> = budgets.iter_mut().map(|b| b.begin_cycle(order)).collect();
        sim.step();
        let sweeps = *sim.lane_sweeps();
        let unstable = sim.ever_unstable();
        let golden_out = &golden.ticks[tick];
        for l in 0..n {
            if outcomes[l].is_some() {
                continue;
            }
            if !pre[l] || !budgets[l].settle(order, sweeps[l]) {
                outcomes[l] = Some(Outcome::Undetected(UndetectedReason::BudgetExhausted));
                alive -= 1;
                continue;
            }
            for (p, name) in out_names.iter().enumerate() {
                if sim.port_lane(name, l) != golden_out[p] {
                    // A divergence driven by a non-settling bridge is
                    // hyperactivity, not clean detection.
                    outcomes[l] = Some(if (unstable >> l) & 1 == 1 {
                        Outcome::Hyperactive
                    } else {
                        Outcome::Detected {
                            cycle: cycle as u64,
                            port: name.clone(),
                        }
                    });
                    alive -= 1;
                    break;
                }
            }
        }
        tick += 1;
    }

    let unstable = sim.ever_unstable();
    let final_outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(l, o)| {
            o.unwrap_or(if (unstable >> l) & 1 == 1 {
                Outcome::Hyperactive
            } else {
                Outcome::Undetected(UndetectedReason::NotObserved)
            })
        })
        .collect();
    Ok(final_outcomes)
}

/// Wall-clock deadline, checked once per tick per shard (the scalar
/// governor checks every 64 fuel charges; both are approximations of
/// "stop around this time" and only fire in wall-clock-limited runs).
fn check_deadline(
    limits: &Limits,
    started: Instant,
    outcomes: &mut [Option<Outcome>],
    alive: &mut usize,
) {
    if let Some(deadline) = limits.deadline {
        if started.elapsed() > deadline {
            for slot in outcomes.iter_mut().filter(|s| s.is_none()) {
                *slot = Some(Outcome::Undetected(UndetectedReason::BudgetExhausted));
                *alive -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::list::{enumerate_faults, FaultListOptions};
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    fn all_opts() -> FaultListOptions {
        FaultListOptions {
            stuck_at: true,
            bridges: true,
            transients: Some(3),
            collapse: true,
        }
    }

    const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END;";

    const COUNTER: &str = "TYPE cnt = COMPONENT (IN en: boolean; OUT q: boolean) IS \
         SIGNAL r: REG; \
         BEGIN IF en THEN r.in := NOT(r.out) END; \
         IF NOT(en) THEN r.in := r.out END; \
         IF RSET THEN r.in := 0 END; q := r.out END;";

    fn reports_match(src: &str, top: &str, vectors: u32, seed: u64, jobs: usize) {
        let d = design(src, top);
        let list = enumerate_faults(&d, &all_opts());
        let cfg = CampaignConfig::new(Engine::Graph, vectors, seed);
        let scalar = run_campaign(&d, &list, &cfg).unwrap();
        let packed = run_campaign_packed(&d, &list, &cfg, jobs).unwrap();
        assert_eq!(scalar.to_text(), packed.to_text(), "text report must match");
        assert_eq!(scalar.to_json(), packed.to_json(), "json report must match");
    }

    #[test]
    fn packed_campaign_matches_scalar_on_halfadder() {
        reports_match(HALFADDER, "halfadder", 32, 1, 1);
        reports_match(HALFADDER, "halfadder", 32, 1, 4);
        reports_match(HALFADDER, "halfadder", 16, 99, 2);
    }

    #[test]
    fn packed_campaign_matches_scalar_on_sequential_design() {
        reports_match(COUNTER, "cnt", 24, 7, 3);
    }

    #[test]
    fn packed_budget_exhaustion_matches_scalar() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &all_opts());
        let mut cfg = CampaignConfig::new(Engine::Graph, 64, 1);
        cfg.limits.fuel = Some(1);
        let scalar = run_campaign(&d, &list, &cfg).unwrap();
        let packed = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
        assert_eq!(scalar.to_text(), packed.to_text());
        assert_eq!(scalar.to_json(), packed.to_json());
        assert!(scalar
            .results
            .iter()
            .all(|r| r.outcome == Outcome::Undetected(UndetectedReason::BudgetExhausted)));
    }

    #[test]
    fn packed_partial_budget_matches_scalar() {
        // Enough fuel for a few cycles but not the whole run: the
        // classification cycle must agree with the scalar governor.
        let d = design(COUNTER, "cnt");
        let list = enumerate_faults(&d, &all_opts());
        for fuel in [10u64, 40, 90, 200] {
            let mut cfg = CampaignConfig::new(Engine::Graph, 24, 5);
            cfg.limits.fuel = Some(fuel);
            let scalar = run_campaign(&d, &list, &cfg).unwrap();
            let packed = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
            assert_eq!(
                scalar.to_json(),
                packed.to_json(),
                "fuel={fuel} reports must match"
            );
        }
    }

    #[test]
    fn job_count_does_not_change_the_report() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &all_opts());
        let cfg = CampaignConfig::new(Engine::Graph, 32, 42);
        let one = run_campaign_packed(&d, &list, &cfg, 1).unwrap();
        for jobs in [2, 3, 8, 64] {
            let many = run_campaign_packed(&d, &list, &cfg, jobs).unwrap();
            assert_eq!(one.to_json(), many.to_json(), "jobs={jobs}");
            assert_eq!(one.to_text(), many.to_text(), "jobs={jobs}");
        }
    }

    #[test]
    fn switch_engine_is_rejected() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::new(Engine::Switch, 8, 1);
        let err = run_campaign_packed(&d, &list, &cfg, 1).unwrap_err();
        assert!(err.message.contains("graph engine"));
    }
}
