//! The equivalence gate: the optimizer refuses to emit a rewritten
//! netlist it cannot verify against the original.
//!
//! Small combinational designs are checked *exhaustively* — every
//! boolean (0/1) input vector, via [`zeus_sim::check_equivalent_with`].
//! UNDEF and NOINFL inputs are not enumerated. Everything else (registers, or
//! too many input bits) runs a *packed random lockstep*: both designs
//! simulate the same pseudo-random stimulus in 64 lanes at a time, from
//! a common RSET pulse, and every OUT-port bit is compared after every
//! cycle. Lockstep is a falsifier, not a proof — the pass pipeline's
//! per-rewrite soundness arguments carry the correctness burden; the
//! gate is the independent check that refuses to ship when they are ever
//! wrong.

use rand::{Rng, SeedableRng};
use zeus_elab::{Design, NetId};
use zeus_sim::{check_equivalent_with, PackedSim, PackedWord, LANES};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

use crate::OptConfig;

/// How a rewritten design was verified against its original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// The pipeline changed nothing: the netlists are identical, no
    /// check was needed.
    Unchanged,
    /// Exhaustive input enumeration over all `vectors` = 2^bits boolean
    /// input vectors (combinational designs within the input-bit budget).
    Exhaustive {
        /// Number of input vectors simulated on both designs.
        vectors: u64,
    },
    /// Packed pseudo-random lockstep simulation.
    Lockstep {
        /// Independent trials, each from a fresh RSET pulse.
        rounds: u32,
        /// Clock cycles per trial.
        cycles: u32,
        /// Stimulus lanes per cycle (64 per packed word).
        lanes: u32,
    },
}

impl std::fmt::Display for Verification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verification::Unchanged => write!(f, "unchanged (no check needed)"),
            Verification::Exhaustive { vectors } => {
                write!(f, "exhaustive ({vectors} input vectors)")
            }
            Verification::Lockstep {
                rounds,
                cycles,
                lanes,
            } => write!(
                f,
                "lockstep ({rounds} rounds x {cycles} cycles x {lanes} lanes)"
            ),
        }
    }
}

/// Total IN-port bits of a design.
fn input_bits(design: &Design) -> u32 {
    design.inputs().map(|p| p.width() as u32).sum()
}

/// Verifies that `opt` is observably equivalent to `orig` at the ports,
/// choosing the strongest affordable check.
///
/// # Errors
///
/// A divergence returns a `Z999` internal diagnostic (an optimizer bug —
/// the rewritten netlist must not be used); resource-limit diagnostics
/// from the governed exhaustive check propagate unchanged.
pub(crate) fn verify_equivalent(
    orig: &Design,
    opt: &Design,
    cfg: &OptConfig,
) -> Result<Verification, Diagnostic> {
    let combinational = orig.netlist.registers().count() == 0;
    let bits = input_bits(orig);
    if combinational && bits <= cfg.max_exhaustive_bits {
        let mut limits = cfg.limits.clone();
        limits.max_input_bits = cfg.max_exhaustive_bits;
        match check_equivalent_with(orig, opt, &limits)? {
            None => Ok(Verification::Exhaustive {
                // check_equivalent_with drives each input bit 0 or 1.
                vectors: 2u64.saturating_pow(bits),
            }),
            Some(ce) => Err(Diagnostic::internal(
                Span::dummy(),
                format!("optimizer produced a non-equivalent netlist: {ce}"),
            )),
        }
    } else {
        lockstep(orig, opt, cfg)
    }
}

/// One IN-port bit of each design, paired by interface position. The
/// two netlists number their nets independently, so the stimulus must be
/// addressed per design.
fn paired_input_nets(orig: &Design, opt: &Design) -> Vec<(NetId, NetId)> {
    orig.inputs()
        .flat_map(|p| {
            let other = opt
                .port(&p.name)
                .expect("optimizer preserves the port interface");
            p.nets.iter().copied().zip(other.nets.iter().copied())
        })
        .collect()
}

/// Packed pseudo-random lockstep comparison (see module docs).
fn lockstep(orig: &Design, opt: &Design, cfg: &OptConfig) -> Result<Verification, Diagnostic> {
    let ins = paired_input_nets(orig, opt);
    let outs: Vec<(String, Vec<(NetId, NetId)>)> = orig
        .outputs()
        .map(|p| {
            let other = opt
                .port(&p.name)
                .expect("optimizer preserves the port interface");
            (
                p.name.clone(),
                p.nets
                    .iter()
                    .copied()
                    .zip(other.nets.iter().copied())
                    .collect(),
            )
        })
        .collect();

    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    for round in 0..cfg.lockstep_rounds {
        let mut sa = PackedSim::with_limits(orig.clone(), &cfg.limits)?;
        let mut sb = PackedSim::with_limits(opt.clone(), &cfg.limits)?;
        // Common reset: one cycle with RSET high and all inputs 0, so
        // designs with a reset net start from the same defined state.
        sa.set_rset(true);
        sb.set_rset(true);
        for &(na, nb) in &ins {
            sa.force(na, PackedWord::ZERO);
            sb.force(nb, PackedWord::ZERO);
        }
        sa.try_step()?;
        sb.try_step()?;
        sa.set_rset(false);
        sb.set_rset(false);

        for cycle in 0..cfg.lockstep_cycles {
            for &(na, nb) in &ins {
                // Per lane a uniformly random defined bit: hi holds the
                // ones, lo the zeros.
                let hi: u64 = rng.gen();
                let w = PackedWord { lo: !hi, hi };
                sa.force(na, w);
                sb.force(nb, w);
            }
            sa.try_step()?;
            sb.try_step()?;
            for (port, bits) in &outs {
                for (bit, &(na, nb)) in bits.iter().enumerate() {
                    let wa = sa.value(na).to_boolean();
                    let wb = sb.value(nb).to_boolean();
                    let diff = wa.diff(wb);
                    if diff != 0 {
                        let lane = diff.trailing_zeros() as usize;
                        return Err(Diagnostic::internal(
                            Span::dummy(),
                            format!(
                                "optimizer produced a non-equivalent netlist: output \
                                 '{port}' bit {bit} diverges in lockstep round {round}, \
                                 cycle {cycle}, lane {lane}: original={}, optimized={}",
                                wa.get(lane),
                                wb.get(lane),
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(Verification::Lockstep {
        rounds: cfg.lockstep_rounds,
        cycles: cfg.lockstep_cycles,
        lanes: LANES as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    #[test]
    fn gate_refuses_a_non_equivalent_combinational_rewrite() {
        let a = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
             BEGIN s := AND(a,b) END;",
            "t",
        );
        let b = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
             BEGIN s := OR(a,b) END;",
            "t",
        );
        let err = verify_equivalent(&a, &b, &OptConfig::default())
            .expect_err("AND vs OR must be refused");
        assert!(err.message.contains("non-equivalent"), "{}", err.message);
    }

    #[test]
    fn gate_refuses_a_non_equivalent_sequential_rewrite() {
        let a = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
             SIGNAL r: REG; BEGIN r(a, s) END;",
            "t",
        );
        let b = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
             SIGNAL r: REG; SIGNAL n: boolean; \
             BEGIN n := NOT(a); r(n, s) END;",
            "t",
        );
        let err = verify_equivalent(&a, &b, &OptConfig::default())
            .expect_err("inverted register feed must be refused");
        assert!(err.message.contains("diverges"), "{}", err.message);
    }

    #[test]
    fn gate_accepts_an_identical_sequential_pair() {
        let src = "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
                   SIGNAL r: REG; BEGIN r(a, s) END;";
        let a = design(src, "t");
        let b = design(src, "t");
        let v = verify_equivalent(&a, &b, &OptConfig::default()).unwrap();
        assert!(matches!(v, Verification::Lockstep { .. }));
    }
}
