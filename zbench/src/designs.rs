//! The designs each workload drives, and the per-design seeds derived
//! from the workload seed.

/// Where a design comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A bundled Zeus program (`zeus::examples::ALL` name), elaborated
    /// with `top(args)`.
    Zeus {
        example: &'static str,
        top: &'static str,
        args: &'static [i64],
    },
    /// A `zeus netlist v1` file of the repository's `benchmarks/` corpus,
    /// read relative to the directory the benchmark runs in.
    Netlist { file: &'static str },
}

/// One design, named by a stable label.
#[derive(Debug)]
pub struct Spec {
    pub label: &'static str,
    pub source: Source,
}

const fn zeus(
    label: &'static str,
    example: &'static str,
    top: &'static str,
    args: &'static [i64],
) -> Spec {
    Spec {
        label,
        source: Source::Zeus { example, top, args },
    }
}

/// The 19 bundled designs of `BENCH_opt.json`.
pub static BUNDLED: [Spec; 19] = [
    zeus("rippleCarry4", "adders", "rippleCarry4", &[]),
    zeus("rippleCarry4p", "adders", "rippleCarry", &[4]),
    zeus("muxtop", "mux", "muxtop", &[]),
    zeus("blackjack", "blackjack", "blackjack", &[]),
    zeus("tree8", "trees", "tree", &[8]),
    zeus("rtree8", "trees", "rtree", &[8]),
    zeus("htree16", "trees", "htree", &[16]),
    zeus("patternmatch3", "patternmatch", "patternmatch", &[3]),
    zeus("routing8", "routing", "routingnetwork", &[8]),
    zeus("ram8x4x3", "ram", "ram", &[8, 4, 3]),
    zeus("chessboard4", "chessboard", "chessboard", &[4]),
    zeus("am2901", "am2901", "am2901", &[]),
    zeus("systolicstack4x4", "stack", "systolicstack", &[4, 4]),
    zeus("systolicqueue4x4", "queue", "systolicqueue", &[4, 4]),
    zeus("counter6", "counter", "counter", &[6]),
    zeus("dictionary4x4", "dictionary", "dictionary", &[4, 4]),
    zeus("sorter4x4", "sorter", "sorter", &[4, 4]),
    zeus("recab", "recognizer", "recab", &[]),
    zeus("semc", "semantics", "semc", &[]),
];

/// The two scaled parametric designs (about 10k gates each).
pub static SCALED: [Spec; 2] = [
    zeus("ripple512", "adders", "rippleCarry", &[512]),
    zeus("routing32", "routing", "routingnetwork", &[32]),
];

pub static C17: Spec = Spec {
    label: "c17",
    source: Source::Netlist {
        file: "benchmarks/c17.znl",
    },
};

pub static C432: Spec = Spec {
    label: "c432like",
    source: Source::Netlist {
        file: "benchmarks/c432.znl",
    },
};

fn bundled(label: &str) -> &'static Spec {
    BUNDLED
        .iter()
        .find(|s| s.label == label)
        .expect("label names a bundled design")
}

/// Which stages a design takes part in. `flow` means compile, optimize
/// and simulate; `grade` a packed stuck-at campaign; `atpg` is the number
/// of SAT-assisted ATPG runs, each with its own derived seed.
#[derive(Debug, Clone, Copy)]
pub struct Role {
    pub flow: bool,
    pub grade: bool,
    pub atpg: u64,
}

const FLOW: Role = Role {
    flow: true,
    grade: false,
    atpg: 0,
};

/// ATPG runs on the main ATPG designs: at least two derived seeds, so
/// the seed-dependent behaviour is part of the traffic.
const ATPG_SEEDS: u64 = 2;
/// ATPG runs on c432like in the `atpg` workload. Its runs take 4.0–5.1 s
/// whatever the seed, while blackjack's take 7.7–12.7 s, or about 2.4 s
/// at a cliff seed (about one in ten). With two runs of each, the pass
/// time spread by 0.24 of its median over ten workload seeds, at the
/// edge of `atpg_s`'s bound; resampling the measured run times puts four
/// c432like runs at about 0.16, and six at 0.14 but past the time a run
/// may take.
const C432_ATPG_SEEDS: u64 = 4;
/// ATPG runs on c17 where ATPG is not the workload's focus: many cheap
/// runs, so the summed vector count is steady across workload seeds.
const LIGHT_ATPG_SEEDS: u64 = 32;

/// A workload: the designs it drives and the stages each takes part in.
pub struct Workload {
    pub name: &'static str,
    pub designs: Vec<(&'static Spec, Role)>,
}

/// Every workload, by name.
pub const NAMES: [&str; 3] = ["flow", "grade", "atpg"];

/// Vectors per packed campaign.
pub const GRADE_VECTORS: u32 = 256;
/// Scalar simulation cycles per design and pass (after the reset cycle).
pub const SIM_CYCLES: u32 = 256;

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let role = |flow, grade, atpg| Role { flow, grade, atpg };
    let designs = match name {
        // The front end and the optimizer do most of the work: every
        // bundled design plus the interchange corpus and the two scaled
        // designs. Grading and ATPG run on the small corpus circuits.
        "flow" => {
            let mut d: Vec<(&'static Spec, Role)> = BUNDLED.iter().map(|s| (s, FLOW)).collect();
            d.push((&C17, role(true, true, LIGHT_ATPG_SEEDS)));
            d.push((&C432, role(true, true, 0)));
            d.extend(SCALED.iter().map(|s| (s, FLOW)));
            d
        }
        // Packed campaigns: am2901 is mostly detectable, c432like about
        // half undetectable.
        "grade" => vec![
            (bundled("am2901"), role(true, true, 0)),
            (&C432, role(true, true, 0)),
            (&C17, role(false, false, LIGHT_ATPG_SEEDS)),
        ],
        // SAT-assisted ATPG: many small UNSAT proofs on c432like, few deep
        // time-frame unrolls on blackjack. am2901 is left out: its SAT
        // run did not finish within 9 minutes at default budgets.
        "atpg" => vec![
            (&C432, role(true, true, C432_ATPG_SEEDS)),
            (bundled("blackjack"), role(true, true, ATPG_SEEDS)),
        ],
        _ => return None,
    };
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name)?,
        designs,
    })
}

/// A seed for one purpose of one design, derived from the workload seed
/// with splitmix64 over an FNV-1a hash of the label and purpose.
pub fn derive(seed: u64, label: &str, purpose: &str, k: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes().chain([0]).chain(purpose.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let mut x = seed ^ h ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_resolve() {
        for n in NAMES {
            assert!(workload(n).is_some(), "{n}");
        }
        assert!(workload("nope").is_none());
        assert_eq!(workload("flow").unwrap().designs.len(), 23);
    }

    #[test]
    fn derived_seeds_differ_by_every_input() {
        let a = derive(7, "c432like", "atpg", 0);
        assert_eq!(a, derive(7, "c432like", "atpg", 0));
        assert_ne!(a, derive(8, "c432like", "atpg", 0));
        assert_ne!(a, derive(7, "blackjack", "atpg", 0));
        assert_ne!(a, derive(7, "c432like", "grade", 0));
        assert_ne!(a, derive(7, "c432like", "atpg", 1));
    }
}
