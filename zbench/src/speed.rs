//! The machine's speed, sampled by fixed reference kernels run between
//! the measured units.
//!
//! On a shared host the speed of a core drifts by a quarter or more, in
//! phases of tens of seconds to minutes, with what runs beside it on
//! the same physical core. Latency-bound loops (a multiply chain, a
//! random walk over memory) hardly notice. The toolchain's code slows
//! by a little more than a small interpreter with jump-table dispatch
//! does, and by a little less than a tokenizer that formats, splits,
//! hashes and parses text; the two back to back, one sample, track it
//! best of the kernels tried. They belong to the benchmark, so no change
//! to the toolchain moves them, and each timing is scaled by how long
//! they took around it. In 40-second windows of a strongly drifting
//! phase this cut the spread of the stage timings from 0.33–0.41 of
//! their median to 0.03–0.09.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// A sample's time at the speed the scaled figures are quoted at, about
/// its median on the 2-core VM the benchmark was built on. Only a
/// scale; comparisons between two builds do not depend on it.
pub const REF_S: f64 = 0.005;
/// Sampling time owed per second of measured work.
const SHARE: f64 = 0.1;
/// At most this many samples at once, after a long unit.
const BURST: usize = 16;
/// A timing is scaled by the samples within this many seconds of it,
/// and by at least [`NEAREST`] samples.
const PAD: f64 = 0.25;
const NEAREST: usize = 5;

/// Reference samples over one run of the benchmark.
pub struct Speed {
    epoch: Instant,
    program: Vec<u8>,
    /// `(midpoint, duration)` of every sample, in seconds.
    samples: Vec<(f64, f64)>,
    owed: f64,
}

impl Speed {
    pub fn new() -> Speed {
        // A fixed program, the same in every run: the top bytes of a
        // Weyl sequence.
        let program = (0..20_000u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect();
        Speed {
            epoch: Instant::now(),
            program,
            samples: Vec::new(),
            owed: f64::MIN_POSITIVE,
        }
    }

    /// Seconds since the run started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Samples the speed for its share of `worked` seconds of measured
    /// work, at least once when a share is owed. Returns the time spent.
    pub fn keep_up(&mut self, worked: f64) -> f64 {
        self.owed += worked * SHARE;
        let mut spent = 0.0;
        for _ in 0..BURST {
            if self.owed <= 0.0 {
                break;
            }
            let start = self.now();
            black_box(interpret(black_box(&self.program)));
            black_box(tokenize(black_box(LINES)));
            let dt = self.now() - start;
            self.samples.push((start + dt / 2.0, dt));
            self.owed -= dt;
            spent += dt;
        }
        self.owed = self.owed.min(0.0);
        spent
    }

    /// The factor that scales a timing taken between `from` and `to` to
    /// the speed [`REF_S`] stands for: [`REF_S`] over the median time
    /// of the samples within [`PAD`] of that interval, or of the
    /// [`NEAREST`] samples to it when fewer fall within.
    pub fn factor(&self, from: f64, to: f64) -> f64 {
        let gap = |t: f64| (from - t).max(t - to).max(0.0);
        let mut near: Vec<(f64, f64)> = self.samples.iter().map(|&(t, d)| (gap(t), d)).collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        let within = near.iter().take_while(|(g, _)| *g <= PAD).count();
        let times: Vec<f64> = near
            .iter()
            .take(within.max(NEAREST))
            .map(|(_, d)| *d)
            .collect();
        if times.is_empty() {
            1.0
        } else {
            REF_S / median(&times)
        }
    }

    /// Every sample's time, in seconds.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, d)| *d).collect()
    }
}

/// Twenty sweeps of a register-machine interpreter over `program`, each
/// byte an instruction whose kind and operands it encodes: dispatch
/// through a jump table and a data-dependent branch, over a register
/// file in L1.
fn interpret(program: &[u8]) -> u64 {
    let mut r = [1u64; 16];
    let mut acc = 0u64;
    for _ in 0..20 {
        for (i, &op) in program.iter().enumerate() {
            let (a, b) = (usize::from(op & 15), usize::from(op >> 4));
            match op % 7 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b] << 1,
                2 => {
                    if r[a] & 1 == 0 {
                        r[b] = r[b].wrapping_mul(3);
                    } else {
                        r[b] >>= 1;
                    }
                }
                3 => r[a] = r[a].rotate_left(7) ^ i as u64,
                4 => acc = acc.wrapping_add(r[a]),
                5 => r[b] = r[a] | i as u64,
                _ => r[a] = !r[b],
            }
        }
    }
    acc ^ r.iter().fold(0, |s, &v| s ^ v)
}

/// Lines [`tokenize`] writes and reads back.
const LINES: u32 = 8000;

/// Writes `lines` netlist-like lines, then reads them back: splits each
/// into tokens, interns its left-hand name in a hash map and parses the
/// numbers of the others.
fn tokenize(lines: u32) -> u64 {
    let mut text = String::new();
    for i in 0..lines {
        let _ = writeln!(
            text,
            "n{i} = AND(x{}, y{});",
            i.wrapping_mul(7) % 997,
            i % 13
        );
    }
    let mut names: HashMap<String, u64> = HashMap::new();
    let mut acc = 0u64;
    for line in text.lines() {
        let mut tokens = line
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty());
        let Some(lhs) = tokens.next() else { continue };
        let next = names.len() as u64;
        let id = *names.entry(lhs.to_string()).or_insert(next);
        for t in tokens {
            if let Ok(v) = t[1..].parse::<u64>() {
                acc = acc.wrapping_add(v ^ id);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_the_runs_around_a_timing() {
        let mut s = Speed::new();
        let at = |t: f64, d: f64| (0..6).map(move |k| (t + f64::from(k) * 0.01, d));
        s.samples = at(1.0, REF_S).chain(at(10.0, 2.0 * REF_S)).collect();
        assert_eq!(s.factor(0.9, 1.1), 1.0);
        assert_eq!(s.factor(9.9, 10.2), 0.5);
        // No run within the pad: the five nearest.
        assert_eq!(s.factor(4.0, 4.0), 1.0);
        assert_eq!(s.factor(7.0, 7.5), 0.5);
    }

    #[test]
    fn keep_up_pays_its_share() {
        let mut s = Speed::new();
        s.keep_up(0.0);
        assert_eq!(s.samples.len(), 1);
        s.keep_up(0.0);
        assert_eq!(s.samples.len(), 1);
        s.keep_up(1000.0);
        assert_eq!(s.samples.len(), 1 + BURST);
    }
}
