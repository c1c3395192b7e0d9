//! Seeded synthetic random-logic generator.
//!
//! The paper's CUT is a proprietary Infineon automotive microprocessor; for
//! an open reproduction we generate random logic with realistic structural
//! properties instead (see DESIGN.md, substitution table). The generator is
//! fully deterministic for a given [`SynthConfig`], so every experiment is
//! reproducible.
//!
//! Structural realism knobs:
//!
//! * fanin distribution biased towards 2-input gates (as in mapped standard
//!   cell netlists),
//! * locality-biased fanin selection that yields logic depth comparable to
//!   pipeline stages rather than a flat two-level structure,
//! * a configurable fraction of XOR/XNOR gates, which are the main source of
//!   random-pattern-resistant faults — the very faults that force the
//!   deterministic top-off patterns whose storage cost the paper's design
//!   space exploration trades off.
//!
//! # Example
//!
//! ```
//! use eea_netlist::{synthesize, SynthConfig};
//!
//! # fn main() -> Result<(), eea_netlist::SynthError> {
//! let c = synthesize(&SynthConfig { gates: 200, inputs: 12, dffs: 16, seed: 7, ..SynthConfig::default() })?;
//! assert_eq!(c.num_dffs(), 16);
//! assert!(c.stats().logic_gates >= 200);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::circuit::{BuildCircuitError, Circuit, CircuitBuilder};
use crate::gate::{GateId, GateKind};

/// Error from [`synthesize`]: the configuration cannot produce a valid
/// circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// `inputs + dffs == 0`: the circuit would have no signal source.
    NoSources,
    /// `gates == 0`: the circuit would have no logic to test.
    NoGates,
    /// A primary input or flip-flop output could not be wired into any
    /// gate (every generated gate has a fixed arity — e.g. a 1-gate
    /// configuration whose only gate is an inverter).
    UnwirableSource(GateId),
    /// The generated circuit failed validation.
    Build(BuildCircuitError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::NoSources => write!(f, "config needs at least one input or flip-flop"),
            SynthError::NoGates => write!(f, "config needs at least one logic gate"),
            SynthError::UnwirableSource(g) => {
                write!(f, "no variadic gate available to absorb unused source {g}")
            }
            SynthError::Build(e) => write!(f, "generated circuit is invalid: {e}"),
        }
    }
}

impl Error for SynthError {}

impl From<BuildCircuitError> for SynthError {
    fn from(e: BuildCircuitError) -> Self {
        SynthError::Build(e)
    }
}

/// Configuration for [`synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of logic gates (excluding inputs/flip-flops).
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of flip-flops.
    pub dffs: usize,
    /// Maximum gate fanin (>= 2).
    pub max_fanin: usize,
    /// Target number of logic levels. Real mapped netlists have depths of
    /// 10–30 levels; much deeper random circuits become unrealistically
    /// random-pattern-resistant (propagation probability decays per level).
    pub levels: usize,
    /// Fraction of XOR/XNOR gates in (0, 1); higher values create more
    /// random-pattern-resistant faults.
    pub xor_fraction: f64,
    /// RNG seed; equal seeds produce identical circuits.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            gates: 1000,
            inputs: 32,
            dffs: 64,
            max_fanin: 4,
            levels: 12,
            xor_fraction: 0.12,
            seed: 0xEEA_D5E,
        }
    }
}

/// Minimal deterministic RNG (SplitMix64). Keeps the library free of a hard
/// `rand` dependency; statistical quality is more than sufficient for
/// structure generation.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub(crate) fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn pick_kind(rng: &mut SplitMix64, fanin: usize, xor_fraction: f64) -> GateKind {
    if fanin == 1 {
        return if rng.unit() < 0.7 {
            GateKind::Not
        } else {
            GateKind::Buf
        };
    }
    if rng.unit() < xor_fraction {
        return if rng.unit() < 0.5 {
            GateKind::Xor
        } else {
            GateKind::Xnor
        };
    }
    // Inverting gates dominate: NAND/NOR keep signal probabilities balanced
    // along deep cones (a p=0.5 NAND chain oscillates around 0.25/0.75),
    // whereas AND/OR chains collapse towards constant signals and produce
    // unrealistically many random-untestable faults.
    match rng.below(10) {
        0..=3 => GateKind::Nand,
        4..=7 => GateKind::Nor,
        8 => GateKind::And,
        _ => GateKind::Or,
    }
}

fn pick_fanin_count(rng: &mut SplitMix64, max_fanin: usize) -> usize {
    // Mapped netlist-like distribution: mostly 2-input, some 3/4, few 1.
    let r = rng.unit();
    let n = if r < 0.08 {
        1
    } else if r < 0.72 {
        2
    } else if r < 0.92 {
        3
    } else {
        4
    };
    n.min(max_fanin.max(1))
}

/// Fraction of fanin pins drawn from the immediately preceding level;
/// the remainder reaches uniformly into all earlier levels (long wires /
/// reconvergence).
const PREV_LEVEL_BIAS: f64 = 0.7;

/// Generates a random full-scan circuit per `cfg`.
///
/// The result always validates: every flip-flop's data input is driven, and
/// every sink gate (no fanout) becomes a primary output, so no logic is
/// structurally unobservable.
///
/// # Errors
///
/// Returns [`SynthError`] for degenerate configurations
/// (`inputs + dffs == 0`, `gates == 0`, or a source that no generated gate
/// can absorb).
pub fn synthesize(cfg: &SynthConfig) -> Result<Circuit, SynthError> {
    if cfg.inputs + cfg.dffs == 0 {
        return Err(SynthError::NoSources);
    }
    if cfg.gates == 0 {
        return Err(SynthError::NoGates);
    }
    let mut rng = SplitMix64::new(cfg.seed);
    let mut b = CircuitBuilder::new();

    let mut pool: Vec<GateId> = Vec::with_capacity(cfg.inputs + cfg.dffs + cfg.gates);
    let mut has_fanout: Vec<bool> = Vec::with_capacity(pool.capacity());
    for i in 0..cfg.inputs {
        pool.push(b.input(&format!("pi{i}")));
        has_fanout.push(false);
    }
    let mut ffs = Vec::with_capacity(cfg.dffs);
    for i in 0..cfg.dffs {
        let ff = b.dff_deferred(&format!("ff{i}"));
        ffs.push(ff);
        pool.push(ff);
        has_fanout.push(false);
    }

    let num_sources = pool.len();
    // Levelised construction: level 0 holds the sources; logic gates are
    // spread evenly over `levels` levels and draw fanin mostly from the
    // previous level. This keeps the circuit shallow and wide like a real
    // mapped netlist, which is what makes it predominantly random-testable.
    let levels = cfg.levels.max(1).min(cfg.gates);
    let mut level_of: Vec<Vec<GateId>> = vec![pool.clone()];
    let mut gates = Vec::with_capacity(cfg.gates);
    for lvl in 0..levels {
        let width = cfg.gates / levels + usize::from(lvl < cfg.gates % levels);
        let mut this_level = Vec::with_capacity(width);
        for _ in 0..width {
            let i = gates.len();
            let n = pick_fanin_count(&mut rng, cfg.max_fanin);
            let mut fanin: Vec<GateId> = Vec::with_capacity(n);
            let mut attempts = 0;
            while fanin.len() < n && attempts < 32 {
                attempts += 1;
                // `level_of` always holds at least the source level.
                let Some(prev) = level_of.last() else { break };
                let s = if rng.unit() < PREV_LEVEL_BIAS || level_of.len() == 1 {
                    prev[rng.below(prev.len())]
                } else {
                    let l = rng.below(level_of.len());
                    level_of[l][rng.below(level_of[l].len())]
                };
                // A duplicated pin makes XOR(a, a) a constant and poisons
                // the downstream cone with redundant faults; never allow it.
                if !fanin.contains(&s) {
                    fanin.push(s);
                }
            }
            for &f in &fanin {
                has_fanout[f.index()] = true;
            }
            let kind = pick_kind(&mut rng, fanin.len(), cfg.xor_fraction);
            let g = b.gate(kind, &fanin, &format!("n{i}"));
            gates.push(g);
            pool.push(g);
            this_level.push(g);
            has_fanout.push(false);
        }
        if !this_level.is_empty() {
            level_of.push(this_level);
        }
    }

    // Drive each flip-flop from a distinct late gate where possible.
    for (i, &ff) in ffs.iter().enumerate() {
        let g = gates[gates.len() - 1 - (i % gates.len().min(cfg.dffs.max(1) * 2))];
        b.connect_dff(ff, g)?;
        has_fanout[g.index()] = true;
    }

    // Backstop for configurations with more sources than gates: wire every
    // still-unused source into some variadic gate so no primary input or
    // flip-flop output is structurally dead.
    let mut scan_from = 0;
    for si in 0..num_sources {
        if has_fanout[pool[si].index()] {
            continue;
        }
        let mut wired = false;
        // First pass respects the fanin cap; the second pass (for extreme
        // source/gate ratios) grows gates beyond `max_fanin`, which is
        // harmless for simulation purposes.
        for relax in [false, true] {
            for off in 0..gates.len() {
                let g = gates[(scan_from + off) % gates.len()];
                let variadic = matches!(
                    b.kind(g),
                    GateKind::And
                        | GateKind::Nand
                        | GateKind::Or
                        | GateKind::Nor
                        | GateKind::Xor
                        | GateKind::Xnor
                );
                if variadic && (relax || b.fanin_len(g) < cfg.max_fanin.max(2)) {
                    b.add_fanin(g, pool[si]);
                    has_fanout[pool[si].index()] = true;
                    scan_from = (scan_from + off + 1) % gates.len();
                    wired = true;
                    break;
                }
            }
            if wired {
                break;
            }
        }
        if !wired {
            return Err(SynthError::UnwirableSource(pool[si]));
        }
    }

    // Every sink gate becomes a primary output so no logic cone is
    // structurally unobservable.
    let mut n_outputs = 0;
    for &g in &gates {
        if !has_fanout[g.index()] {
            b.output(g);
            n_outputs += 1;
        }
    }
    if n_outputs == 0 {
        if let Some(&last) = gates.last() {
            b.output(last);
        }
    }
    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let cfg = SynthConfig {
            gates: 300,
            seed: 42,
            ..SynthConfig::default()
        };
        let a = synthesize(&cfg).expect("synthesizes");
        let b = synthesize(&cfg).expect("synthesizes");
        assert_eq!(a.stats(), b.stats());
        for (ga, gb) in a.gate_ids().zip(b.gate_ids()) {
            assert_eq!(a.kind(ga), b.kind(gb));
            assert_eq!(a.fanin(ga), b.fanin(gb));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(&SynthConfig {
            seed: 1,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        let b = synthesize(&SynthConfig {
            seed: 2,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        // Extremely unlikely to coincide in both structure and kinds.
        assert!(a.stats() != b.stats() || a.gate_ids().any(|g| a.kind(g) != b.kind(g)));
    }

    #[test]
    fn respects_sizes() {
        let cfg = SynthConfig {
            gates: 500,
            inputs: 20,
            dffs: 40,
            seed: 3,
            ..SynthConfig::default()
        };
        let c = synthesize(&cfg).expect("synthesizes");
        assert_eq!(c.num_inputs(), 20);
        assert_eq!(c.num_dffs(), 40);
        assert_eq!(c.stats().logic_gates, 500);
        assert!(c.num_outputs() > 0);
    }

    #[test]
    fn has_reasonable_depth() {
        let c = synthesize(&SynthConfig {
            gates: 2000,
            seed: 9,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        // Locality bias should create depth well beyond 3 levels.
        assert!(c.depth() > 5, "depth = {}", c.depth());
    }

    #[test]
    fn every_ff_is_driven() {
        let c = synthesize(&SynthConfig {
            gates: 100,
            inputs: 8,
            dffs: 12,
            seed: 11,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        for &ff in c.dffs() {
            assert_eq!(c.fanin(ff).len(), 1);
        }
    }

    #[test]
    fn sinks_are_outputs() {
        let c = synthesize(&SynthConfig {
            gates: 400,
            seed: 21,
            ..SynthConfig::default()
        })
        .expect("synthesizes");
        for g in c.gate_ids() {
            if !c.kind(g).is_combinational_source() && c.fanout(g).is_empty() {
                assert!(c.outputs().contains(&g), "sink {g} not an output");
            }
        }
    }

    #[test]
    fn splitmix_unit_range() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
