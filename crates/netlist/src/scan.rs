//! Scan-chain insertion for the STUMPS architecture.
//!
//! STUMPS (Self-Testing Unit using MISR and Parallel Shift register sequence
//! generator) feeds all scan chains in parallel from a pseudo-random pattern
//! generator and compacts all chain outputs into a MISR. Test time per
//! pattern is therefore governed by the *longest* chain, which is why the
//! paper's CUT uses 100 balanced chains with a maximum length of 77.
//!
//! [`ScanChains::balanced`] partitions a circuit's flip-flops round-robin
//! into `num_chains` chains, mirroring an industrial stitching tool's
//! balance objective.
//!
//! # Example
//!
//! ```
//! use eea_netlist::{synthesize, SynthConfig, ScanChains};
//!
//! let c = synthesize(&SynthConfig { gates: 100, inputs: 8, dffs: 50, seed: 1, ..SynthConfig::default() }).expect("synthesizes");
//! let chains = ScanChains::balanced(&c, 10).expect("at least one chain");
//! assert_eq!(chains.num_chains(), 10);
//! assert_eq!(chains.max_length(), 5);
//! ```

use std::error::Error;
use std::fmt;

use crate::circuit::Circuit;
use crate::gate::GateId;

/// Error from [`ScanChains::balanced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanError {
    /// A scan architecture needs at least one chain.
    ZeroChains,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::ZeroChains => write!(f, "scan architecture needs at least one chain"),
        }
    }
}

impl Error for ScanError {}

/// Scan-architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Number of parallel scan chains.
    pub num_chains: usize,
    /// Shift clock frequency in Hz (the paper's CUT shifts at 40 MHz).
    pub shift_frequency_hz: u64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        // The paper's CUT: 100 chains at 40 MHz.
        ScanConfig {
            num_chains: 100,
            shift_frequency_hz: 40_000_000,
        }
    }
}

/// A partition of a circuit's flip-flops into scan chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChains {
    chains: Vec<Vec<GateId>>,
    /// chain index and position for each flip-flop, indexed by the
    /// flip-flop's position in `Circuit::dffs()`.
    placement: Vec<(u32, u32)>,
}

impl ScanChains {
    /// Partitions the flip-flops of `circuit` round-robin into `num_chains`
    /// balanced chains. If the circuit has fewer flip-flops than chains, the
    /// surplus chains stay empty (chain count is preserved so that timing
    /// formulas depending on the configured architecture stay meaningful).
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::ZeroChains`] if `num_chains == 0`.
    pub fn balanced(circuit: &Circuit, num_chains: usize) -> Result<Self, ScanError> {
        if num_chains == 0 {
            return Err(ScanError::ZeroChains);
        }
        let mut chains: Vec<Vec<GateId>> = vec![Vec::new(); num_chains];
        let mut placement = Vec::with_capacity(circuit.num_dffs());
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            let chain = i % num_chains;
            placement.push((chain as u32, chains[chain].len() as u32));
            chains[chain].push(ff);
        }
        Ok(ScanChains { chains, placement })
    }

    /// Number of chains (including empty ones).
    #[inline]
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// The flip-flops of chain `i`, scan-in first.
    #[inline]
    pub fn chain(&self, i: usize) -> &[GateId] {
        &self.chains[i]
    }

    /// Iterator over all chains.
    pub fn iter(&self) -> impl Iterator<Item = &[GateId]> + '_ {
        self.chains.iter().map(|c| c.as_slice())
    }

    /// Length of the longest chain — the number of shift cycles needed to
    /// load (and simultaneously unload) one pattern.
    pub fn max_length(&self) -> usize {
        self.chains.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Chain index and shift position of the `i`-th flip-flop of the
    /// circuit (index into `Circuit::dffs()`).
    #[inline]
    pub fn placement(&self, dff_index: usize) -> (usize, usize) {
        let (c, p) = self.placement[dff_index];
        (c as usize, p as usize)
    }

    /// Total number of scan cells.
    pub fn num_cells(&self) -> usize {
        self.placement.len()
    }

    /// Shift cycles per pattern: load of pattern *k+1* overlaps with unload
    /// of pattern *k*, plus one capture cycle.
    pub fn cycles_per_pattern(&self) -> usize {
        self.max_length() + 1
    }

    /// Wall-clock test time for `patterns` patterns at `shift_frequency_hz`,
    /// in seconds: `(patterns + 1) * (max_length + 1) / f` (the `+1` pattern
    /// accounts for the final unload). A zero shift frequency yields
    /// `f64::INFINITY` — the test never completes — rather than a panic.
    pub fn test_time_s(&self, patterns: u64, shift_frequency_hz: u64) -> f64 {
        if shift_frequency_hz == 0 {
            return f64::INFINITY;
        }
        ((patterns + 1) * self.cycles_per_pattern() as u64) as f64 / shift_frequency_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthConfig};

    fn circuit(dffs: usize) -> Circuit {
        synthesize(&SynthConfig {
            gates: 50,
            inputs: 4,
            dffs,
            seed: 5,
            ..SynthConfig::default()
        })
        .expect("synthesizes")
    }

    #[test]
    fn balanced_partition() {
        let c = circuit(23);
        let chains = ScanChains::balanced(&c, 5).expect("at least one chain");
        let lens: Vec<usize> = chains.iter().map(|ch| ch.len()).collect();
        assert_eq!(lens, vec![5, 5, 5, 4, 4]);
        assert_eq!(chains.max_length(), 5);
        assert_eq!(chains.num_cells(), 23);
    }

    #[test]
    fn placement_consistent() {
        let c = circuit(12);
        let chains = ScanChains::balanced(&c, 4).expect("at least one chain");
        for (i, &ff) in c.dffs().iter().enumerate() {
            let (ci, pos) = chains.placement(i);
            assert_eq!(chains.chain(ci)[pos], ff);
        }
    }

    #[test]
    fn more_chains_than_ffs() {
        let c = circuit(3);
        let chains = ScanChains::balanced(&c, 8).expect("at least one chain");
        assert_eq!(chains.num_chains(), 8);
        assert_eq!(chains.max_length(), 1);
        assert_eq!(chains.iter().filter(|ch| ch.is_empty()).count(), 5);
    }

    #[test]
    fn test_time_matches_paper_order() {
        // Paper CUT: 100 chains, max length 77, 40 MHz. 500 patterns take
        // 500 * 78 / 40e6 ~ 0.975 ms of raw shift time (profile 1 reports
        // 4.87 ms including deterministic patterns and restore).
        let c = circuit(100);
        let chains = ScanChains::balanced(&c, 100).expect("at least one chain");
        assert_eq!(chains.max_length(), 1);
        let t = chains.test_time_s(500, 40_000_000);
        assert!(t > 0.0 && t < 0.001);
    }

    #[test]
    fn cycles_per_pattern() {
        let c = circuit(10);
        let chains = ScanChains::balanced(&c, 2).expect("at least one chain");
        assert_eq!(chains.cycles_per_pattern(), 6);
    }
}
