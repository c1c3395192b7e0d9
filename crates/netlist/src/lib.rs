//! Gate-level circuit model used as the circuit-under-test (CUT) substrate
//! for BIST profile generation.
//!
//! The paper characterises each BIST session on an automotive microprocessor
//! from Infineon (371,900 collapsed faults, 100 scan chains, maximum chain
//! length 77). That netlist is proprietary, so this crate provides the
//! closest open equivalent: a full-scan gate-level circuit model with
//!
//! * a typed gate library ([`GateKind`]),
//! * a validated, levelised circuit graph ([`Circuit`]) built through
//!   [`CircuitBuilder`],
//! * an ISCAS-style `.bench` parser/writer ([`bench_format`]),
//! * a seeded synthetic random-logic generator ([`synth`]) able to produce
//!   circuits of arbitrary size with realistic fanin/fanout distributions, and
//! * scan-chain insertion ([`scan`]) that partitions the state elements into
//!   balanced scan chains, exactly like the STUMPS architecture requires.
//!
//! Downstream, [`eea-faultsim`](https://example.invalid) enumerates stuck-at
//! faults on this representation and `eea-bist` shifts pseudo-random and
//! deterministic patterns through the scan chains.
//!
//! # Example
//!
//! ```
//! use eea_netlist::{CircuitBuilder, GateKind};
//!
//! # fn main() -> Result<(), eea_netlist::BuildCircuitError> {
//! let mut b = CircuitBuilder::new();
//! let a = b.input("a");
//! let c = b.input("c");
//! let g = b.gate(GateKind::Nand, &[a, c], "g");
//! b.output(g);
//! let circuit = b.finish()?;
//! assert_eq!(circuit.num_inputs(), 2);
//! assert_eq!(circuit.num_outputs(), 1);
//! # Ok(())
//! # }
//! ```

// Library targets are panic-free by policy (see DESIGN.md, "Error
// taxonomy"): unwrap/expect/panic! are denied outside test code, and a
// public function that can still panic documents it under `# Panics`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::missing_panics_doc
    )
)]

pub mod bench_format;
mod circuit;
mod gate;
pub mod scan;
pub mod synth;
pub mod verilog;

pub use bench_format::ParseBenchError;
pub use circuit::{BuildCircuitError, Circuit, CircuitBuilder, CircuitStats};
pub use gate::{GateId, GateKind, SimWord};
pub use scan::{ScanChains, ScanConfig, ScanError};
pub use synth::{synthesize, SynthConfig, SynthError};
pub use verilog::ParseVerilogError;

use std::error::Error;
use std::fmt;

/// Crate-level error: every fallible `eea-netlist` API returns a variant of
/// this (or an error that converts into it), so downstream crates can hold
/// one netlist error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// `.bench` parsing failed.
    Bench(bench_format::ParseBenchError),
    /// Verilog parsing failed.
    Verilog(verilog::ParseVerilogError),
    /// Circuit construction/validation failed.
    Build(BuildCircuitError),
    /// Synthetic circuit generation failed.
    Synth(SynthError),
    /// Scan-chain insertion failed.
    Scan(ScanError),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Bench(e) => write!(f, "bench: {e}"),
            NetlistError::Verilog(e) => write!(f, "verilog: {e}"),
            NetlistError::Build(e) => write!(f, "build: {e}"),
            NetlistError::Synth(e) => write!(f, "synth: {e}"),
            NetlistError::Scan(e) => write!(f, "scan: {e}"),
        }
    }
}

impl Error for NetlistError {}

impl From<bench_format::ParseBenchError> for NetlistError {
    fn from(e: bench_format::ParseBenchError) -> Self {
        NetlistError::Bench(e)
    }
}

impl From<verilog::ParseVerilogError> for NetlistError {
    fn from(e: verilog::ParseVerilogError) -> Self {
        NetlistError::Verilog(e)
    }
}

impl From<BuildCircuitError> for NetlistError {
    fn from(e: BuildCircuitError) -> Self {
        NetlistError::Build(e)
    }
}

impl From<SynthError> for NetlistError {
    fn from(e: SynthError) -> Self {
        NetlistError::Synth(e)
    }
}

impl From<ScanError> for NetlistError {
    fn from(e: ScanError) -> Self {
        NetlistError::Scan(e)
    }
}
