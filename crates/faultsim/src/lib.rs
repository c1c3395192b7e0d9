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

//! Single stuck-at fault model and bit-parallel fault simulation.
//!
//! This crate provides the structural-test substrate behind the paper's
//! *fault coverage* numbers: the fault coverage `c(b)` of a BIST session is
//! "the achieved stuck-at fault coverage \[Eldred'59\] and can be estimated
//! by means of fault simulation" (Section III of the paper).
//!
//! Contents:
//!
//! * [`Fault`]/[`FaultSite`] — stuck-at faults on gate output stems and
//!   input-pin branches,
//! * [`enumerate_faults`] + [`collapse`] — fault universe construction with
//!   structural equivalence collapsing (the paper quotes *collapsed* fault
//!   counts),
//! * [`BitBlock`] — the wide pattern word (`[u64; LANES]`, 512 patterns at
//!   the default width) every simulator is generic over,
//! * [`PatternBlock`]/[`GoodSim`] — bit-parallel logic simulation of the
//!   full-scan combinational core, one pattern per block bit,
//! * [`FaultSim`] — PPSFP (parallel-pattern single-fault propagation) with
//!   event-driven cone simulation and early exit,
//! * [`ParFaultSim`] — worklist-parallel PPSFP over `std::thread::scope`
//!   workers, bit-identical to the serial path at any thread count,
//! * [`FaultUniverse`] — detection bookkeeping and coverage curves.
//!
//! The unqualified names above are aliases of generic `Wide*` types pinned
//! to [`DEFAULT_LANES`]; the generics ([`WidePatternBlock`],
//! [`WideFaultSim`], …) accept any lane count, and lane count 1 is
//! bit-for-bit the classic 64-pattern `u64` path.
//!
//! # Example
//!
//! ```
//! use eea_netlist::bench_format;
//! use eea_faultsim::{FaultUniverse, FaultSim, PatternBlock};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = bench_format::parse(bench_format::C17)?;
//! let mut universe = FaultUniverse::collapsed(&c);
//! let mut sim = FaultSim::new(&c);
//! // Exhaustive 32-pattern test of the 5-input circuit fits one block:
//! let block = PatternBlock::exhaustive(&c).expect("few inputs");
//! sim.detect_block(&block, &mut universe);
//! assert!((universe.coverage() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod block;
mod collapsing;
mod fault;
mod par;
mod ppsfp;
mod sim;
mod transition;
mod universe;

pub use block::{BitBlock, DEFAULT_LANES};
pub use collapsing::{collapse, CollapseReport};
pub use fault::{enumerate_faults, Fault, FaultSite};
pub use par::{resolve_threads, ParFaultSim, WideParFaultSim};
pub use ppsfp::{FaultSim, WideFaultSim};
pub use sim::{GoodSim, PatternBlock, Response, WideGoodSim, WidePatternBlock, WideResponse};
pub use transition::{
    enumerate_transition_faults, launch_on_capture, transition_coverage, TransitionFault,
    TransitionKind, TransitionSim, WideTransitionSim,
};
pub use universe::{CoveragePoint, FaultUniverse};
