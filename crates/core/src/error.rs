//! The workspace-wide error taxonomy.
//!
//! Every crate of the workspace defines its own typed error enum close to
//! the code that raises it; [`EeaError`] is the top of that hierarchy.
//! Each per-crate error converts into it via `From`, so a binary driving
//! the full pipeline (parse → augment → encode → explore → report) can
//! propagate any failure with `?` and print one coherent message:
//!
//! ```
//! use eea_dse::EeaError;
//!
//! fn pipeline(src: &str) -> Result<usize, EeaError> {
//!     let circuit = eea_netlist::bench_format::parse(src)?;
//!     Ok(circuit.num_gates())
//! }
//!
//! assert!(pipeline("nonsense").is_err());
//! ```
//!
//! The policy (see DESIGN.md, "Error taxonomy"): **no library layer may
//! panic on data-reachable conditions**. Constructor contracts that are
//! violated only by caller bugs use documented `assert!`s; everything a
//! malformed netlist, a degenerate message set, or a hostile configuration
//! can trigger is a typed `Err` that lands here.

use std::error::Error;
use std::fmt;

use crate::augment::AugmentError;
use crate::schedule::ScheduleError;

/// Top-level error of the reproduction pipeline: one variant per
/// originating layer, each wrapping that layer's own typed error enum.
#[derive(Debug, Clone, PartialEq)]
pub enum EeaError {
    /// Netlist ingestion or transformation (`eea-netlist`): `.bench` /
    /// Verilog parsing, circuit construction, synthesis, scan insertion.
    Netlist(eea_netlist::NetlistError),
    /// CAN layer (`eea-can`): identifiers, messages, Eq. (1) mirroring,
    /// response-time analysis, bus simulation, CAN FD.
    Can(eea_can::CanError),
    /// BIST profile generation (`eea-bist`).
    Profile(eea_bist::ProfileError),
    /// LFSR construction with an unsupported register width (`eea-bist`).
    Lfsr(eea_bist::UnsupportedLfsrWidthError),
    /// Specification or implementation validation (`eea-model`).
    Model(eea_model::ValidateError),
    /// Specification augmentation (this crate).
    Augment(AugmentError),
    /// Derived-schedule certification (this crate).
    Schedule(ScheduleError),
    /// Fleet campaign engine (`eea-fleet`, a *downstream* crate). The
    /// dependency direction — `eea-fleet` builds on this crate — means the
    /// concrete `FleetError` type cannot appear here without a cycle, so
    /// the variant carries its rendered message; `eea-fleet` provides the
    /// `From<FleetError> for EeaError` conversion (orphan-rule-legal since
    /// `FleetError` is local there), keeping `?` composition intact in
    /// binaries that mix both layers.
    Fleet(String),
}

impl fmt::Display for EeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EeaError::Netlist(e) => write!(f, "netlist: {e}"),
            EeaError::Can(e) => write!(f, "can: {e}"),
            EeaError::Profile(e) => write!(f, "bist profile: {e}"),
            EeaError::Lfsr(e) => write!(f, "lfsr: {e}"),
            EeaError::Model(e) => write!(f, "model: {e}"),
            EeaError::Augment(e) => write!(f, "augment: {e}"),
            EeaError::Schedule(e) => write!(f, "schedule: {e}"),
            EeaError::Fleet(msg) => write!(f, "fleet: {msg}"),
        }
    }
}

impl Error for EeaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EeaError::Netlist(e) => Some(e),
            EeaError::Can(e) => Some(e),
            EeaError::Profile(e) => Some(e),
            EeaError::Lfsr(e) => Some(e),
            EeaError::Model(e) => Some(e),
            EeaError::Augment(e) => Some(e),
            EeaError::Schedule(e) => Some(e),
            EeaError::Fleet(_) => None,
        }
    }
}

impl From<eea_netlist::NetlistError> for EeaError {
    fn from(e: eea_netlist::NetlistError) -> Self {
        EeaError::Netlist(e)
    }
}

/// Any error that converts into the netlist crate's own taxonomy (its
/// parse/build/synth/scan enums) also converts into [`EeaError`].
impl From<eea_netlist::ParseBenchError> for EeaError {
    fn from(e: eea_netlist::ParseBenchError) -> Self {
        EeaError::Netlist(e.into())
    }
}

impl From<eea_netlist::ParseVerilogError> for EeaError {
    fn from(e: eea_netlist::ParseVerilogError) -> Self {
        EeaError::Netlist(e.into())
    }
}

impl From<eea_netlist::BuildCircuitError> for EeaError {
    fn from(e: eea_netlist::BuildCircuitError) -> Self {
        EeaError::Netlist(e.into())
    }
}

impl From<eea_netlist::SynthError> for EeaError {
    fn from(e: eea_netlist::SynthError) -> Self {
        EeaError::Netlist(e.into())
    }
}

impl From<eea_netlist::ScanError> for EeaError {
    fn from(e: eea_netlist::ScanError) -> Self {
        EeaError::Netlist(e.into())
    }
}

impl From<eea_can::CanError> for EeaError {
    fn from(e: eea_can::CanError) -> Self {
        EeaError::Can(e)
    }
}

impl From<eea_can::MirrorError> for EeaError {
    fn from(e: eea_can::MirrorError) -> Self {
        EeaError::Can(e.into())
    }
}

impl From<eea_can::RtaError> for EeaError {
    fn from(e: eea_can::RtaError) -> Self {
        EeaError::Can(e.into())
    }
}

impl From<eea_can::BusSimError> for EeaError {
    fn from(e: eea_can::BusSimError) -> Self {
        EeaError::Can(e.into())
    }
}

impl From<eea_can::TransportError> for EeaError {
    fn from(e: eea_can::TransportError) -> Self {
        EeaError::Can(e.into())
    }
}

impl From<eea_bist::ProfileError> for EeaError {
    fn from(e: eea_bist::ProfileError) -> Self {
        EeaError::Profile(e)
    }
}

impl From<eea_bist::UnsupportedLfsrWidthError> for EeaError {
    fn from(e: eea_bist::UnsupportedLfsrWidthError) -> Self {
        EeaError::Lfsr(e)
    }
}

impl From<eea_model::ValidateError> for EeaError {
    fn from(e: eea_model::ValidateError) -> Self {
        EeaError::Model(e)
    }
}

impl From<AugmentError> for EeaError {
    fn from(e: AugmentError) -> Self {
        EeaError::Augment(e)
    }
}

impl From<ScheduleError> for EeaError {
    fn from(e: ScheduleError) -> Self {
        EeaError::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_layer() {
        let e: EeaError = AugmentError::NoGateway.into();
        assert!(e.to_string().contains("augment:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn from_can_layers() {
        let e: EeaError = eea_can::MirrorError::NoMessages.into();
        assert!(matches!(e, EeaError::Can(_)));
        let e: EeaError = eea_can::RtaError::DeadlineExceeded.into();
        assert!(matches!(e, EeaError::Can(_)));
        let e: EeaError = eea_can::TransportError::ZeroBandwidth.into();
        assert!(matches!(e, EeaError::Can(eea_can::CanError::Transport(_))));
    }

    #[test]
    fn from_netlist_layers() {
        let bad = eea_netlist::bench_format::parse("not a netlist").expect_err("must fail");
        let e: EeaError = bad.into();
        assert!(matches!(e, EeaError::Netlist(_)));
    }
}
