//! CAN bus modelling: frames, arbitration, response-time analysis and the
//! paper's non-intrusive schedule mirroring.
//!
//! The paper transfers encoded deterministic test patterns over a regular
//! CAN field bus as the *test access mechanism* (TAM). To keep the
//! certified bus schedule untouched, the test-data messages `c'` *mirror*
//! the communication properties — size, period and relative priority — of
//! the ECU's now-inactive functional messages `c` (Fig. 4). Eq. (1) of the
//! paper then gives the transfer time of a pattern set as its size divided
//! by the mirrored messages' aggregate bandwidth.
//!
//! Provided here:
//!
//! * [`CanId`]/[`frame_bits`] — identifiers and worst-case (bit-stuffed)
//!   frame lengths of CAN 2.0A data frames,
//! * [`Message`] — periodic messages with jitter and offset,
//! * [`response_time`]/[`analyze`] — the classic worst-case response-time
//!   analysis for CAN (non-preemptive fixed-priority arbitration),
//! * [`BusSim`] — an event-driven simulator of ID-based arbitration used to
//!   cross-check the analysis and to *demonstrate* non-intrusiveness rather
//!   than assume it,
//! * [`mirror_messages`]/[`transfer_time_s`] — the schedule mirroring and
//!   Eq. (1),
//! * [`TransportConfig`] — classic-CAN mirroring, CAN FD ([`fd`]) or
//!   FlexRay static slots ([`flexray`]), built into a [`Transport`]: the
//!   per-node payload bandwidth that prices every test-data transfer,
//! * [`ChannelConfig`] — the clean pass-through channel or a seeded
//!   [`NoisyChannel`] with frame errors, payload impairment and
//!   truncation ([`channel`]).
//!
//! # Example
//!
//! ```
//! use eea_can::{transfer_time_s, Message, CanId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An ECU sending 2 messages: 4 bytes @ 10 ms and 8 bytes @ 20 ms.
//! let msgs = vec![
//!     Message::new(CanId::new(0x100)?, 4, 10_000)?,
//!     Message::new(CanId::new(0x200)?, 8, 20_000)?,
//! ];
//! // Eq. (1): q = s / (sum of size/period). 1 MiB of test data:
//! let q = transfer_time_s(1 << 20, &msgs)?;
//! assert!(q > 0.0);
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

mod bus;
pub mod channel;
pub mod fd;
pub mod flexray;
mod frame;
mod message;
mod mirror;
mod rta;
pub mod transport;

pub use bus::{BusSim, BusSimError, MessageStats, SimResult};
pub use channel::{
    ChannelConfig, ChannelError, ChannelRng, Impairment, ImpairmentKind, NoisyChannel,
};
pub use frame::{frame_bits, CanId, InvalidCanIdError, InvalidPayloadError, BUS_BITRATE_BPS};
pub use message::{InvalidMessageError, Message};
pub use mirror::{mirror_messages, mirror_messages_auto, transfer_time_s, MirrorError};
pub use rta::{analyze, response_time, RtaError, RtaResult};
pub use transport::{Transport, TransportConfig, TransportError, TransportKind};

use std::error::Error;
use std::fmt;

/// Crate-level error: every fallible `eea-can` API returns a variant of
/// this (or an error that converts into it).
#[derive(Debug, Clone, PartialEq)]
pub enum CanError {
    /// Identifier outside the 11-bit range.
    Id(InvalidCanIdError),
    /// Payload outside the CAN 2.0 limit.
    Payload(InvalidPayloadError),
    /// Inconsistent message parameters.
    Message(InvalidMessageError),
    /// Schedule mirroring failed.
    Mirror(MirrorError),
    /// Response-time analysis produced no bound.
    Rta(RtaError),
    /// Bus simulation rejected its input.
    Sim(BusSimError),
    /// CAN FD payload not DLC-encodable.
    Fd(fd::InvalidFdPayloadError),
    /// FlexRay slot assignment failed.
    FlexRay(flexray::FlexRayError),
    /// A transport configuration was rejected or could not be built.
    Transport(TransportError),
    /// Channel-impairment configuration rejected.
    Channel(ChannelError),
}

impl fmt::Display for CanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanError::Id(e) => e.fmt(f),
            CanError::Payload(e) => e.fmt(f),
            CanError::Message(e) => e.fmt(f),
            CanError::Mirror(e) => e.fmt(f),
            CanError::Rta(e) => e.fmt(f),
            CanError::Sim(e) => e.fmt(f),
            CanError::Fd(e) => e.fmt(f),
            CanError::FlexRay(e) => e.fmt(f),
            CanError::Transport(e) => e.fmt(f),
            CanError::Channel(e) => e.fmt(f),
        }
    }
}

impl Error for CanError {}

impl From<InvalidCanIdError> for CanError {
    fn from(e: InvalidCanIdError) -> Self {
        CanError::Id(e)
    }
}

impl From<InvalidPayloadError> for CanError {
    fn from(e: InvalidPayloadError) -> Self {
        CanError::Payload(e)
    }
}

impl From<InvalidMessageError> for CanError {
    fn from(e: InvalidMessageError) -> Self {
        CanError::Message(e)
    }
}

impl From<MirrorError> for CanError {
    fn from(e: MirrorError) -> Self {
        CanError::Mirror(e)
    }
}

impl From<RtaError> for CanError {
    fn from(e: RtaError) -> Self {
        CanError::Rta(e)
    }
}

impl From<BusSimError> for CanError {
    fn from(e: BusSimError) -> Self {
        CanError::Sim(e)
    }
}

impl From<fd::InvalidFdPayloadError> for CanError {
    fn from(e: fd::InvalidFdPayloadError) -> Self {
        CanError::Fd(e)
    }
}

impl From<flexray::FlexRayError> for CanError {
    fn from(e: flexray::FlexRayError) -> Self {
        CanError::FlexRay(e)
    }
}

impl From<TransportError> for CanError {
    fn from(e: TransportError) -> Self {
        CanError::Transport(e)
    }
}

impl From<ChannelError> for CanError {
    fn from(e: ChannelError) -> Self {
        CanError::Channel(e)
    }
}
