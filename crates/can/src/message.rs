use std::error::Error;
use std::fmt;

use crate::frame::{frame_bits_checked_payload, CanId};

/// A periodic CAN message. Time unit: microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    id: CanId,
    payload: u8,
    period_us: u64,
    offset_us: u64,
    jitter_us: u64,
}

/// Error for inconsistent message parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidMessageError {
    /// Payload exceeds 8 bytes.
    Payload(u8),
    /// Period must be positive.
    ZeroPeriod,
}

impl fmt::Display for InvalidMessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidMessageError::Payload(p) => {
                write!(f, "payload of {p} bytes exceeds the CAN 2.0 limit of 8")
            }
            InvalidMessageError::ZeroPeriod => write!(f, "message period must be positive"),
        }
    }
}

impl Error for InvalidMessageError {}

impl Message {
    /// Creates a message with zero offset and jitter.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMessageError`] for payloads over 8 bytes or a zero
    /// period.
    pub fn new(id: CanId, payload: u8, period_us: u64) -> Result<Self, InvalidMessageError> {
        Self::with_timing(id, payload, period_us, 0, 0)
    }

    /// Creates a message with explicit release offset and queuing jitter.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMessageError`] for payloads over 8 bytes or a zero
    /// period.
    pub fn with_timing(
        id: CanId,
        payload: u8,
        period_us: u64,
        offset_us: u64,
        jitter_us: u64,
    ) -> Result<Self, InvalidMessageError> {
        if payload > 8 {
            return Err(InvalidMessageError::Payload(payload));
        }
        if period_us == 0 {
            return Err(InvalidMessageError::ZeroPeriod);
        }
        Ok(Message {
            id,
            payload,
            period_us,
            offset_us,
            jitter_us,
        })
    }

    /// Arbitration identifier.
    #[inline]
    pub fn id(&self) -> CanId {
        self.id
    }

    /// Payload size in bytes (0..=8).
    #[inline]
    pub fn payload(&self) -> u8 {
        self.payload
    }

    /// Period in microseconds.
    #[inline]
    pub fn period_us(&self) -> u64 {
        self.period_us
    }

    /// Release offset in microseconds.
    #[inline]
    pub fn offset_us(&self) -> u64 {
        self.offset_us
    }

    /// Queuing jitter in microseconds.
    #[inline]
    pub fn jitter_us(&self) -> u64 {
        self.jitter_us
    }

    /// Returns a copy with a different identifier — the mirroring primitive:
    /// same size, period and timing, fresh ID.
    pub fn with_id(mut self, id: CanId) -> Self {
        self.id = id;
        self
    }

    /// Worst-case frame transmission time in microseconds at `bitrate_bps`.
    /// A zero bitrate means the frame never completes; the time saturates
    /// to `u64::MAX` instead of panicking.
    pub fn tx_time_us(&self, bitrate_bps: u64) -> u64 {
        if bitrate_bps == 0 {
            return u64::MAX;
        }
        (u64::from(frame_bits_checked_payload(self.payload)) * 1_000_000).div_ceil(bitrate_bps)
    }

    /// Long-run bandwidth share of this message: bytes of payload per
    /// second (`s(c) / p(c)` of Eq. (1)).
    pub fn payload_bandwidth_bytes_per_s(&self) -> f64 {
        f64::from(self.payload) * 1e6 / self.period_us as f64
    }

    /// Bus utilisation fraction of this message at `bitrate_bps` (frame
    /// bits, not just payload).
    pub fn utilization(&self, bitrate_bps: u64) -> f64 {
        self.tx_time_us(bitrate_bps) as f64 / self.period_us as f64
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}B @{}us", self.id, self.payload, self.period_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u16) -> CanId {
        CanId::new(v).expect("valid id")
    }

    #[test]
    fn validation() {
        assert!(Message::new(id(1), 9, 1000).is_err());
        assert!(Message::new(id(1), 8, 0).is_err());
        assert!(Message::new(id(1), 8, 1000).is_ok());
    }

    #[test]
    fn tx_time_500k() {
        // 8-byte frame, 135 bits worst case at 500 kbit/s = 270 us.
        let m = Message::new(id(1), 8, 10_000).unwrap();
        assert_eq!(m.tx_time_us(500_000), 270);
    }

    #[test]
    fn zero_bitrate_saturates() {
        let m = Message::new(id(1), 8, 10_000).unwrap();
        assert_eq!(m.tx_time_us(0), u64::MAX);
    }

    #[test]
    fn bandwidth_and_utilization() {
        let m = Message::new(id(1), 4, 10_000).unwrap();
        // 4 bytes per 10 ms = 400 bytes/s.
        assert!((m.payload_bandwidth_bytes_per_s() - 400.0).abs() < 1e-9);
        let u = m.utilization(500_000);
        assert!(u > 0.0 && u < 1.0);
    }

    #[test]
    fn with_id_preserves_timing() {
        let m = Message::with_timing(id(5), 6, 5_000, 100, 50).unwrap();
        let m2 = m.with_id(id(0x700));
        assert_eq!(m2.id().value(), 0x700);
        assert_eq!(m2.payload(), 6);
        assert_eq!(m2.period_us(), 5_000);
        assert_eq!(m2.offset_us(), 100);
        assert_eq!(m2.jitter_us(), 50);
    }
}
