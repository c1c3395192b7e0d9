use std::error::Error;
use std::fmt;

/// Default CAN bitrate used throughout the case study (500 kbit/s, the
/// usual rate of powertrain/chassis CAN in the paper's era).
pub const BUS_BITRATE_BPS: u64 = 500_000;

/// An 11-bit CAN 2.0A identifier. Lower numeric value = higher arbitration
/// priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanId(u16);

/// Error for identifiers outside the 11-bit range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCanIdError(pub u16);

impl fmt::Display for InvalidCanIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "identifier {:#x} exceeds the 11-bit CAN range", self.0)
    }
}

impl Error for InvalidCanIdError {}

impl CanId {
    /// Maximum legal identifier (2^11 - 1).
    pub const MAX: u16 = 0x7FF;

    /// Creates an identifier.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCanIdError`] if `id > 0x7FF`.
    pub fn new(id: u16) -> Result<Self, InvalidCanIdError> {
        if id > Self::MAX {
            Err(InvalidCanIdError(id))
        } else {
            Ok(CanId(id))
        }
    }

    /// Raw identifier value.
    #[inline]
    pub fn value(self) -> u16 {
        self.0
    }

    /// Whether `self` wins arbitration against `other` (lower value wins).
    #[inline]
    pub fn beats(self, other: CanId) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#05x}", self.0)
    }
}

impl TryFrom<u16> for CanId {
    type Error = InvalidCanIdError;

    fn try_from(v: u16) -> Result<Self, Self::Error> {
        CanId::new(v)
    }
}

/// Error for payloads exceeding the CAN 2.0 limit of 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPayloadError(pub u8);

impl fmt::Display for InvalidPayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload of {} bytes exceeds the CAN 2.0 limit of 8",
            self.0
        )
    }
}

impl Error for InvalidPayloadError {}

/// Worst-case transmitted bits of a CAN 2.0A data frame with `payload`
/// bytes, including the maximum possible bit stuffing.
///
/// The frame carries `47 + 8·s` bits of which `34 + 8·s` are subject to
/// stuffing (one stuff bit after each run of five); the classic worst case
/// (Davis et al., "Controller Area Network (CAN) schedulability analysis")
/// is
///
/// ```text
/// bits(s) = 47 + 8·s + floor((34 + 8·s − 1) / 4)
/// ```
///
/// The `47 + 8·s` fixed bits break down as `8·s` data bits plus 44 bits of
/// frame overhead (SOF, identifier, control, CRC, ACK, EOF) plus the 3-bit
/// interframe space.
///
/// # Errors
///
/// Returns [`InvalidPayloadError`] if `payload > 8`.
pub fn frame_bits(payload: u8) -> Result<u32, InvalidPayloadError> {
    if payload > 8 {
        return Err(InvalidPayloadError(payload));
    }
    Ok(frame_bits_checked_payload(payload))
}

/// Closed-form frame length for a payload already known to be `<= 8`
/// (guaranteed by [`crate::Message`]'s constructor validation).
pub(crate) fn frame_bits_checked_payload(payload: u8) -> u32 {
    let s = u32::from(payload);
    47 + 8 * s + (34 + 8 * s - 1) / 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_range() {
        assert!(CanId::new(0).is_ok());
        assert!(CanId::new(0x7FF).is_ok());
        assert_eq!(CanId::new(0x800), Err(InvalidCanIdError(0x800)));
        assert_eq!(CanId::try_from(5u16).map(CanId::value), Ok(5));
    }

    #[test]
    fn priority_order() {
        let high = CanId::new(0x10).unwrap();
        let low = CanId::new(0x400).unwrap();
        assert!(high.beats(low));
        assert!(!low.beats(high));
        assert!(!high.beats(high));
    }

    #[test]
    fn frame_bits_known_values() {
        // Standard literature values: 0-byte frame = 55 bits worst case,
        // 8-byte frame = 135 bits worst case.
        assert_eq!(frame_bits(0), Ok(55));
        assert_eq!(frame_bits(8), Ok(135));
        // Monotone in payload.
        for s in 0..8 {
            assert!(frame_bits(s + 1).unwrap() > frame_bits(s).unwrap());
        }
    }

    #[test]
    fn frame_bits_matches_can20a_closed_form() {
        // CAN 2.0A worst case for every legal payload n: 8n data bits plus
        // 44 overhead bits (SOF, ID, RTR, control, CRC, ACK, EOF) plus the
        // 3-bit interframe space, plus floor((34 + 8n - 1)/4) stuff bits in
        // the stuffable region.
        for n in 0u8..=8 {
            let data_and_overhead = 8 * u32::from(n) + 44;
            let interframe_space = 3;
            let stuff_bits = (34 + 8 * u32::from(n) - 1) / 4;
            assert_eq!(
                frame_bits(n),
                Ok(data_and_overhead + interframe_space + stuff_bits),
                "payload {n}"
            );
        }
    }

    #[test]
    fn frame_bits_rejects_oversize() {
        assert_eq!(frame_bits(9), Err(InvalidPayloadError(9)));
        assert_eq!(frame_bits(255), Err(InvalidPayloadError(255)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(CanId::new(0x123).unwrap().to_string(), "0x123");
        assert!(InvalidCanIdError(0x900).to_string().contains("11-bit"));
    }
}
