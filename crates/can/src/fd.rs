//! CAN FD frames — the first "other automotive field bus" the paper's
//! concept extends to.
//!
//! CAN FD keeps the arbitration semantics of classic CAN (so the mirroring
//! argument carries over verbatim) but switches to a higher bit rate for
//! the data phase and allows payloads up to 64 bytes. For the test-data
//! transfers of the paper this multiplies the mirrored bandwidth of
//! Eq. (1) without touching relative priorities.

use std::error::Error;
use std::fmt;

use crate::transport::TransportError;

/// Valid CAN FD payload lengths (DLC-encodable). Lengths are **payload
/// bytes** (the data field), not frame bits — compare
/// [`crate::frame_bits`], which counts the whole worst-case frame in bits.
pub const FD_PAYLOADS: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64];

/// Error for payloads not encodable in a CAN FD DLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidFdPayloadError(pub u8);

impl fmt::Display for InvalidFdPayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bytes is not a valid CAN FD payload length", self.0)
    }
}

impl Error for InvalidFdPayloadError {}

/// Rounds a payload size up to the next DLC-encodable CAN FD length.
///
/// # Errors
///
/// Returns [`InvalidFdPayloadError`] for sizes above 64 bytes.
pub fn fd_payload_round_up(bytes: u8) -> Result<u8, InvalidFdPayloadError> {
    FD_PAYLOADS
        .iter()
        .copied()
        .find(|&p| p >= bytes)
        .ok_or(InvalidFdPayloadError(bytes))
}

/// Dual-rate CAN FD bus configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdConfig {
    /// Arbitration-phase bit rate (classic, e.g. 500 kbit/s).
    pub nominal_bps: u64,
    /// Data-phase bit rate (e.g. 2 or 5 Mbit/s).
    pub data_bps: u64,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            nominal_bps: 500_000,
            data_bps: 2_000_000,
        }
    }
}

impl FdConfig {
    /// Checked constructor: rejects configurations that grant zero
    /// bandwidth instead of letting them flow into the bandwidth
    /// arithmetic, where a zero bit rate previously yielded `INFINITY`
    /// frame times silently (the rates are only clamped, not validated,
    /// by [`FdConfig::frame_time_us`]).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::ZeroBandwidth`] when either bit rate is
    /// zero.
    pub fn checked(nominal_bps: u64, data_bps: u64) -> Result<Self, TransportError> {
        if nominal_bps == 0 || data_bps == 0 {
            return Err(TransportError::ZeroBandwidth);
        }
        Ok(FdConfig {
            nominal_bps,
            data_bps,
        })
    }

    /// Worst-case transmission time of a CAN FD frame with `payload` bytes
    /// (11-bit identifier), in microseconds.
    ///
    /// Bit counts follow the ISO 11898-1 FD format: ~30 arbitration-phase
    /// bits (SOF, identifier, control up to BRS) plus the data phase
    /// (remaining control, payload, 17/21-bit CRC with fixed stuff bits,
    /// stuffing) transmitted at the data rate, plus the ACK/EOF tail at
    /// the nominal rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFdPayloadError`] if `payload` is not DLC-encodable
    /// (use [`fd_payload_round_up`] first). Both rates of the configuration
    /// are clamped to at least 1 bit/s to keep the arithmetic total.
    pub fn frame_time_us(&self, payload: u8) -> Result<u64, InvalidFdPayloadError> {
        if !FD_PAYLOADS.contains(&payload) {
            return Err(InvalidFdPayloadError(payload));
        }
        let arbitration_bits = 30u64; // SOF + 11-bit id + RRS/IDE/FDF/res + BRS
        let crc_bits: u64 = if payload <= 16 { 17 + 5 } else { 21 + 6 }; // incl. fixed stuff
        let data_field_bits = 8 * u64::from(payload);
        // Dynamic stuffing applies up to the CRC field (1 in 5 worst case).
        let stuffable = 4 + data_field_bits; // ESI + DLC + data
        let data_phase_bits = stuffable + stuffable.div_ceil(4) + crc_bits;
        let tail_bits = 13u64; // CRC delim, ACK, EOF, part of IFS
        let us = |bits: u64, bps: u64| (bits * 1_000_000).div_ceil(bps.max(1));
        Ok(us(arbitration_bits, self.nominal_bps)
            + us(data_phase_bits, self.data_bps)
            + us(tail_bits, self.nominal_bps))
    }

    /// Effective payload bandwidth (bytes/s) of a periodic FD message
    /// whose data field carries `payload` **bytes** (not bits — frame-level
    /// bit counts live in [`FdConfig::frame_time_us`]). A
    /// zero period yields `f64::INFINITY` (degenerate input, documented
    /// rather than panicking); callers validating messages via
    /// [`crate::Message`] never hit it.
    pub fn payload_bandwidth_bytes_per_s(&self, payload: u8, period_us: u64) -> f64 {
        if period_us == 0 {
            return f64::INFINITY;
        }
        f64::from(payload) * 1e6 / period_us as f64
    }

    /// Speed-up of the mirrored Eq. (1) transfer when a classic CAN
    /// message of `classic_payload` **bytes** is upgraded to an FD frame of
    /// `fd_payload` **bytes** at the same period: the bandwidth ratio. A zero
    /// classic payload yields `f64::INFINITY` (no classic bandwidth to
    /// compare against).
    pub fn eq1_speedup(&self, classic_payload: u8, fd_payload: u8) -> f64 {
        if classic_payload == 0 {
            return f64::INFINITY;
        }
        f64::from(fd_payload) / f64::from(classic_payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_bits;

    #[test]
    fn payload_rounding() {
        assert_eq!(fd_payload_round_up(0), Ok(0));
        assert_eq!(fd_payload_round_up(8), Ok(8));
        assert_eq!(fd_payload_round_up(9), Ok(12));
        assert_eq!(fd_payload_round_up(33), Ok(48));
        assert_eq!(fd_payload_round_up(64), Ok(64));
        assert_eq!(fd_payload_round_up(65), Err(InvalidFdPayloadError(65)));
    }

    #[test]
    fn fd_frame_faster_per_byte_than_classic() {
        let fd = FdConfig::default();
        // 64 bytes FD vs 8 x 8-byte classic frames at 500 kbit/s.
        let fd_time = fd.frame_time_us(64).unwrap();
        let classic_time = 8 * (u64::from(frame_bits(8).unwrap()) * 1_000_000).div_ceil(500_000);
        assert!(
            fd_time < classic_time / 2,
            "FD {fd_time}us vs classic {classic_time}us"
        );
    }

    #[test]
    fn frame_time_monotone_in_payload() {
        let fd = FdConfig::default();
        let mut last = 0;
        for &p in &FD_PAYLOADS {
            let t = fd.frame_time_us(p).unwrap();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn higher_data_rate_shortens_frames() {
        let slow = FdConfig {
            nominal_bps: 500_000,
            data_bps: 1_000_000,
        };
        let fast = FdConfig {
            nominal_bps: 500_000,
            data_bps: 5_000_000,
        };
        assert!(fast.frame_time_us(64).unwrap() < slow.frame_time_us(64).unwrap());
    }

    #[test]
    fn eq1_speedup_ratio() {
        let fd = FdConfig::default();
        // Upgrading an 8-byte mirror to a 64-byte FD mirror at the same
        // period multiplies the Eq. (1) bandwidth by 8.
        assert!((fd.eq1_speedup(8, 64) - 8.0).abs() < 1e-12);
        let bw_classic = fd.payload_bandwidth_bytes_per_s(8, 10_000);
        let bw_fd = fd.payload_bandwidth_bytes_per_s(64, 10_000);
        assert!((bw_fd / bw_classic - 8.0).abs() < 1e-12);
    }

    #[test]
    fn checked_constructor_rejects_zero_rates() {
        assert_eq!(
            FdConfig::checked(0, 2_000_000),
            Err(TransportError::ZeroBandwidth)
        );
        assert_eq!(
            FdConfig::checked(500_000, 0),
            Err(TransportError::ZeroBandwidth)
        );
        assert_eq!(
            FdConfig::checked(500_000, 2_000_000),
            Ok(FdConfig::default())
        );
    }

    #[test]
    fn rejects_bad_payload() {
        assert_eq!(
            FdConfig::default().frame_time_us(9),
            Err(InvalidFdPayloadError(9))
        );
    }
}
