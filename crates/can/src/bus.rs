//! Event-driven CAN bus simulation.
//!
//! Models ID-based non-preemptive arbitration cycle-accurately at frame
//! granularity: whenever the bus goes idle, the pending frame with the
//! lowest identifier wins. Used to cross-check the analytical worst-case
//! response times and — crucially for the paper — to *demonstrate* that
//! mirrored test traffic leaves functional latencies unchanged.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::frame::CanId;
use crate::message::Message;

/// Error from constructing or running a [`BusSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusSimError {
    /// The bitrate must be positive — a 0 bit/s bus transmits nothing.
    ZeroBitrate,
    /// Two messages share an identifier; arbitration would be undefined on
    /// a real bus (both nodes would win and collide past the ID field).
    DuplicateId(CanId),
}

impl fmt::Display for BusSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusSimError::ZeroBitrate => write!(f, "bus bitrate must be positive"),
            BusSimError::DuplicateId(id) => {
                write!(f, "duplicate CAN identifier {id}: arbitration is undefined")
            }
        }
    }
}

impl Error for BusSimError {}

/// Observed per-message statistics of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageStats {
    /// Message identifier.
    pub id: CanId,
    /// Number of frame instances transmitted.
    pub frames: u64,
    /// Maximum observed response time (release -> end of transmission), µs.
    pub max_response_us: u64,
    /// Sum of response times (for averaging), µs.
    pub total_response_us: u64,
}

impl MessageStats {
    /// Average response time in microseconds.
    pub fn avg_response_us(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_response_us as f64 / self.frames as f64
        }
    }
}

/// Result of a [`BusSim`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-message statistics, in the input message order.
    pub stats: Vec<MessageStats>,
    /// Fraction of simulated time the bus was busy.
    pub utilization: f64,
    /// Simulated horizon in microseconds.
    pub horizon_us: u64,
}

impl SimResult {
    /// Looks up the stats of a message by identifier.
    pub fn by_id(&self, id: CanId) -> Option<&MessageStats> {
        self.stats.iter().find(|s| s.id == id)
    }
}

/// Event-driven simulator for one CAN bus.
#[derive(Debug, Clone)]
pub struct BusSim {
    bitrate_bps: u64,
}

impl BusSim {
    /// Creates a simulator at the given bitrate.
    ///
    /// # Errors
    ///
    /// Returns [`BusSimError::ZeroBitrate`] if `bitrate_bps == 0`.
    pub fn new(bitrate_bps: u64) -> Result<Self, BusSimError> {
        if bitrate_bps == 0 {
            return Err(BusSimError::ZeroBitrate);
        }
        Ok(BusSim { bitrate_bps })
    }

    /// Simulates `messages` for `horizon_us` microseconds. All releases are
    /// strictly periodic at `offset + k·period`.
    ///
    /// # Errors
    ///
    /// Returns [`BusSimError::DuplicateId`] if two messages share an
    /// identifier.
    pub fn run(&self, messages: &[Message], horizon_us: u64) -> Result<SimResult, BusSimError> {
        let mut seen: HashSet<u16> = HashSet::new();
        for m in messages {
            if !seen.insert(m.id().value()) {
                return Err(BusSimError::DuplicateId(m.id()));
            }
        }
        let mut stats: Vec<MessageStats> = messages
            .iter()
            .map(|m| MessageStats {
                id: m.id(),
                frames: 0,
                max_response_us: 0,
                total_response_us: 0,
            })
            .collect();
        // Next release time per message.
        let mut next_release: Vec<u64> = messages.iter().map(Message::offset_us).collect();
        // Pending queue: (message index, release time).
        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut now = 0u64;
        let mut busy_us = 0u64;

        loop {
            // Release everything due by `now`.
            for (i, m) in messages.iter().enumerate() {
                while next_release[i] <= now && next_release[i] < horizon_us {
                    pending.push((i, next_release[i]));
                    next_release[i] += m.period_us();
                }
            }
            if let Some(pos) = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(i, _))| messages[i].id())
                .map(|(pos, _)| pos)
            {
                let (i, release) = pending.swap_remove(pos);
                let c = messages[i].tx_time_us(self.bitrate_bps);
                let end = now + c;
                busy_us += c;
                let resp = end - release;
                let s = &mut stats[i];
                s.frames += 1;
                s.max_response_us = s.max_response_us.max(resp);
                s.total_response_us += resp;
                now = end;
                if now >= horizon_us {
                    break;
                }
            } else {
                // Idle: jump to the next release.
                let next = next_release
                    .iter()
                    .copied()
                    .filter(|&t| t < horizon_us)
                    .min();
                match next {
                    Some(t) => now = t,
                    None => break,
                }
            }
        }
        Ok(SimResult {
            stats,
            utilization: busy_us as f64 / horizon_us.max(1) as f64,
            horizon_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::BUS_BITRATE_BPS;
    use crate::rta::response_time;

    fn id(v: u16) -> CanId {
        CanId::new(v).expect("valid id")
    }

    fn msg(idv: u16, payload: u8, period: u64) -> Message {
        Message::new(id(idv), payload, period).unwrap()
    }

    #[test]
    fn frame_counts_match_periods() {
        let msgs = [msg(1, 8, 10_000), msg(2, 4, 20_000)];
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let res = sim.run(&msgs, 100_000).expect("unique ids");
        assert_eq!(res.stats[0].frames, 10);
        assert_eq!(res.stats[1].frames, 5);
    }

    #[test]
    fn simulated_response_never_exceeds_rta_bound() {
        let msgs = [
            msg(1, 8, 5_000),
            msg(3, 6, 10_000),
            msg(7, 8, 20_000),
            msg(11, 2, 50_000),
        ];
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let res = sim.run(&msgs, 1_000_000).expect("unique ids");
        for (m, s) in msgs.iter().zip(&res.stats) {
            let bound = response_time(m, &msgs, BUS_BITRATE_BPS).expect("schedulable set");
            assert!(
                s.max_response_us <= bound,
                "{}: simulated {} > bound {}",
                m.id(),
                s.max_response_us,
                bound
            );
        }
    }

    #[test]
    fn arbitration_prefers_lower_id() {
        // Two messages released simultaneously: the lower ID must always
        // observe the smaller worst-case response.
        let msgs = [msg(0x10, 8, 1_000), msg(0x300, 8, 1_000)];
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let res = sim.run(&msgs, 100_000).expect("unique ids");
        assert!(res.stats[0].max_response_us < res.stats[1].max_response_us);
    }

    #[test]
    fn utilization_accumulates() {
        let msgs = [msg(1, 8, 1_000)];
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let res = sim.run(&msgs, 1_000_000).expect("unique ids");
        // 270us per 1000us period = 27 %.
        assert!((res.utilization - 0.27).abs() < 0.01);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let msgs = [msg(1, 8, 1_000), msg(1, 4, 2_000)];
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        assert_eq!(sim.run(&msgs, 10_000), Err(BusSimError::DuplicateId(id(1))));
    }

    #[test]
    fn zero_bitrate_rejected() {
        assert_eq!(BusSim::new(0).unwrap_err(), BusSimError::ZeroBitrate);
    }

    #[test]
    fn empty_set_idles() {
        let sim = BusSim::new(BUS_BITRATE_BPS).expect("positive bitrate");
        let res = sim.run(&[], 10_000).expect("unique ids");
        assert_eq!(res.utilization, 0.0);
        assert!(res.stats.is_empty());
    }
}
