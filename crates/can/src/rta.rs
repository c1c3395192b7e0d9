//! Worst-case response-time analysis for CAN.
//!
//! CAN arbitration is non-preemptive fixed-priority scheduling: a message's
//! worst-case queuing delay is one blocking frame (a lower-priority frame
//! that just won the bus) plus the interference of all higher-priority
//! messages. The classic recurrence (Tindell/Burns, corrected by Davis et
//! al. 2007) is
//!
//! ```text
//! w = B + Σ_{k ∈ hp} ⌈(w + J_k + τ_bit) / T_k⌉ · C_k
//! R = J + w + C
//! ```
//!
//! The paper's *non-intrusive* claim rests on exactly this analysis: since
//! mirrored test messages have the same size, period and relative priority
//! as the functional messages they replace, every other message's `B`, `hp`
//! interference set, and hence `R`, is unchanged.

use std::error::Error;
use std::fmt;

use crate::frame::CanId;
use crate::message::Message;

/// Why the response-time analysis produced no bound for a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtaError {
    /// The higher-priority interference set alone demands ≥ 100 % of the
    /// bus: the queuing-delay recurrence grows without bound, so the
    /// fixpoint iteration can never terminate. Reported *before* iterating
    /// instead of spinning through the iteration cap.
    Overload {
        /// Aggregate utilisation of the higher-priority set.
        utilization: f64,
    },
    /// The iteration exceeded the message's period (deadline assumed =
    /// period): the message is unschedulable even though the bus is not
    /// overloaded at this priority level.
    DeadlineExceeded,
    /// The fixpoint iteration hit its defensive cap without converging.
    /// Unreachable for well-formed inputs (the queuing delay is a monotone
    /// integer sequence bounded by the deadline check), kept as a typed
    /// escape hatch instead of a panic.
    IterationCap,
}

impl fmt::Display for RtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtaError::Overload { utilization } => write!(
                f,
                "bus overloaded at this priority level ({:.1} % demand): busy period diverges",
                utilization * 100.0
            ),
            RtaError::DeadlineExceeded => {
                write!(f, "response time exceeds the period (deadline = period)")
            }
            RtaError::IterationCap => {
                write!(f, "fixpoint iteration cap reached without convergence")
            }
        }
    }
}

impl Error for RtaError {}

/// Analysis result for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtaResult {
    /// Message identifier.
    pub id: CanId,
    /// Worst-case response time in microseconds (queuing + transmission),
    /// or the typed reason no bound exists.
    pub response_us: Result<u64, RtaError>,
    /// Worst-case blocking by lower-priority traffic in microseconds.
    pub blocking_us: u64,
}

impl RtaResult {
    /// Whether the message meets its implicit deadline (= period).
    pub fn schedulable(&self) -> bool {
        self.response_us.is_ok()
    }
}

/// Worst-case response time of `target` against the complete message set
/// `all` (which should include `target` itself; it is excluded from its own
/// interference).
///
/// # Errors
///
/// * [`RtaError::Overload`] when the higher-priority interference set
///   alone demands 100 % of the bus — the queuing delay diverges, so this
///   is detected up front rather than discovered by iterating,
/// * [`RtaError::DeadlineExceeded`] when the bound exceeds the period,
/// * [`RtaError::IterationCap`] if the defensive iteration cap is hit.
pub fn response_time(target: &Message, all: &[Message], bitrate_bps: u64) -> Result<u64, RtaError> {
    let c = target.tx_time_us(bitrate_bps);
    let tau_bit = 1_000_000f64 / bitrate_bps.max(1) as f64;
    // Blocking: longest lower-or-equal-priority frame (excluding self).
    let blocking = all
        .iter()
        .filter(|m| !m.id().beats(target.id()) && m.id() != target.id())
        .map(|m| m.tx_time_us(bitrate_bps))
        .max()
        .unwrap_or(0);
    let hp: Vec<&Message> = all.iter().filter(|m| m.id().beats(target.id())).collect();

    // Divergence check: the recurrence w = B + Σ_{hp} ⌈…⌉·C_k has a finite
    // fixpoint iff the higher-priority set's utilisation is below 1 (each
    // iterate is bounded by an affine map with slope Σ C_k/T_k). At ≥ 1 the
    // iterates grow without bound — fail fast with the measured demand
    // instead of iterating.
    let utilization: f64 = hp
        .iter()
        .map(|m| m.tx_time_us(bitrate_bps) as f64 / m.period_us() as f64)
        .sum();
    if utilization >= 1.0 {
        return Err(RtaError::Overload { utilization });
    }

    // Seed: `w₀ = B + 1`. Any seed at or below the least fixpoint converges
    // to the least fixpoint, because the right-hand side of the recurrence
    // is monotone in `w` and the iterates form a non-decreasing sequence.
    // The true queuing delay is at least `B` (one blocking frame) and, via
    // the `n.max(1)` floor below, at least one frame of every hp message —
    // so `B + 1` is a valid under-approximation whenever any interference
    // exists, and when `hp` is empty the iteration settles on `B` in two
    // rounds. Starting one above `B` keeps the first interference window
    // strictly positive so the initial ⌈·⌉ terms are never zero.
    let mut w = blocking + 1;
    // Fixpoint iteration on the queuing delay.
    for _ in 0..10_000 {
        let mut next = blocking;
        for m in &hp {
            let interference_window = w as f64 + m.jitter_us() as f64 + tau_bit;
            let n = (interference_window / m.period_us() as f64).ceil() as u64;
            next += n.max(1) * m.tx_time_us(bitrate_bps);
        }
        if next == w {
            let r = target.jitter_us() + w + c;
            return if r <= target.period_us() {
                Ok(r)
            } else {
                Err(RtaError::DeadlineExceeded)
            };
        }
        if next.saturating_add(c) > target.period_us() {
            return Err(RtaError::DeadlineExceeded);
        }
        w = next;
    }
    Err(RtaError::IterationCap)
}

/// Runs the response-time analysis for every message in `all`.
pub fn analyze(all: &[Message], bitrate_bps: u64) -> Vec<RtaResult> {
    all.iter()
        .map(|m| {
            let blocking = all
                .iter()
                .filter(|o| !o.id().beats(m.id()) && o.id() != m.id())
                .map(|o| o.tx_time_us(bitrate_bps))
                .max()
                .unwrap_or(0);
            RtaResult {
                id: m.id(),
                response_us: response_time(m, all, bitrate_bps),
                blocking_us: blocking,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::BUS_BITRATE_BPS;

    fn id(v: u16) -> CanId {
        CanId::new(v).expect("valid id")
    }

    #[test]
    fn lone_message_response_is_tx_time() {
        let m = Message::new(id(1), 8, 10_000).unwrap();
        let r = response_time(&m, &[m], BUS_BITRATE_BPS).unwrap();
        // No blocking, no interference: R = C.
        assert_eq!(r, m.tx_time_us(BUS_BITRATE_BPS));
    }

    #[test]
    fn highest_priority_suffers_only_blocking() {
        let hi = Message::new(id(1), 2, 10_000).unwrap();
        let lo = Message::new(id(0x200), 8, 10_000).unwrap();
        let all = [hi, lo];
        let r = response_time(&hi, &all, BUS_BITRATE_BPS).unwrap();
        assert_eq!(
            r,
            lo.tx_time_us(BUS_BITRATE_BPS) + hi.tx_time_us(BUS_BITRATE_BPS)
        );
    }

    #[test]
    fn lower_priority_sees_interference() {
        let hi = Message::new(id(1), 8, 1_000).unwrap();
        let lo = Message::new(id(0x200), 8, 10_000).unwrap();
        let all = [hi, lo];
        let r_lo = response_time(&lo, &all, BUS_BITRATE_BPS).unwrap();
        let r_hi = response_time(&hi, &all, BUS_BITRATE_BPS).unwrap();
        // hi suffers blocking by lo's frame, lo suffers hi interference; in
        // this symmetric 2-message case the bounds coincide.
        assert!(r_lo >= r_hi);
        // lo experiences at least one hi frame of interference.
        assert!(r_lo >= hi.tx_time_us(BUS_BITRATE_BPS) + lo.tx_time_us(BUS_BITRATE_BPS));
    }

    #[test]
    fn overload_detected() {
        // Three 8-byte messages at 300 us period each exceed 100 % bus
        // utilisation at 500 kbit/s (270 us per frame). The lowest-priority
        // message sees 180 % higher-priority demand: the analysis must
        // report divergence up front, not spin through the iteration cap.
        let msgs = [
            Message::new(id(1), 8, 300).unwrap(),
            Message::new(id(2), 8, 300).unwrap(),
            Message::new(id(3), 8, 300).unwrap(),
        ];
        match response_time(&msgs[2], &msgs, BUS_BITRATE_BPS) {
            Err(RtaError::Overload { utilization }) => {
                assert!((utilization - 1.8).abs() < 1e-9);
            }
            other => panic!("expected Overload, got {other:?}"),
        }
    }

    #[test]
    fn unschedulable_but_not_overloaded() {
        // Higher-priority demand stays below 100 %, yet the target cannot
        // finish inside its own (tight) period: a deadline miss, not a
        // divergent busy period.
        let hi = Message::new(id(1), 8, 600).unwrap(); // 45 % of the bus
        let lo = Message::new(id(0x200), 8, 400).unwrap(); // C = 270 > 400 - 270
        let all = [hi, lo];
        assert_eq!(
            response_time(&lo, &all, BUS_BITRATE_BPS),
            Err(RtaError::DeadlineExceeded)
        );
    }

    #[test]
    fn analyze_covers_all() {
        let msgs = [
            Message::new(id(1), 4, 10_000).unwrap(),
            Message::new(id(5), 8, 20_000).unwrap(),
            Message::new(id(9), 1, 50_000).unwrap(),
        ];
        let res = analyze(&msgs, BUS_BITRATE_BPS);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|r| r.schedulable()));
        // The lowest-priority message has zero blocking from below.
        assert_eq!(res[2].blocking_us, 0);
    }
}
