//! Test-data transports: classic-CAN mirroring, CAN FD and FlexRay as one
//! per-node bandwidth table.
//!
//! The paper's non-intrusive scheme hinges on one quantity: the time to
//! move `s` bytes of test data (or fail data) to/from an inactive ECU
//! without perturbing the certified bus schedule. Eq. (1) gives it for
//! classic-CAN mirroring; the outlook sketches the same argument for CAN
//! FD (identical arbitration, faster data phase, bigger payloads) and
//! FlexRay (static-segment TDMA, non-intrusive by construction). Each of
//! them reduces to one payload bandwidth per node:
//!
//! * [`TransportConfig`] — the declarative selection plus parameters the
//!   layers above (DSE objectives, fleet blueprints, bench binaries) carry
//!   around; [`validate`](TransportConfig::validate) is the one place the
//!   parameters are checked,
//! * [`Transport`] — what [`build`](TransportConfig::build) returns over
//!   per-node message sets: the payload bandwidth of every node, summed
//!   once in message order, and the Eq. (1) transfer-time query.
//!
//! Nodes are opaque `u32` tags (the same convention as
//! [`FlexRaySchedule`]); callers map their ECU identifiers onto them. The
//! same node → message-set map always produces the same bandwidths, in the
//! same floating-point order, so higher layers can promise bit-identical
//! results at any thread count.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::fd::{fd_payload_round_up, FdConfig};
use crate::flexray::{FlexRayConfig, FlexRayError, FlexRaySchedule};
use crate::message::Message;

/// Which transport a [`TransportConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransportKind {
    /// Classic-CAN schedule mirroring (Eq. (1) of the paper).
    MirroredCan,
    /// CAN FD: mirrored arbitration, payloads upgraded to FD lengths.
    CanFd,
    /// FlexRay static segment: TDMA slots owned by the node.
    FlexRay,
}

impl TransportKind {
    /// All transports, in canonical (classic → FD → FlexRay) order.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::MirroredCan,
        TransportKind::CanFd,
        TransportKind::FlexRay,
    ];

    /// Stable lowercase label used in artifact files (CSV/JSON) and logs.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::MirroredCan => "classic-can",
            TransportKind::CanFd => "can-fd",
            TransportKind::FlexRay => "flexray",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error of the transport layer. Converges into [`crate::CanError`] (and
/// from there into the workspace-wide `EeaError`) like every other enum of
/// this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The node has no payload bandwidth on this transport (no mirrored
    /// message, no static slot) — a transfer can never complete.
    NoBandwidth(u32),
    /// A bus configuration grants zero bandwidth overall: an [`FdConfig`]
    /// with a zero bit rate, or a FlexRay configuration with a zero cycle,
    /// zero slots, zero slot payload or zero slots per node. Previously
    /// such configurations silently produced `inf`/`NaN` transfer times.
    ZeroBandwidth,
    /// The CAN FD payload multiplier is not a positive finite number.
    InvalidMultiplier(f64),
    /// FlexRay slot assignment failed.
    FlexRay(FlexRayError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NoBandwidth(node) => {
                write!(f, "node {node} has no payload bandwidth on this transport")
            }
            TransportError::ZeroBandwidth => {
                write!(f, "bus configuration grants zero bandwidth")
            }
            TransportError::InvalidMultiplier(m) => {
                write!(
                    f,
                    "CAN FD payload multiplier must be positive and finite, got {m}"
                )
            }
            TransportError::FlexRay(e) => e.fmt(f),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::FlexRay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlexRayError> for TransportError {
    fn from(e: FlexRayError) -> Self {
        TransportError::FlexRay(e)
    }
}

/// A built test-data transport: the aggregate payload bandwidth the
/// certified schedule grants each node without perturbing any other
/// participant (the denominator of Eq. (1) and its analogues).
#[derive(Debug, Clone, PartialEq)]
pub struct Transport {
    bandwidth: BTreeMap<u32, f64>,
}

impl Transport {
    /// Aggregate payload bandwidth (bytes/s) available to `node`; `0.0`
    /// for a node the transport was not built over.
    pub fn bandwidth_bytes_per_s(&self, node: u32) -> f64 {
        self.bandwidth.get(&node).copied().unwrap_or(0.0)
    }

    /// Transfer time (seconds) of `data_bytes` of test data to/from
    /// `node` — Eq. (1) for mirrored CAN, its analogues for FD/FlexRay.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoBandwidth`] when the node has no payload
    /// bandwidth on this transport, never a silent `inf`.
    pub fn transfer_time_s(&self, node: u32, data_bytes: u64) -> Result<f64, TransportError> {
        let bandwidth = self.bandwidth_bytes_per_s(node);
        if bandwidth <= 0.0 {
            Err(TransportError::NoBandwidth(node))
        } else {
            Ok(data_bytes as f64 / bandwidth)
        }
    }
}

/// A classic payload (bytes) scaled by `multiplier`, rounded up to the
/// next DLC-encodable FD length and capped at 64 bytes. A multiplier of
/// exactly 1.0 returns the payload itself: the product and its `ceil` are
/// exact for an integer payload.
fn upgrade_payload(payload: u8, multiplier: f64) -> u8 {
    let scaled = (f64::from(payload) * multiplier).ceil().clamp(0.0, 64.0);
    // Every length up to 64 rounds up to a DLC-encodable one.
    fd_payload_round_up(scaled as u8).unwrap_or(64)
}

/// Declarative transport selection plus parameters — what the layers above
/// carry in their configuration structs (`DseConfig`, fleet blueprints,
/// bench knobs) and [`build`](TransportConfig::build) into a [`Transport`]
/// per decoded implementation.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TransportConfig {
    /// Classic-CAN mirroring (the paper's baseline; the default): a node's
    /// bandwidth is Σ `s(c)/p(c)` over its messages.
    #[default]
    MirroredCan,
    /// CAN FD: classic arbitration (the mirroring argument carries over
    /// verbatim), every frame's payload scaled by `payload_multiplier`,
    /// rounded up to the next DLC-encodable length and capped at 64 bytes.
    /// Periods are untouched, so relative priorities and the certified
    /// schedule stay intact while the Eq. (1) bandwidth multiplies.
    CanFd {
        /// Dual-rate bus configuration.
        config: FdConfig,
        /// Payload scale factor (`1.0` reproduces classic CAN bit for
        /// bit; `8.0` upgrades 8-byte frames to 64-byte FD frames).
        payload_multiplier: f64,
    },
    /// FlexRay static segment: a node's bandwidth is the payload of the
    /// static slots it owns per communication cycle.
    FlexRay {
        /// Static-segment configuration.
        config: FlexRayConfig,
        /// Consecutive static slots granted to each node, in ascending
        /// node order, until the segment is exhausted; later nodes own
        /// nothing.
        slots_per_node: u16,
    },
}

impl TransportConfig {
    /// The default CAN FD axis point: standard 500 k/2 M dual-rate bus,
    /// 8-byte mirrors upgraded to 64-byte FD frames.
    pub fn can_fd_default() -> Self {
        TransportConfig::CanFd {
            config: FdConfig::default(),
            payload_multiplier: 8.0,
        }
    }

    /// The default FlexRay axis point: standard 5 ms / 62-slot / 32-byte
    /// static segment, four slots per node.
    pub fn flexray_default() -> Self {
        TransportConfig::FlexRay {
            config: FlexRayConfig::default(),
            slots_per_node: 4,
        }
    }

    /// The transport this configuration selects.
    pub fn kind(&self) -> TransportKind {
        match self {
            TransportConfig::MirroredCan => TransportKind::MirroredCan,
            TransportConfig::CanFd { .. } => TransportKind::CanFd,
            TransportConfig::FlexRay { .. } => TransportKind::FlexRay,
        }
    }

    /// The default configuration of a given transport.
    pub fn for_kind(kind: TransportKind) -> Self {
        match kind {
            TransportKind::MirroredCan => TransportConfig::MirroredCan,
            TransportKind::CanFd => TransportConfig::can_fd_default(),
            TransportKind::FlexRay => TransportConfig::flexray_default(),
        }
    }

    /// Checks the configuration parameters: everything
    /// [`build`](TransportConfig::build) could reject, none of which
    /// depends on the node → message-set map.
    ///
    /// # Errors
    ///
    /// * [`TransportError::InvalidMultiplier`] unless the CAN FD
    ///   multiplier is positive and finite,
    /// * [`TransportError::ZeroBandwidth`] for a zero CAN FD bit rate
    ///   ([`FdConfig::checked`]), or a FlexRay configuration with a zero
    ///   cycle length, zero slots, zero slot payload or zero slots per
    ///   node.
    pub fn validate(&self) -> Result<(), TransportError> {
        match self {
            TransportConfig::MirroredCan => Ok(()),
            TransportConfig::CanFd {
                config,
                payload_multiplier,
            } => {
                if !payload_multiplier.is_finite() || *payload_multiplier <= 0.0 {
                    return Err(TransportError::InvalidMultiplier(*payload_multiplier));
                }
                FdConfig::checked(config.nominal_bps, config.data_bps).map(|_| ())
            }
            TransportConfig::FlexRay {
                config,
                slots_per_node,
            } => {
                if config.cycle_us == 0
                    || config.static_slots == 0
                    || config.slot_payload_bytes == 0
                    || *slots_per_node == 0
                {
                    return Err(TransportError::ZeroBandwidth);
                }
                Ok(())
            }
        }
    }

    /// Builds the per-node bandwidth table over per-node message sets (for
    /// FlexRay only the node *keys* matter: slots are assigned evenly over
    /// them in ascending node order). Every node of `nodes` gets an entry,
    /// summed once in message order.
    ///
    /// # Errors
    ///
    /// The parameter errors of [`validate`](TransportConfig::validate);
    /// node-map-dependent errors cannot occur (payload upgrades are capped
    /// and slot assignment stops at the segment boundary).
    pub fn build(&self, nodes: BTreeMap<u32, Vec<Message>>) -> Result<Transport, TransportError> {
        self.validate()?;
        let bandwidth = match self {
            TransportConfig::MirroredCan => nodes
                .into_iter()
                .map(|(node, msgs)| {
                    let bandwidth = msgs
                        .iter()
                        .map(Message::payload_bandwidth_bytes_per_s)
                        .sum();
                    (node, bandwidth)
                })
                .collect(),
            TransportConfig::CanFd {
                config,
                payload_multiplier,
            } => nodes
                .into_iter()
                .map(|(node, msgs)| {
                    let bandwidth = msgs
                        .iter()
                        .map(|m| {
                            let payload = upgrade_payload(m.payload(), *payload_multiplier);
                            config.payload_bandwidth_bytes_per_s(payload, m.period_us())
                        })
                        .sum();
                    (node, bandwidth)
                })
                .collect(),
            TransportConfig::FlexRay {
                config,
                slots_per_node,
            } => {
                let mut schedule = FlexRaySchedule::new(*config);
                let mut free = 0..config.static_slots;
                for &node in nodes.keys() {
                    for slot in free.by_ref().take(usize::from(*slots_per_node)) {
                        schedule.assign(slot, node)?;
                    }
                }
                nodes
                    .keys()
                    .map(|&node| (node, schedule.node_bandwidth_bytes_per_s(node)))
                    .collect()
            }
        };
        Ok(Transport { bandwidth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::CanId;
    use crate::mirror::transfer_time_s;

    fn msg(idv: u16, payload: u8, period: u64) -> Message {
        Message::new(CanId::new(idv).expect("valid id"), payload, period).expect("valid message")
    }

    fn nodes() -> BTreeMap<u32, Vec<Message>> {
        let mut m = BTreeMap::new();
        m.insert(3u32, vec![msg(0x100, 4, 10_000), msg(0x108, 8, 20_000)]);
        m.insert(7u32, vec![msg(0x200, 2, 50_000)]);
        m
    }

    fn build(config: TransportConfig) -> Transport {
        config.build(nodes()).expect("valid configuration")
    }

    fn fd(payload_multiplier: f64) -> TransportConfig {
        TransportConfig::CanFd {
            config: FdConfig::default(),
            payload_multiplier,
        }
    }

    fn flexray(config: FlexRayConfig, slots_per_node: u16) -> TransportConfig {
        TransportConfig::FlexRay {
            config,
            slots_per_node,
        }
    }

    #[test]
    fn mirrored_can_matches_free_function_bit_for_bit() {
        let transport = build(TransportConfig::MirroredCan);
        for (node, msgs) in nodes() {
            for bytes in [0u64, 1, 1600, 1 << 20, u64::MAX >> 16] {
                let free = transfer_time_s(bytes, &msgs).expect("bandwidth positive");
                let table = transport
                    .transfer_time_s(node, bytes)
                    .expect("bandwidth positive");
                assert_eq!(free.to_bits(), table.to_bits(), "node {node}, {bytes} B");
            }
        }
        assert_eq!(
            transport.transfer_time_s(99, 100),
            Err(TransportError::NoBandwidth(99))
        );
    }

    #[test]
    fn fd_multiplier_one_is_classic_identity() {
        let fd = build(fd(1.0));
        let classic = build(TransportConfig::MirroredCan);
        for node in [3u32, 7] {
            assert_eq!(
                fd.bandwidth_bytes_per_s(node).to_bits(),
                classic.bandwidth_bytes_per_s(node).to_bits()
            );
        }
    }

    #[test]
    fn fd_multiplier_scales_bandwidth() {
        let classic = build(TransportConfig::MirroredCan);
        let fd = build(fd(8.0));
        // 4→32, 8→64, 2→16: exact ×8 upgrades.
        for node in [3u32, 7] {
            let ratio = fd.bandwidth_bytes_per_s(node) / classic.bandwidth_bytes_per_s(node);
            assert!((ratio - 8.0).abs() < 1e-12, "node {node}: ratio {ratio}");
        }
        let t_classic = classic.transfer_time_s(3, 1 << 20).expect("bandwidth");
        let t_fd = fd.transfer_time_s(3, 1 << 20).expect("bandwidth");
        assert!((t_classic / t_fd - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fd_rejects_degenerate_parameters() {
        assert_eq!(
            fd(0.0).build(nodes()).err(),
            Some(TransportError::InvalidMultiplier(0.0))
        );
        assert_eq!(
            fd(f64::NAN)
                .build(nodes())
                .err()
                .map(|e| matches!(e, TransportError::InvalidMultiplier(_))),
            Some(true)
        );
        let zero = TransportConfig::CanFd {
            config: FdConfig {
                nominal_bps: 0,
                data_bps: 2_000_000,
            },
            payload_multiplier: 1.0,
        };
        assert_eq!(
            zero.build(nodes()).err(),
            Some(TransportError::ZeroBandwidth)
        );
    }

    #[test]
    fn fd_upgrade_rounds_and_caps() {
        assert_eq!(upgrade_payload(8, 1.0), 8);
        assert_eq!(upgrade_payload(8, 8.0), 64);
        assert_eq!(upgrade_payload(8, 100.0), 64, "capped at 64");
        assert_eq!(upgrade_payload(3, 2.0), 6);
        assert_eq!(upgrade_payload(5, 2.0), 12, "10 rounds to 12");
        assert_eq!(upgrade_payload(0, 4.0), 0);
    }

    #[test]
    fn flexray_even_assignment_is_deterministic() {
        let a = build(flexray(FlexRayConfig::default(), 4));
        assert_eq!(a, build(flexray(FlexRayConfig::default(), 4)));
        // 4 slots × 32 B per 5 ms = 25,600 B/s, for each node.
        for node in [3u32, 7] {
            assert!((a.bandwidth_bytes_per_s(node) - 25_600.0).abs() < 1e-9);
        }
        assert_eq!(
            a.transfer_time_s(99, 1),
            Err(TransportError::NoBandwidth(99)),
            "slot-less nodes are typed errors, not silent inf"
        );
    }

    #[test]
    fn flexray_exhausts_segment_gracefully() {
        let many: BTreeMap<u32, Vec<Message>> = (0..40).map(|n| (n, Vec::new())).collect();
        let t = flexray(FlexRayConfig::default(), 2)
            .build(many)
            .expect("valid configuration");
        // 62 slots / 2 per node → 31 nodes served, the rest own nothing.
        assert!(t.bandwidth_bytes_per_s(30) > 0.0);
        assert_eq!(t.bandwidth_bytes_per_s(31), 0.0);
        assert_eq!(
            t.transfer_time_s(39, 1),
            Err(TransportError::NoBandwidth(39))
        );
    }

    #[test]
    fn flexray_rejects_degenerate_config() {
        let bad = FlexRayConfig {
            cycle_us: 0,
            ..FlexRayConfig::default()
        };
        assert_eq!(
            flexray(bad, 1).build(nodes()).err(),
            Some(TransportError::ZeroBandwidth)
        );
    }

    #[test]
    fn config_builds_every_backend() {
        for kind in TransportKind::ALL {
            let cfg = TransportConfig::for_kind(kind);
            assert_eq!(cfg.kind(), kind);
            cfg.validate().expect("default configurations are valid");
            let transport = build(cfg);
            assert!(transport.bandwidth_bytes_per_s(3) > 0.0);
            let t = transport
                .transfer_time_s(3, 1 << 20)
                .expect("bandwidth positive");
            assert!(t.is_finite() && t > 0.0);
        }
    }

    #[test]
    fn config_validate_catches_degenerate_parameters() {
        for (config, error) in [
            (fd(-1.0), TransportError::InvalidMultiplier(-1.0)),
            (
                flexray(
                    FlexRayConfig {
                        slot_payload_bytes: 0,
                        ..FlexRayConfig::default()
                    },
                    1,
                ),
                TransportError::ZeroBandwidth,
            ),
            (
                flexray(
                    FlexRayConfig {
                        static_slots: 0,
                        ..FlexRayConfig::default()
                    },
                    1,
                ),
                TransportError::ZeroBandwidth,
            ),
            (
                flexray(FlexRayConfig::default(), 0),
                TransportError::ZeroBandwidth,
            ),
        ] {
            assert_eq!(config.validate(), Err(error.clone()), "{config:?}");
            assert_eq!(
                config.build(nodes()),
                Err(error),
                "{config:?}: build validates first"
            );
        }
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(TransportKind::MirroredCan.label(), "classic-can");
        assert_eq!(TransportKind::CanFd.label(), "can-fd");
        assert_eq!(TransportKind::FlexRay.label(), "flexray");
        assert_eq!(TransportKind::ALL.len(), 3);
    }
}
