//! Deterministic channel-impairment models layered over the transport.
//!
//! A [`Transport`](crate::Transport) prices *ideal* transfers: every frame
//! arrives intact on the first attempt. A [`ChannelConfig`] describes what
//! the physical bus does to those frames — error frames forcing
//! retransmission (which inflates the Eq. (1) transfer time) and payload
//! corruption that survives into the uploaded fail memory:
//!
//! * [`ChannelConfig::Clean`] — the pass-through identity and the default.
//!   The consumer draws nothing from any channel stream for it, so a clean
//!   campaign is bit-for-bit the historical upload path.
//! * [`NoisyChannel`] — per-frame Bernoulli error events and per-upload
//!   payload impairment, driven by a dedicated SplitMix64 stream
//!   ([`ChannelRng`]) derived from per-vehicle sub-seeds. The stream is
//!   disjoint from the simulation's own RNG, so results stay bit-identical
//!   across thread × shard sweeps and a zero-rate noisy channel reproduces
//!   the clean report exactly.
//!
//! The impairment a channel inflicts on one upload is summarised in the
//! compact [`Impairment`] descriptor; the consumer (the fleet layer)
//! applies it to the actual fail memory, keeping this crate free of any
//! fail-data knowledge beyond "a payload is a sequence of entries".

use std::error::Error;
use std::fmt;

/// Golden-ratio increment of the SplitMix64 sequence (must match
/// `eea_moea::Rng` bit for bit).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation constant folded into every channel sub-seed so the
/// channel stream never collides with the simulation's own per-vehicle
/// stream (ASCII `"channel!"`).
const CHANNEL_DOMAIN: u64 = 0x6368_616E_6E65_6C21;

/// SplitMix64 generator — bit-for-bit the algorithm of `eea_moea::Rng`,
/// duplicated here because `eea-can` sits below the MOEA crate in the
/// dependency order. The equivalence is pinned by unit tests against the
/// published SplitMix64 reference vectors (which also pin `eea_moea::Rng`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRng(u64);

impl ChannelRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        ChannelRng(seed)
    }

    /// One SplitMix64 output step.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        Self::scramble(self.0)
    }

    /// The SplitMix64 output scrambler.
    fn scramble(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One SplitMix64 step without constructing an intermediate generator
    /// (seed-derivation helper, mirrors `eea_moea::Rng::mix`).
    pub fn mix(seed: u64) -> u64 {
        Self::scramble(seed.wrapping_add(GOLDEN))
    }

    /// Uniform draw in `[0, 1)` with 53 bits of mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Validation error of a channel configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// A probability knob is not a finite value in `[0, 1)`.
    InvalidRate {
        /// Which knob (`"frame_error_rate"`, ...).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The truncation cap admits zero payload bytes.
    ZeroTruncationCap,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::InvalidRate { field, value } => {
                write!(
                    f,
                    "channel {field} must be a finite value in [0, 1), got {value}"
                )
            }
            ChannelError::ZeroTruncationCap => {
                write!(f, "channel truncation cap must admit at least one byte")
            }
        }
    }
}

impl Error for ChannelError {}

/// What the channel did to one upload's payload, as a compact descriptor
/// the consumer applies to the actual fail memory. The space is small and
/// discrete on purpose: diagnosis caches keyed by `(fault, Impairment)`
/// stay bounded regardless of fleet size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Impairment {
    /// Maximum payload entries that survived transfer (`u16::MAX` =
    /// uncapped). The consumer chooses the entry granularity; the channel
    /// only caps a count.
    pub cap_entries: u16,
    /// Payload-content impairment.
    pub kind: ImpairmentKind,
}

/// Content impairment of one upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ImpairmentKind {
    /// Payload arrived intact.
    Intact,
    /// One payload entry was lost in transit; `slot` selects which
    /// (consumer-side, modulo the payload length).
    WindowLost {
        /// Entry-selection slot in `[0, 8)`.
        slot: u8,
    },
    /// One payload entry arrived corrupted; `salt` parameterises the
    /// consumer-side bit flip.
    CorruptedSyndrome {
        /// Corruption salt in `[0, 16)`.
        salt: u8,
    },
}

impl Impairment {
    /// The identity descriptor: nothing capped, nothing altered.
    pub const NONE: Impairment = Impairment {
        cap_entries: u16::MAX,
        kind: ImpairmentKind::Intact,
    };

    /// Whether this descriptor is the identity.
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }
}

/// A noisy bus: per-frame error events forcing retransmission, and
/// per-upload payload impairment (window loss or syndrome corruption),
/// plus an optional payload truncation cap.
///
/// All rates are probabilities in `[0, 1)`. The all-zero-rate, uncapped
/// configuration is *exactly* [`ChannelConfig::Clean`] at the report level
/// (the fleet equivalence-oracle proptest pins this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyChannel {
    /// Probability an individual frame is hit by a bus error frame and
    /// must be retransmitted.
    pub frame_error_rate: f64,
    /// Probability an upload's payload arrives with one corrupted entry.
    pub corruption_rate: f64,
    /// Probability an upload loses one payload entry entirely (an
    /// interrupted window transfer).
    pub window_loss_rate: f64,
    /// Payload byte cap the channel enforces on uploads (`u64::MAX` =
    /// uncapped). The consumer converts bytes to its entry granularity.
    pub truncation_cap_bytes: u64,
    /// Channel seed, folded with the campaign seed and vehicle index into
    /// per-vehicle sub-streams.
    pub seed: u64,
}

impl Default for NoisyChannel {
    /// The identity configuration: zero rates, uncapped. Set rates
    /// explicitly to model an actual noisy bus.
    fn default() -> Self {
        NoisyChannel {
            frame_error_rate: 0.0,
            corruption_rate: 0.0,
            window_loss_rate: 0.0,
            truncation_cap_bytes: u64::MAX,
            seed: 0,
        }
    }
}

impl NoisyChannel {
    /// Validates the rate and cap knobs.
    ///
    /// # Errors
    ///
    /// [`ChannelError::InvalidRate`] for any rate outside `[0, 1)` (a rate
    /// of exactly 1 would retransmit forever), [`ChannelError::ZeroTruncationCap`]
    /// for a cap of zero bytes.
    pub fn validate(&self) -> Result<(), ChannelError> {
        for (field, value) in [
            ("frame_error_rate", self.frame_error_rate),
            ("corruption_rate", self.corruption_rate),
            ("window_loss_rate", self.window_loss_rate),
        ] {
            if !value.is_finite() || !(0.0..1.0).contains(&value) {
                return Err(ChannelError::InvalidRate { field, value });
            }
        }
        if self.truncation_cap_bytes == 0 {
            return Err(ChannelError::ZeroTruncationCap);
        }
        Ok(())
    }

    /// The per-vehicle channel sub-stream: one SplitMix64 mix of the
    /// domain-separated `(campaign seed, channel seed)` pair and the
    /// vehicle index. Disjoint from the simulation's own per-vehicle
    /// stream by a domain-separation fold (ASCII `"channel!"`).
    pub fn vehicle_rng(&self, campaign_seed: u64, vehicle: u32) -> ChannelRng {
        let domain = campaign_seed ^ self.seed ^ CHANNEL_DOMAIN;
        ChannelRng::new(ChannelRng::mix(
            domain.wrapping_add(u64::from(vehicle).wrapping_mul(GOLDEN)),
        ))
    }

    /// Number of frames (out of `frames` offered) that had to be re-sent:
    /// one Bernoulli draw per offered frame. Each retransmission costs the
    /// consumer one extra frame time. A zero error rate still consumes
    /// draws from the (dedicated) channel stream but always returns 0 —
    /// the consumer's pricing must add *nothing* in that case so the
    /// zero-rate configuration stays bit-identical to the clean channel.
    pub fn retransmitted_frames(&self, rng: &mut ChannelRng, frames: u64) -> u64 {
        let mut retx = 0u64;
        for _ in 0..frames {
            if rng.chance(self.frame_error_rate) {
                retx += 1;
            }
        }
        retx
    }

    /// The impairment inflicted on one upload whose payload the consumer
    /// caps at `cap_entries` entries.
    ///
    /// Pinned draw order (any change re-freezes noisy digests): one
    /// window-loss Bernoulli first; on a hit one `below(8)` slot draw.
    /// Otherwise one corruption Bernoulli; on a hit one `below(16)` salt
    /// draw. The cap applies regardless of the content outcome.
    pub fn impair(&self, rng: &mut ChannelRng, cap_entries: u16) -> Impairment {
        let kind = if rng.chance(self.window_loss_rate) {
            ImpairmentKind::WindowLost {
                slot: rng.below(8) as u8,
            }
        } else if rng.chance(self.corruption_rate) {
            ImpairmentKind::CorruptedSyndrome {
                salt: rng.below(16) as u8,
            }
        } else {
            ImpairmentKind::Intact
        };
        Impairment { cap_entries, kind }
    }

    /// Deterministic Eq. (1) re-pricing factor for *streamed* transfers:
    /// with frame error rate `p`, each frame is sent `1/(1-p)` times in
    /// expectation, so the effective transfer time inflates by that factor.
    pub fn transfer_inflation(&self) -> f64 {
        1.0 / (1.0 - self.frame_error_rate)
    }
}

/// Serializable channel selector threaded from `DseConfig` through
/// blueprints to the fleet campaign — the channel sibling of
/// [`TransportConfig`](crate::TransportConfig).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChannelConfig {
    /// The pass-through identity (the historical path, the default).
    #[default]
    Clean,
    /// A noisy bus with the given impairment knobs.
    Noisy(NoisyChannel),
}

impl ChannelConfig {
    /// Whether this is the pass-through identity configuration. Note a
    /// zero-rate [`NoisyChannel`] is *not* `Clean` structurally — it is
    /// merely proven equivalent at the report level.
    pub fn is_clean(&self) -> bool {
        matches!(self, ChannelConfig::Clean)
    }

    /// Short label for logs and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            ChannelConfig::Clean => "clean",
            ChannelConfig::Noisy(_) => "noisy",
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`NoisyChannel::validate`]; `Clean` always validates.
    pub fn validate(&self) -> Result<(), ChannelError> {
        match self {
            ChannelConfig::Clean => Ok(()),
            ChannelConfig::Noisy(n) => n.validate(),
        }
    }

    /// The Eq. (1) re-pricing factor of streamed transfers:
    /// [`NoisyChannel::transfer_inflation`], or `1.0` for a clean channel.
    pub fn transfer_inflation(&self) -> f64 {
        match self {
            ChannelConfig::Clean => 1.0,
            ChannelConfig::Noisy(n) => n.transfer_inflation(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published SplitMix64 reference vectors for seed 0 — the same
    /// vectors that characterise `eea_moea::Rng`, so passing here pins the
    /// two implementations to each other without a cross-crate dependency.
    #[test]
    fn rng_matches_splitmix64_reference() {
        let mut rng = ChannelRng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(ChannelRng::mix(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = ChannelRng::new(99);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// A zero-rate noisy channel returns identity *outcomes* (it does
    /// consume draws — from its own dedicated stream).
    #[test]
    fn zero_rate_noisy_outcomes_are_identity() {
        let noisy = NoisyChannel::default();
        let mut rng = ChannelRng::new(42);
        assert_eq!(noisy.retransmitted_frames(&mut rng, 512), 0);
        let imp = noisy.impair(&mut rng, u16::MAX);
        assert_eq!(imp, Impairment::NONE);
        assert!(imp.is_none());
        assert_eq!(noisy.transfer_inflation(), 1.0);
        assert_eq!(ChannelConfig::Noisy(noisy).transfer_inflation(), 1.0);
        assert_eq!(ChannelConfig::Clean.transfer_inflation(), 1.0);
    }

    #[test]
    fn nonzero_rates_eventually_fire_and_stay_in_range() {
        let noisy = NoisyChannel {
            frame_error_rate: 0.25,
            corruption_rate: 0.3,
            window_loss_rate: 0.2,
            ..NoisyChannel::default()
        };
        let mut rng = ChannelRng::new(2014);
        let retx = noisy.retransmitted_frames(&mut rng, 10_000);
        assert!(retx > 1_500 && retx < 3_500, "retx {retx} far from 25 %");
        let (mut lost, mut corrupted, mut intact) = (0, 0, 0);
        for _ in 0..10_000 {
            match noisy.impair(&mut rng, 5).kind {
                ImpairmentKind::WindowLost { slot } => {
                    assert!(slot < 8);
                    lost += 1;
                }
                ImpairmentKind::CorruptedSyndrome { salt } => {
                    assert!(salt < 16);
                    corrupted += 1;
                }
                ImpairmentKind::Intact => intact += 1,
            }
        }
        assert!(lost > 1_000, "window loss fired {lost} times");
        assert!(corrupted > 1_000, "corruption fired {corrupted} times");
        assert!(intact > 4_000, "intact survived {intact} times");
        assert!((noisy.transfer_inflation() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn impairments_are_deterministic_per_seed() {
        let noisy = NoisyChannel {
            corruption_rate: 0.5,
            window_loss_rate: 0.5,
            frame_error_rate: 0.1,
            seed: 77,
            ..NoisyChannel::default()
        };
        let run = |vehicle: u32| {
            let mut rng = noisy.vehicle_rng(2014, vehicle);
            (
                noisy.retransmitted_frames(&mut rng, 64),
                noisy.impair(&mut rng, 9),
            )
        };
        assert_eq!(run(3), run(3));
        // Different vehicles get different sub-streams (overwhelmingly).
        assert!((0..32).any(|v| run(v) != run(0)));
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert_eq!(ChannelConfig::Clean.validate(), Ok(()));
        assert_eq!(ChannelConfig::default(), ChannelConfig::Clean);
        let ok = NoisyChannel {
            frame_error_rate: 0.05,
            ..NoisyChannel::default()
        };
        assert_eq!(ChannelConfig::Noisy(ok).validate(), Ok(()));
        for (field, bad) in [
            (
                "frame_error_rate",
                NoisyChannel {
                    frame_error_rate: 1.0,
                    ..NoisyChannel::default()
                },
            ),
            (
                "corruption_rate",
                NoisyChannel {
                    corruption_rate: -0.1,
                    ..NoisyChannel::default()
                },
            ),
            (
                "window_loss_rate",
                NoisyChannel {
                    window_loss_rate: f64::NAN,
                    ..NoisyChannel::default()
                },
            ),
        ] {
            match bad.validate() {
                Err(ChannelError::InvalidRate { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{field}: expected InvalidRate, got {other:?}"),
            }
        }
        let capless = NoisyChannel {
            truncation_cap_bytes: 0,
            ..NoisyChannel::default()
        };
        assert_eq!(capless.validate(), Err(ChannelError::ZeroTruncationCap));
    }

    #[test]
    fn errors_display() {
        let e = ChannelError::InvalidRate {
            field: "corruption_rate",
            value: 2.0,
        };
        assert!(e.to_string().contains("corruption_rate"));
        assert!(ChannelError::ZeroTruncationCap.to_string().contains("cap"));
    }
}
