use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A bit-parallel simulation word: one bit per test pattern.
///
/// Implemented by `u64` (the classic 64-pattern word) and by wider
/// fixed-lane blocks (e.g. `eea_faultsim`'s `BitBlock<LANES>`, a
/// `[u64; LANES]` evaluated lane-parallel). [`GateKind::eval`] is generic
/// over this trait so the same gate-evaluation code serves every word
/// width; the lane loops of a wide word are shaped for LLVM
/// autovectorization.
pub trait SimWord:
    Copy + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self> + Not<Output = Self>
{
    /// The all-zeros word.
    const ZEROS: Self;
    /// The all-ones word.
    const ONES: Self;
}

impl SimWord for u64 {
    const ZEROS: Self = 0;
    const ONES: Self = u64::MAX;
}

/// Identifier of a gate inside a [`Circuit`](crate::Circuit).
///
/// Gate ids are dense indices assigned in creation order by
/// [`CircuitBuilder`](crate::CircuitBuilder); they index directly into the
/// circuit's gate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Returns the dense index of this gate.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a gate id from a dense index.
    ///
    /// Only meaningful for indices previously obtained from the same
    /// circuit; out-of-range ids cause panics when used for lookups.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        GateId(index as u32)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The gate library.
///
/// `Input` is a primary input, `Dff` a D-type flip-flop (one fanin: its data
/// input). Under the full-scan assumption used throughout this workspace a
/// `Dff` output acts as a pseudo-primary input and its data input as a
/// pseudo-primary output of the combinational core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// D flip-flop (exactly one fanin). Scan-replaced during test.
    Dff,
    /// Logical AND (>= 1 fanin).
    And,
    /// Logical NAND (>= 1 fanin).
    Nand,
    /// Logical OR (>= 1 fanin).
    Or,
    /// Logical NOR (>= 1 fanin).
    Nor,
    /// Logical XOR (>= 1 fanin).
    Xor,
    /// Logical XNOR (>= 1 fanin).
    Xnor,
    /// Inverter (exactly one fanin).
    Not,
    /// Buffer (exactly one fanin).
    Buf,
}

impl GateKind {
    /// Whether the gate is a source of the combinational core (has no
    /// combinational fanin): primary inputs and flip-flop outputs.
    #[inline]
    pub fn is_combinational_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Dff)
    }

    /// Evaluates the gate on bit-parallel fanin words (one bit per pattern).
    ///
    /// `Input` and `Dff` have no combinational evaluation; callers must not
    /// pass them here.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if called on `Input`/`Dff` or with an empty
    /// fanin slice.
    #[inline]
    pub fn eval_words(self, fanin: &[u64]) -> u64 {
        self.eval(fanin)
    }

    /// Generic counterpart of [`eval_words`](Self::eval_words): evaluates
    /// the gate on any [`SimWord`] width (e.g. wide multi-lane blocks).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if called on `Input`/`Dff` or with an empty
    /// fanin slice.
    #[inline]
    pub fn eval<W: SimWord>(self, fanin: &[W]) -> W {
        debug_assert!(
            !fanin.is_empty(),
            "gate evaluation needs at least one fanin"
        );
        self.eval_iter(fanin.iter().copied())
    }

    /// Evaluates the gate folding fanin values straight off an iterator —
    /// no gather buffer. With wide multi-lane words the buffer round-trip
    /// (store every fanin block, reload it for the fold) costs more than
    /// the fold itself; hot simulation loops feed values directly.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if called on `Input`/`Dff`; an empty
    /// iterator yields the fold identity.
    #[inline]
    pub fn eval_iter<W: SimWord>(self, mut fanin: impl Iterator<Item = W>) -> W {
        match self {
            GateKind::And => fanin.fold(W::ONES, |acc, w| acc & w),
            GateKind::Nand => !fanin.fold(W::ONES, |acc, w| acc & w),
            GateKind::Or => fanin.fold(W::ZEROS, |acc, w| acc | w),
            GateKind::Nor => !fanin.fold(W::ZEROS, |acc, w| acc | w),
            GateKind::Xor => fanin.fold(W::ZEROS, |acc, w| acc ^ w),
            GateKind::Xnor => !fanin.fold(W::ZEROS, |acc, w| acc ^ w),
            GateKind::Not => !fanin.next().unwrap_or(W::ZEROS),
            GateKind::Buf => fanin.next().unwrap_or(W::ZEROS),
            GateKind::Input | GateKind::Dff => {
                debug_assert!(false, "sources are not evaluated combinationally");
                W::ZEROS
            }
        }
    }

    /// The controlling value of the gate, if it has one (e.g. `0` for AND:
    /// any fanin at the controlling value determines the output).
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Whether the gate's output inverts the dominant/accumulated value
    /// (NAND, NOR, NOT, XNOR).
    #[inline]
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// Canonical lower-case name used by the `.bench` writer.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Dff => "dff",
            GateKind::And => "and",
            GateKind::Nand => "nand",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic_gates() {
        let a = 0b1100;
        let b = 0b1010;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & 0xF, 0b1000);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & 0xF, 0b1110);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & 0xF, 0b0110);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & 0xF, 0b0111);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & 0xF, 0b0001);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b]) & 0xF, 0b1001);
        assert_eq!(GateKind::Not.eval_words(&[a]) & 0xF, 0b0011);
        assert_eq!(GateKind::Buf.eval_words(&[a]) & 0xF, 0b1100);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
    }

    #[test]
    fn multi_input_gates() {
        let w = [0b1111, 0b1110, 0b1100];
        assert_eq!(GateKind::And.eval_words(&w) & 0xF, 0b1100);
        assert_eq!(GateKind::Nor.eval_words(&w) & 0xF, 0b0000);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(GateKind::Nand.to_string(), "nand");
        assert_eq!(GateId(7).to_string(), "g7");
    }
}
