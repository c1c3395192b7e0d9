//! Fail data: the diagnostic payload a BIST session leaves behind.
//!
//! Whenever an intermediate signature differs from the expected *response
//! data*, the observed signature is stored together with its window index.
//! The paper notes the fail data is tiny — "roughly 638 Bytes" per ECU —
//! and is shipped to the central gateway where task `b^R` aggregates it for
//! later chip-level logic diagnosis.

use std::fmt;

/// Fixed upper bound of the fail-data payload per BIST session, as reported
/// in Section IV-A of the paper (638 bytes for the industrial CUT).
pub const FAIL_DATA_BYTES: u64 = 638;

/// Serialized size of one [`FailEntry`] (4-byte window index + 8-byte
/// signature) — the granularity every byte cap on fail data rounds down
/// to, here and in the transfer layer's channel truncation.
pub const FAIL_ENTRY_BYTES: u64 = 12;

/// One failing signature window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FailEntry {
    /// Index of the intermediate-signature window in the test sequence —
    /// the "signature index to identify the faulty signature".
    pub window: u32,
    /// The observed (faulty) signature.
    pub signature: u64,
}

/// The fail memory of one BIST session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailData {
    entries: Vec<FailEntry>,
}

impl FailData {
    /// Empty fail memory (a passing session).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a failing window.
    pub fn push(&mut self, window: u32, signature: u64) {
        self.entries.push(FailEntry { window, signature });
    }

    /// Recorded entries in window order.
    pub fn entries(&self) -> &[FailEntry] {
        &self.entries
    }

    /// Whether the session passed (no mismatching window).
    pub fn is_pass(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized size of this fail data in bytes (4-byte window index +
    /// 8-byte signature per entry), clamped to [`FAIL_DATA_BYTES`] — the
    /// on-chip fail memory is bounded, so at most the first windows that fit
    /// are kept.
    pub fn byte_size(&self) -> u64 {
        self.unclamped_byte_size().min(FAIL_DATA_BYTES)
    }

    /// Whether the bounded fail memory silently dropped entries: the
    /// serialized size of *all* recorded windows exceeds
    /// [`FAIL_DATA_BYTES`], so [`byte_size`](Self::byte_size) clamped.
    /// Truncated fail data reaches the gateway incomplete — diagnosis
    /// runs on a prefix of the failing windows, the first slice of the
    /// paper's ambiguous-response problem — so campaign snapshots count
    /// these uploads separately instead of hiding the clamp.
    pub fn is_truncated(&self) -> bool {
        self.unclamped_byte_size() > FAIL_DATA_BYTES
    }

    /// Serialized size with no fail-memory bound applied.
    fn unclamped_byte_size(&self) -> u64 {
        (self.entries.len() as u64) * FAIL_ENTRY_BYTES
    }

    /// The payload after a transfer capped at `cap_bytes`: the longest
    /// whole-entry prefix that fits. A cap at or above the serialized size
    /// is the identity.
    pub fn truncated_to(&self, cap_bytes: u64) -> FailData {
        let keep = usize::try_from(cap_bytes / FAIL_ENTRY_BYTES)
            .unwrap_or(usize::MAX)
            .min(self.entries.len());
        FailData {
            entries: self.entries[..keep].to_vec(),
        }
    }

    /// The payload after losing one failing window in transit: entry
    /// `slot % len` is dropped. The identity on a passing (empty) payload —
    /// there is nothing to lose.
    pub fn without_window_slot(&self, slot: usize) -> FailData {
        if self.entries.is_empty() {
            return self.clone();
        }
        let drop = slot % self.entries.len();
        let mut entries = self.entries.clone();
        entries.remove(drop);
        FailData { entries }
    }

    /// The payload after one entry arrives corrupted: entry `salt % len`
    /// gets its window index flipped by a low bit pattern (diagnosis keys
    /// on window indices, so a syndrome-only flip would be invisible to
    /// the logic path) and its signature perturbed. Entries are re-sorted
    /// by window and window-deduplicated afterwards, the shape a fail
    /// memory records. The identity on a passing (empty) payload.
    pub fn with_corrupted_window(&self, salt: u8) -> FailData {
        if self.entries.is_empty() {
            return self.clone();
        }
        let mut entries = self.entries.clone();
        let hit = usize::from(salt) % entries.len();
        let flip = 1 + u32::from(salt & 7);
        entries[hit].window ^= flip;
        entries[hit].signature ^= 0x5A5A_5A5A_5A5A_5A5A_u64.rotate_left(u32::from(salt));
        entries.sort_by_key(|e| e.window);
        entries.dedup_by_key(|e| e.window);
        FailData { entries }
    }
}

impl fmt::Display for FailData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pass() {
            write!(f, "PASS")
        } else {
            write!(f, "FAIL ({} windows)", self.entries.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_and_fail() {
        let mut fd = FailData::new();
        assert!(fd.is_pass());
        assert_eq!(fd.to_string(), "PASS");
        fd.push(3, 0xDEAD);
        assert!(!fd.is_pass());
        assert_eq!(fd.entries()[0].window, 3);
        assert_eq!(fd.to_string(), "FAIL (1 windows)");
    }

    #[test]
    fn byte_size_clamped() {
        let mut fd = FailData::new();
        for i in 0..1000 {
            fd.push(i, u64::from(i));
        }
        assert_eq!(fd.byte_size(), FAIL_DATA_BYTES);
        let mut small = FailData::new();
        small.push(0, 1);
        assert_eq!(small.byte_size(), 12);
    }

    /// Boundary at exactly [`FAIL_DATA_BYTES`]: 638 is not a multiple of the
    /// 12-byte entry size, so the largest untruncated payload is 53 entries
    /// (636 bytes) and the 54th entry (648 bytes raw) is the first to clamp.
    #[test]
    fn truncation_boundary_at_fail_data_bytes() {
        let max_whole_entries = (FAIL_DATA_BYTES / 12) as u32; // 53
        let mut fd = FailData::new();
        for i in 0..max_whole_entries {
            fd.push(i, u64::from(i));
        }
        assert_eq!(fd.byte_size(), u64::from(max_whole_entries) * 12); // 636
        assert!(fd.byte_size() < FAIL_DATA_BYTES);
        assert!(!fd.is_truncated());

        fd.push(max_whole_entries, 0xBEEF);
        assert!(fd.is_truncated());
        assert_eq!(fd.byte_size(), FAIL_DATA_BYTES); // clamped, not 648

        assert!(!FailData::new().is_truncated());
    }

    #[test]
    fn truncated_to_keeps_whole_entry_prefix() {
        let mut fd = FailData::new();
        for i in 0..10 {
            fd.push(i, u64::from(i) * 3);
        }
        let capped = fd.truncated_to(40); // 3 whole 12-byte entries fit
        assert_eq!(capped.entries().len(), 3);
        assert_eq!(capped.entries(), &fd.entries()[..3]);
        // A cap at or above the payload is the identity.
        assert_eq!(fd.truncated_to(120), fd);
        assert_eq!(fd.truncated_to(u64::MAX), fd);
        // Sub-entry caps yield an empty (pass-looking) payload.
        assert!(fd.truncated_to(11).is_pass());
    }

    #[test]
    fn window_loss_drops_exactly_one_entry() {
        let mut fd = FailData::new();
        for i in 0..5 {
            fd.push(i * 2, u64::from(i));
        }
        let lost = fd.without_window_slot(7); // 7 % 5 = 2 → window 4 gone
        assert_eq!(lost.entries().len(), 4);
        assert!(lost.entries().iter().all(|e| e.window != 4));
        // Zero-entry fail memory: nothing to lose, identity.
        assert_eq!(FailData::new().without_window_slot(3), FailData::new());
    }

    #[test]
    fn corruption_flips_a_window_and_keeps_the_set_sorted() {
        let mut fd = FailData::new();
        for i in 0..6 {
            fd.push(i * 4, u64::from(i));
        }
        for salt in 0..32 {
            let corrupted = fd.with_corrupted_window(salt);
            assert_ne!(corrupted, fd, "salt {salt} must alter the payload");
            let windows: Vec<u32> = corrupted.entries().iter().map(|e| e.window).collect();
            let mut sorted = windows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(windows, sorted, "salt {salt}: observed set unsorted");
        }
        // Zero-entry fail memory: identity.
        assert_eq!(FailData::new().with_corrupted_window(9), FailData::new());
    }

    /// Corruption at exactly the [`FAIL_DATA_BYTES`] cap: a payload
    /// clamped to the 53-entry boundary stays sorted/deduplicated after a
    /// window flip, and the cap transform composes with corruption.
    #[test]
    fn corruption_at_exact_truncation_cap() {
        let mut fd = FailData::new();
        for i in 0..60 {
            fd.push(i, u64::from(i));
        }
        let capped = fd.truncated_to(FAIL_DATA_BYTES);
        assert_eq!(capped.entries().len(), 53); // 636 of 638 bytes
        assert!(
            !capped.is_truncated(),
            "post-cap payload self-reports whole"
        );
        let corrupted = capped.with_corrupted_window(11);
        assert!(corrupted.entries().len() <= 53);
        assert!(corrupted.byte_size() <= FAIL_DATA_BYTES);
        let windows: Vec<u32> = corrupted.entries().iter().map(|e| e.window).collect();
        let mut sorted = windows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(windows, sorted);
    }
}
