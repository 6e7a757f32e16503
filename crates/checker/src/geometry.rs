//! Shadow geometry: how many 63-thread bitmap shards back each
//! granule, and how thread ids map onto them.
//!
//! The paper's §4.2.1 encoding packs reader/writer sets into a single
//! word, which caps *exact* tracking at `8n − 1 = 63` threads for an
//! 8-byte word. [`ShadowGeometry`] lifts that cap without giving up
//! exactness: a granule's shadow becomes `shards + 1` words —
//! one full bitmap word per 63-thread block, plus one adaptive-encoded
//! *overflow* word for thread ids beyond the exact range.
//!
//! ```text
//! words[0]        bitmap shard for tids  1 ..= 63
//! words[1]        bitmap shard for tids 64 ..= 126
//! ...
//! words[s-1]      bitmap shard for tids (s-1)*63+1 ..= s*63
//! words[s]        adaptive overflow (EMPTY/EXCL/READ1/SHARED_READ)
//! ```
//!
//! Thread id `t` (1-based) maps to shard `(t − 1) / 63` with local
//! bit `((t − 1) % 63) + 1` — *not* the ISSUE-simplified `t / 63` /
//! `t % 63`, which would put tid 63's local bit onto the writer flag.
//! The chosen mapping keeps tids `1..=63` in shard 0 with their
//! local id equal to their global id, so a one-shard geometry is
//! bit-for-bit the paper's original single-word encoding.
//!
//! The geometry is `const`-constructible so the VM can fix its shard
//! count at compile time, and cheap to copy so every shadow carries
//! its own.

/// The shard layout of one granule's shadow words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShadowGeometry {
    /// Number of 63-thread bitmap shards. Zero means "adaptive only":
    /// every thread id goes through the overflow word, the adaptive
    /// encoding alone ([`crate::step::adaptive`]).
    shards: usize,
}

/// Exact thread capacity of one bitmap shard word (`8·8 − 1`).
pub const THREADS_PER_SHARD: usize = 63;

impl ShadowGeometry {
    /// A geometry with no bitmap shards: all thread ids take the
    /// adaptive overflow word. One word per granule; sound for any
    /// thread count, exact only up to one concurrent reader.
    pub const fn adaptive_only() -> Self {
        ShadowGeometry { shards: 0 }
    }

    /// The smallest geometry that tracks `threads` simultaneously
    /// live thread ids *exactly* (full reader identities). Ids past
    /// the exact range still work — they fall into the adaptive
    /// overflow word, soundly.
    pub const fn for_threads(threads: usize) -> Self {
        ShadowGeometry {
            shards: threads.div_ceil(THREADS_PER_SHARD),
        }
    }

    /// A geometry with exactly `shards` bitmap shards.
    pub const fn with_shards(shards: usize) -> Self {
        ShadowGeometry { shards }
    }

    /// Number of bitmap shards.
    pub const fn shards(&self) -> usize {
        self.shards
    }

    /// The largest thread id tracked with exact reader identity
    /// (`shards × 63`). Ids above this are sound-but-adaptive.
    pub const fn exact_threads(&self) -> usize {
        self.shards * THREADS_PER_SHARD
    }

    /// Shadow words per granule: one per shard plus the overflow.
    pub const fn words_per_granule(&self) -> usize {
        self.shards + 1
    }

    /// Index of the adaptive overflow word within a granule's words.
    pub const fn overflow_index(&self) -> usize {
        self.shards
    }

    /// The shard holding `tid`'s bit, or `None` if `tid` lands in the
    /// adaptive overflow word.
    #[inline]
    pub const fn shard_of(&self, tid: u32) -> Option<usize> {
        if tid == 0 {
            return None;
        }
        let s = (tid as usize - 1) / THREADS_PER_SHARD;
        if s < self.shards {
            Some(s)
        } else {
            None
        }
    }

    /// `tid`'s bit position within its shard word (`1..=63`; bit 0 is
    /// the per-shard writer flag). Meaningful only when
    /// [`ShadowGeometry::shard_of`] returns `Some`.
    #[inline]
    pub const fn local_bit(&self, tid: u32) -> u32 {
        ((tid - 1) % THREADS_PER_SHARD as u32) + 1
    }

    /// Shadow bytes per granule under this geometry.
    pub const fn bytes_per_granule(&self) -> usize {
        self.words_per_granule() * 8
    }
}

impl Default for ShadowGeometry {
    /// One shard: the paper's original 63-thread-exact configuration
    /// (plus the overflow word for ids beyond it).
    fn default() -> Self {
        ShadowGeometry::for_threads(THREADS_PER_SHARD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_threads_rounds_up() {
        assert_eq!(ShadowGeometry::for_threads(1).shards(), 1);
        assert_eq!(ShadowGeometry::for_threads(63).shards(), 1);
        assert_eq!(ShadowGeometry::for_threads(64).shards(), 2);
        assert_eq!(ShadowGeometry::for_threads(126).shards(), 2);
        assert_eq!(ShadowGeometry::for_threads(127).shards(), 3);
        assert_eq!(ShadowGeometry::for_threads(256).shards(), 5);
        assert_eq!(ShadowGeometry::for_threads(512).shards(), 9);
    }

    #[test]
    fn exact_range_and_word_count() {
        let g = ShadowGeometry::for_threads(256);
        assert_eq!(g.exact_threads(), 315);
        assert_eq!(g.words_per_granule(), 6);
        assert_eq!(g.overflow_index(), 5);
        assert_eq!(g.bytes_per_granule(), 48);
    }

    #[test]
    fn shard_mapping_keeps_tid_63_off_the_writer_flag() {
        let g = ShadowGeometry::for_threads(256);
        // tids 1..=63 sit in shard 0 with local bit == global id:
        // a one-shard geometry is the paper's single-word encoding.
        assert_eq!(g.shard_of(1), Some(0));
        assert_eq!(g.local_bit(1), 1);
        assert_eq!(g.shard_of(63), Some(0));
        assert_eq!(g.local_bit(63), 63);
        // tid 64 starts shard 1 at bit 1 — never bit 0.
        assert_eq!(g.shard_of(64), Some(1));
        assert_eq!(g.local_bit(64), 1);
        assert_eq!(g.shard_of(126), Some(1));
        assert_eq!(g.local_bit(126), 63);
        assert_eq!(g.shard_of(127), Some(2));
        assert_eq!(g.local_bit(127), 1);
        // Every representable local bit avoids the writer flag.
        for t in 1..=g.exact_threads() as u32 {
            assert!((1..=63).contains(&g.local_bit(t)), "tid {t}");
        }
    }

    #[test]
    fn ids_beyond_exact_range_overflow() {
        let g = ShadowGeometry::for_threads(63);
        assert_eq!(g.shard_of(63), Some(0));
        assert_eq!(g.shard_of(64), None, "past the exact range");
        assert_eq!(g.shard_of(0), None, "zero is reserved");
        let a = ShadowGeometry::adaptive_only();
        assert_eq!(a.shard_of(1), None, "no shards: everything adapts");
        assert_eq!(a.words_per_granule(), 1);
        assert_eq!(a.overflow_index(), 0);
    }
}
