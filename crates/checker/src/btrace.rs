//! Binary [`CheckEvent`](crate::CheckEvent) traces — format **v5**,
//! the archive format for full-scale runs (`.sbt`, "sharc binary
//! trace").
//!
//! The text formats v1–v3 ([`crate::trace`]) spend ~14 bytes per
//! event; at the 10⁷–10⁸ events of a stunnel-fleet run that is
//! gigabytes of decimal digits, most of them repeating the same tid
//! and nearly the same granule line after line. v5 stores the same
//! linearization bit-exactly in a fraction of the space:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SBT4"
//! 4       1     version (5)
//! 5       3     reserved (zero)
//! 8       4     max tid              (little-endian u32)
//! 12      4     shard count          (ShadowGeometry::for_threads)
//! 16      8     event count          (little-endian u64)
//! 24      8     granule span         (little-endian u64)
//! 32      …     events
//! …       …     footer: uleb(block count)
//! end-12  8     footer offset        (little-endian u64)
//! end-4   4     end magic  b"4TBS"
//! ```
//!
//! The magic names the binary family and stays `SBT4`; the version
//! byte names the layout, so a v4 file is refused by version, not
//! misread.
//!
//! **Blocks.** The event stream is cut into maximal runs of events
//! with the same [`recording_tid`] — the bursts a real workload
//! emits. The first event of a block sets the high bit of its
//! opcode byte and follows it with the zigzag-LEB128 difference
//! from the previous block's tid (the first block's from 0); every
//! other event names no tid at all. A thread switch therefore costs
//! one or two bytes wherever it falls, so a finely interleaved
//! recording of truly parallel threads stays nearly as small as a
//! serialized one. The events in file order are exactly the recorded
//! linearization, which is what keeps replay verdicts bit-identical
//! to the text file (no per-event sequence numbers, no reordering).
//!
//! **Per-event encoding.** One opcode byte, then LEB128 varint
//! operands. Granules are delta-encoded against a register per
//! recording tid (starting at 0 and carried across all of that
//! thread's blocks): every granule operand is the zigzag-LEB128
//! difference from the previous granule the same thread named, so
//! a thread sweeping a buffer pays one byte per event however often
//! other threads cut in. Lengths, refcounts, lock ids, and
//! fork/join child tids are plain LEB128 (they are small in
//! practice). `exit` is the opcode alone and `fork`/`join` spell
//! only the child: the block tid already names the event's own tid,
//! exactly as [`recording_tid`] defines it.
//!
//! **Footer.** The block count, checked against the blocks the
//! decoder finds; the trailer locates it from the end of the file
//! alone. Decoding is sequential: the tid and granule registers
//! depend on every earlier block.
//!
//! [`BinaryTraceReader`] is zero-copy: it borrows the byte slice
//! (read, mapped, or in memory), validates the framing once, and
//! decodes events on demand with [`BinaryTraceReader::events`].
//! Round-tripping is exact in both directions and pinned by the
//! property tests below: `parse_binary ∘ to_binary` is the identity
//! on any event vector, and text→binary→text reproduces the v3 file
//! byte-for-byte.
//!
//! [`recording_tid`]: crate::sink::recording_tid

use crate::backend::{max_trace_tid, trace_granule_span, CheckEvent};
use crate::geometry::ShadowGeometry;
use crate::sink::recording_tid;
use std::collections::HashMap;

/// Leading magic of a binary trace (`sharc trace` and `sharc replay`
/// sniff this to tell binary from text).
pub const BTRACE_MAGIC: [u8; 4] = *b"SBT4";
/// Trailing magic, after the footer-offset word.
pub const BTRACE_END_MAGIC: [u8; 4] = *b"4TBS";
/// The format version this module reads and writes.
pub const BTRACE_VERSION: u8 = 5;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Fixed trailer size in bytes (footer offset + end magic).
pub const TRAILER_LEN: usize = 12;

// Opcodes, one byte per event. The numbering is part of the on-disk
// format: append only, never renumber.
const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_RANGE_READ: u8 = 2;
const OP_RANGE_WRITE: u8 = 3;
const OP_LOCKED: u8 = 4;
const OP_CAST: u8 = 5;
const OP_RANGE_CAST: u8 = 6;
const OP_RANGE_FREE: u8 = 7;
const OP_ACQUIRE: u8 = 8;
const OP_RELEASE: u8 = 9;
const OP_FORK: u8 = 10;
const OP_JOIN: u8 = 11;
const OP_EXIT: u8 = 12;
const OP_ALLOC: u8 = 13;
/// Opcode flag: this event starts a block, and a zigzag tid delta
/// follows the opcode byte.
const NEW_BLOCK: u8 = 0x80;

/// True if `bytes` starts like a binary trace. A text trace can
/// never collide: its first byte is `#`, a keyword letter, or
/// whitespace, none of which is `S` followed by `BT4`… within the
/// trace vocabulary.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == BTRACE_MAGIC
}

fn write_uleb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag: small negative deltas stay one byte.
fn write_zigzag(out: &mut Vec<u8>, delta: i64) {
    write_uleb(out, ((delta << 1) ^ (delta >> 63)) as u64);
}

fn write_granule_delta(out: &mut Vec<u8>, prev: &mut i64, granule: usize) {
    let g = granule as i64;
    write_zigzag(out, g.wrapping_sub(*prev));
    *prev = g;
}

fn read_uleb(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| format!("truncated varint at byte {}", *pos))?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(format!("varint overflow at byte {}", *pos - 1));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn read_zigzag(bytes: &[u8], pos: &mut usize) -> Result<i64, String> {
    let z = read_uleb(bytes, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

fn read_granule_delta(bytes: &[u8], pos: &mut usize, prev: &mut i64) -> Result<usize, String> {
    let g = prev.wrapping_add(read_zigzag(bytes, pos)?);
    if g < 0 {
        return Err(format!("granule delta underflows below zero at byte {pos}"));
    }
    *prev = g;
    Ok(g as usize)
}

/// Reads a block start's tid delta (at `*pos`, just past the opcode
/// byte) and returns the block's tid; `prev` is the previous block's
/// tid, `None` before the first block.
fn read_block_tid(bytes: &[u8], pos: &mut usize, prev: Option<u32>) -> Result<u32, String> {
    let at = *pos;
    let delta = read_zigzag(bytes, pos)?;
    let tid = i64::from(prev.unwrap_or(0))
        .checked_add(delta)
        .and_then(|t| u32::try_from(t).ok())
        .ok_or_else(|| format!("block tid delta {delta} leaves the u32 range at byte {at}"))?;
    if prev == Some(tid) {
        return Err(format!(
            "block at byte {} repeats tid {tid} (blocks are maximal runs)",
            at - 1
        ));
    }
    Ok(tid)
}

fn no_block_error(op_at: usize) -> String {
    format!("first event at byte {op_at} does not start a block")
}

fn check_block_count(found: u64, promised: u64) -> Result<(), String> {
    if found != promised {
        return Err(format!(
            "binary trace holds {found} blocks but the footer promises {promised}"
        ));
    }
    Ok(())
}

/// How many varint operands follow opcode `op` (after a block
/// start's tid delta) — what [`BinaryTraceReader::blocks`] skips.
fn operand_count(op: u8) -> Option<usize> {
    match op {
        OP_EXIT => Some(0),
        OP_READ | OP_WRITE | OP_ALLOC | OP_LOCKED | OP_ACQUIRE | OP_RELEASE | OP_FORK | OP_JOIN => {
            Some(1)
        }
        OP_RANGE_READ | OP_RANGE_WRITE | OP_RANGE_FREE | OP_CAST => Some(2),
        OP_RANGE_CAST => Some(3),
        _ => None,
    }
}

/// Tids below this index a vector; wider ones (a hand-written trace
/// may name any `u32`) go to a map, so a hostile file cannot make
/// the decoder allocate per tid value.
const DENSE_TIDS: usize = 1 << 16;

/// The per-recording-tid granule registers, shared by the encoder and
/// the decoder so both carry each thread's register across blocks
/// the same way.
#[derive(Debug, Default)]
struct GranuleRegisters {
    dense: Vec<i64>,
    sparse: HashMap<u32, i64>,
}

impl GranuleRegisters {
    /// Registers for tids up to `max_tid` (the header's), held in a
    /// vector when that is below [`DENSE_TIDS`].
    fn for_max_tid(max_tid: u32) -> Self {
        GranuleRegisters {
            dense: vec![0; (max_tid as usize + 1).min(DENSE_TIDS)],
            sparse: HashMap::new(),
        }
    }

    fn slot(&mut self, tid: u32) -> &mut i64 {
        match self.dense.get_mut(tid as usize) {
            Some(r) => r,
            None => self.sparse.entry(tid).or_insert(0),
        }
    }

    /// Parks `from`'s live register `prev` and returns `to`'s.
    fn switch(&mut self, from: u32, prev: i64, to: u32) -> i64 {
        *self.slot(from) = prev;
        *self.slot(to)
    }
}

fn opcode(e: &CheckEvent) -> u8 {
    match e {
        CheckEvent::Read { .. } => OP_READ,
        CheckEvent::Write { .. } => OP_WRITE,
        CheckEvent::RangeRead { .. } => OP_RANGE_READ,
        CheckEvent::RangeWrite { .. } => OP_RANGE_WRITE,
        CheckEvent::LockedAccess { .. } => OP_LOCKED,
        CheckEvent::SharingCast { .. } => OP_CAST,
        CheckEvent::RangeCast { .. } => OP_RANGE_CAST,
        CheckEvent::RangeFree { .. } => OP_RANGE_FREE,
        CheckEvent::Acquire { .. } => OP_ACQUIRE,
        CheckEvent::Release { .. } => OP_RELEASE,
        CheckEvent::Fork { .. } => OP_FORK,
        CheckEvent::Join { .. } => OP_JOIN,
        CheckEvent::ThreadExit { .. } => OP_EXIT,
        CheckEvent::Alloc { .. } => OP_ALLOC,
    }
}

/// The operands after the opcode byte (and after the tid delta of a
/// block's first event).
fn write_operands(out: &mut Vec<u8>, e: &CheckEvent, prev: &mut i64) {
    match *e {
        CheckEvent::Read { granule, .. }
        | CheckEvent::Write { granule, .. }
        | CheckEvent::Alloc { granule } => write_granule_delta(out, prev, granule),
        CheckEvent::RangeRead { granule, len, .. }
        | CheckEvent::RangeWrite { granule, len, .. }
        | CheckEvent::RangeFree { granule, len } => {
            write_granule_delta(out, prev, granule);
            write_uleb(out, len as u64);
        }
        CheckEvent::SharingCast { granule, refs, .. } => {
            write_granule_delta(out, prev, granule);
            write_uleb(out, refs);
        }
        CheckEvent::RangeCast {
            granule, len, refs, ..
        } => {
            write_granule_delta(out, prev, granule);
            write_uleb(out, len as u64);
            write_uleb(out, refs);
        }
        CheckEvent::LockedAccess { lock, .. }
        | CheckEvent::Acquire { lock, .. }
        | CheckEvent::Release { lock, .. } => write_uleb(out, lock as u64),
        CheckEvent::Fork { child, .. } | CheckEvent::Join { child, .. } => {
            write_uleb(out, u64::from(child))
        }
        CheckEvent::ThreadExit { .. } => {}
    }
}

/// Encodes `events` in the v5 binary framing. Deterministic: the
/// same event vector always produces the same bytes, so
/// binary→text→binary round trips are byte-identical (`cmp`-clean),
/// not merely event-identical.
pub fn to_binary(events: &[CheckEvent]) -> Vec<u8> {
    // Measured traces take 2.4–2.8 bytes/event (recorded stunnel runs,
    // serialized or finely interleaved; the benchmark spine 2.5);
    // reserving 4 lets the encode finish without reallocating and
    // copying its output.
    let mut out = Vec::with_capacity(HEADER_LEN + TRAILER_LEN + events.len() * 4 + 64);
    let max_tid = max_trace_tid(events);
    let shards = ShadowGeometry::for_threads((max_tid as usize).max(1)).shards();
    out.extend_from_slice(&BTRACE_MAGIC);
    out.push(BTRACE_VERSION);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&max_tid.to_le_bytes());
    out.extend_from_slice(&(shards as u32).to_le_bytes());
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    out.extend_from_slice(&(trace_granule_span(events) as u64).to_le_bytes());

    let mut regs = GranuleRegisters::for_max_tid(max_tid);
    let mut tid = 0u32;
    let mut prev: i64 = 0;
    let mut blocks = 0u64;
    for e in events {
        let t = recording_tid(e);
        if t != tid || blocks == 0 {
            out.push(opcode(e) | NEW_BLOCK);
            write_zigzag(&mut out, i64::from(t) - i64::from(tid));
            prev = regs.switch(tid, prev, t);
            tid = t;
            blocks += 1;
        } else {
            out.push(opcode(e));
        }
        write_operands(&mut out, e, &mut prev);
    }

    let footer_off = out.len() as u64;
    write_uleb(&mut out, blocks);
    out.extend_from_slice(&footer_off.to_le_bytes());
    out.extend_from_slice(&BTRACE_END_MAGIC);
    out
}

/// One block of a binary trace: a maximal run of events with the same
/// recording tid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute byte offset of the block's first opcode.
    pub offset: usize,
    /// The block's recording tid.
    pub tid: u32,
    /// Events in the block.
    pub events: u64,
}

/// A validated, zero-copy view of a v5 binary trace: borrows the
/// byte slice (heap buffer or memory-mapped file alike), checks the
/// framing once in [`BinaryTraceReader::new`], and decodes events
/// lazily. Nothing is copied until an event is materialized.
#[derive(Debug, Clone, Copy)]
pub struct BinaryTraceReader<'a> {
    data: &'a [u8],
    max_tid: u32,
    shards: u32,
    event_count: u64,
    granule_span: u64,
    block_count: u64,
    footer_off: usize,
}

impl<'a> BinaryTraceReader<'a> {
    /// Validates the header, footer and trailer of `data` and returns
    /// the reader. Events are *not* decoded here — corruption in the
    /// event stream surfaces from [`BinaryTraceReader::events`].
    pub fn new(data: &'a [u8]) -> Result<Self, String> {
        if !is_binary(data) {
            return Err("not a binary trace (missing SBT4 magic)".to_string());
        }
        if data.len() < HEADER_LEN + TRAILER_LEN {
            return Err(format!(
                "binary trace truncated: {} bytes is shorter than header + trailer",
                data.len()
            ));
        }
        if data[4] != BTRACE_VERSION {
            return Err(format!(
                "unsupported binary trace version {} (this reader speaks v{BTRACE_VERSION})",
                data[4]
            ));
        }
        let end = data.len();
        if data[end - 4..] != BTRACE_END_MAGIC {
            return Err("binary trace truncated: end magic missing".to_string());
        }
        let fixed = |at: usize| -> [u8; 8] { data[at..at + 8].try_into().expect("8 bytes") };
        let footer_off = u64::from_le_bytes(fixed(end - TRAILER_LEN)) as usize;
        if footer_off < HEADER_LEN || footer_off > end - TRAILER_LEN {
            return Err(format!(
                "binary trace footer offset {footer_off} out of bounds"
            ));
        }
        let footer = &data[..end - TRAILER_LEN];
        let mut pos = footer_off;
        let block_count = read_uleb(footer, &mut pos)?;
        if pos != footer.len() {
            return Err(format!(
                "binary trace footer has {} trailing bytes",
                footer.len() - pos
            ));
        }
        Ok(BinaryTraceReader {
            data,
            max_tid: u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")),
            shards: u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")),
            event_count: u64::from_le_bytes(fixed(16)),
            granule_span: u64::from_le_bytes(fixed(24)),
            block_count,
            footer_off,
        })
    }

    /// The format version (always [`BTRACE_VERSION`] once validated).
    pub fn version(&self) -> u8 {
        BTRACE_VERSION
    }

    /// The largest tid the trace names, from the header.
    pub fn max_tid(&self) -> u32 {
        self.max_tid
    }

    /// The recorded shard geometry (what
    /// [`ShadowGeometry::for_threads`] derived from the max tid at
    /// encode time) — a replayer can size its backend before
    /// decoding a single event.
    pub fn geometry(&self) -> ShadowGeometry {
        ShadowGeometry::with_shards(self.shards as usize)
    }

    /// Total events, from the header.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// One past the largest granule any event touches, from the
    /// header.
    pub fn granule_span(&self) -> u64 {
        self.granule_span
    }

    /// Total size in bytes of the framed trace.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// Every block, in file (= linearization) order. Walks the whole
    /// stream (a block's tid is a delta from the one before) but
    /// skips operands instead of decoding events.
    pub fn blocks(&self) -> Result<Vec<BlockEntry>, String> {
        let bytes = &self.data[..self.footer_off];
        let mut entries: Vec<BlockEntry> =
            Vec::with_capacity(self.block_count.min(1 << 20) as usize);
        let mut pos = HEADER_LEN;
        while let Some(&byte) = bytes.get(pos) {
            let op_at = pos;
            pos += 1;
            if byte & NEW_BLOCK != 0 {
                let prev = entries.last().map(|b| b.tid);
                entries.push(BlockEntry {
                    offset: op_at,
                    tid: read_block_tid(bytes, &mut pos, prev)?,
                    events: 0,
                });
            }
            let block = entries.last_mut().ok_or_else(|| no_block_error(op_at))?;
            let op = byte & !NEW_BLOCK;
            let operands =
                operand_count(op).ok_or_else(|| format!("unknown opcode {op} at byte {op_at}"))?;
            for _ in 0..operands {
                read_uleb(bytes, &mut pos)?;
            }
            block.events += 1;
        }
        check_block_count(entries.len() as u64, self.block_count)?;
        Ok(entries)
    }

    /// A streaming decoder over every event, in linearization order.
    /// Each item is `Ok(event)` or the first framing error.
    pub fn events(&self) -> EventIter<'a> {
        EventIter {
            data: &self.data[..self.footer_off],
            pos: HEADER_LEN,
            tid: 0,
            prev_granule: 0,
            regs: GranuleRegisters::for_max_tid(self.max_tid),
            blocks: 0,
            expected_blocks: self.block_count,
            failed: false,
        }
    }

    /// Decodes the whole trace, verifying the header's event count.
    pub fn decode(&self) -> Result<Vec<CheckEvent>, String> {
        let mut out = Vec::with_capacity(self.event_count.min(1 << 28) as usize);
        for e in self.events() {
            out.push(e?);
        }
        if out.len() as u64 != self.event_count {
            return Err(format!(
                "binary trace decoded {} events but the header promises {}",
                out.len(),
                self.event_count
            ));
        }
        Ok(out)
    }
}

/// Streaming event decoder; see [`BinaryTraceReader::events`].
#[derive(Debug)]
pub struct EventIter<'a> {
    /// The event stream: header through the end of the last event.
    data: &'a [u8],
    pos: usize,
    /// The current block's recording tid.
    tid: u32,
    /// The current tid's live granule register.
    prev_granule: i64,
    regs: GranuleRegisters,
    /// Blocks started so far.
    blocks: u64,
    /// The footer's block count, checked at the end of the stream.
    expected_blocks: u64,
    failed: bool,
}

impl EventIter<'_> {
    /// Reads a block start's tid delta (at `*pos`, just past the
    /// opcode byte) and switches to that tid's granule register.
    fn start_block(&mut self, pos: &mut usize) -> Result<(), String> {
        let prev = (self.blocks > 0).then_some(self.tid);
        let tid = read_block_tid(self.data, pos, prev)?;
        self.prev_granule = self.regs.switch(self.tid, self.prev_granule, tid);
        self.tid = tid;
        self.blocks += 1;
        Ok(())
    }

    fn decode_next(&mut self) -> Result<Option<CheckEvent>, String> {
        use CheckEvent as E;
        // The cursor and the granule register live in locals for the
        // event and are stored back once it decodes.
        let bytes = self.data;
        let mut pos = self.pos;
        let Some(&byte) = bytes.get(pos) else {
            check_block_count(self.blocks, self.expected_blocks)?;
            return Ok(None);
        };
        let op_at = pos;
        pos += 1;
        if byte & NEW_BLOCK != 0 {
            self.start_block(&mut pos)?;
        } else if self.blocks == 0 {
            return Err(no_block_error(op_at));
        }
        let tid = self.tid;
        let mut prev = self.prev_granule;
        let e = match byte & !NEW_BLOCK {
            OP_READ => E::Read {
                tid,
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
            },
            OP_WRITE => E::Write {
                tid,
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
            },
            OP_RANGE_READ => E::RangeRead {
                tid,
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
                len: read_uleb(bytes, &mut pos)? as usize,
            },
            OP_RANGE_WRITE => E::RangeWrite {
                tid,
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
                len: read_uleb(bytes, &mut pos)? as usize,
            },
            OP_LOCKED => E::LockedAccess {
                tid,
                lock: read_uleb(bytes, &mut pos)? as usize,
            },
            OP_CAST => E::SharingCast {
                tid,
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
                refs: read_uleb(bytes, &mut pos)?,
            },
            OP_RANGE_CAST => E::RangeCast {
                tid,
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
                len: read_uleb(bytes, &mut pos)? as usize,
                refs: read_uleb(bytes, &mut pos)?,
            },
            OP_RANGE_FREE => E::RangeFree {
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
                len: read_uleb(bytes, &mut pos)? as usize,
            },
            OP_ACQUIRE => E::Acquire {
                tid,
                lock: read_uleb(bytes, &mut pos)? as usize,
            },
            OP_RELEASE => E::Release {
                tid,
                lock: read_uleb(bytes, &mut pos)? as usize,
            },
            OP_FORK => E::Fork {
                parent: tid,
                child: u32::try_from(read_uleb(bytes, &mut pos)?)
                    .map_err(|_| "fork child overflows u32".to_string())?,
            },
            OP_JOIN => E::Join {
                parent: tid,
                child: u32::try_from(read_uleb(bytes, &mut pos)?)
                    .map_err(|_| "join child overflows u32".to_string())?,
            },
            OP_EXIT => E::ThreadExit { tid },
            OP_ALLOC => E::Alloc {
                granule: read_granule_delta(bytes, &mut pos, &mut prev)?,
            },
            other => return Err(format!("unknown opcode {other} at byte {op_at}")),
        };
        self.pos = pos;
        self.prev_granule = prev;
        Ok(Some(e))
    }
}

impl Iterator for EventIter<'_> {
    type Item = Result<CheckEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.decode_next() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Convenience: validate + decode in one call, the binary twin of
/// [`crate::trace::parse_text`].
pub fn parse_binary(bytes: &[u8]) -> Result<Vec<CheckEvent>, String> {
    BinaryTraceReader::new(bytes)?.decode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_text, to_text};
    use sharc_testkit::{forall, gen, prop_assert_eq, Gen};

    /// The full 14-variant vocabulary, wide tids included (the
    /// cross-shard boundary matters: the header records the shard
    /// geometry of the widest tid).
    fn event_gen() -> Gen<CheckEvent> {
        gen::pair(
            gen::u32_range(0..14),
            gen::triple(
                gen::u32_range(1..300),
                gen::usize_range(0..4096),
                gen::u64_range(1..5),
            ),
        )
        .map(|&(kind, (tid, granule, refs))| {
            let lock = granule % 8;
            let len = (granule % 7) + 1;
            match kind {
                0 => CheckEvent::Read { tid, granule },
                1 => CheckEvent::Write { tid, granule },
                2 => CheckEvent::LockedAccess { tid, lock },
                3 => CheckEvent::SharingCast { tid, granule, refs },
                4 => CheckEvent::Acquire { tid, lock },
                5 => CheckEvent::Release { tid, lock },
                6 => CheckEvent::Fork {
                    parent: tid,
                    child: tid + 1,
                },
                7 => CheckEvent::Join {
                    parent: tid,
                    child: tid + 1,
                },
                8 => CheckEvent::ThreadExit { tid },
                9 => CheckEvent::RangeRead { tid, granule, len },
                10 => CheckEvent::RangeWrite { tid, granule, len },
                11 => CheckEvent::RangeCast {
                    tid,
                    granule,
                    len,
                    refs,
                },
                12 => CheckEvent::RangeFree { granule, len },
                _ => CheckEvent::Alloc { granule },
            }
        })
    }

    #[test]
    fn round_trip_is_identity_over_the_whole_vocabulary() {
        forall!(
            "btrace_round_trip_is_identity",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let bytes = to_binary(events);
                let parsed = parse_binary(&bytes).expect("well-formed");
                prop_assert_eq!(&parsed, events);
                // The operand-skipping block walk agrees with the
                // maximal same-tid runs on every opcode.
                let mut runs: Vec<(u32, u64)> = Vec::new();
                for e in events {
                    match runs.last_mut() {
                        Some((tid, n)) if *tid == recording_tid(e) => *n += 1,
                        _ => runs.push((recording_tid(e), 1)),
                    }
                }
                let blocks = BinaryTraceReader::new(&bytes)
                    .and_then(|r| r.blocks())
                    .expect("blocks walk");
                let walked: Vec<(u32, u64)> = blocks.iter().map(|b| (b.tid, b.events)).collect();
                prop_assert_eq!(&walked, &runs);
                for b in &blocks {
                    prop_assert_eq!(bytes[b.offset] & NEW_BLOCK, NEW_BLOCK);
                }
            }
        );
    }

    #[test]
    fn text_to_binary_to_text_is_the_identity_on_the_file() {
        // The tentpole round trip at the *file* level: any v3 text
        // file survives text→binary→text byte-for-byte, so archiving
        // a text trace as .sbt and later exporting it back is
        // lossless on the artifact, not merely on the event vector.
        forall!(
            "btrace_text_binary_text_identity",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let text = to_text(events);
                let via_binary = to_text(
                    &parse_binary(&to_binary(&parse_text(&text).expect("v3 parses")))
                        .expect("v5 parses"),
                );
                prop_assert_eq!(&via_binary, &text);
            }
        );
    }

    #[test]
    fn binary_re_encode_is_byte_identical() {
        // Determinism at the byte level: decode→encode reproduces
        // the exact file (blocking is a pure function of the event
        // sequence), which is what `ci/check.sh` pins with `cmp` on
        // the CLI convert round trip.
        forall!(
            "btrace_re_encode_byte_identical",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let a = to_binary(events);
                let b = to_binary(&parse_binary(&a).expect("parses"));
                prop_assert_eq!(&a, &b);
            }
        );
    }

    #[test]
    fn header_records_geometry_and_counts() {
        let events = vec![
            CheckEvent::Fork {
                parent: 1,
                child: 200,
            },
            CheckEvent::Write {
                tid: 200,
                granule: 4095,
            },
            CheckEvent::RangeWrite {
                tid: 200,
                granule: 4096,
                len: 8,
            },
        ];
        let bytes = to_binary(&events);
        let r = BinaryTraceReader::new(&bytes).expect("valid");
        assert_eq!(r.version(), 5);
        assert_eq!(r.max_tid(), 200);
        assert_eq!(r.event_count(), 3);
        assert_eq!(r.granule_span(), 4104);
        assert_eq!(
            r.geometry(),
            ShadowGeometry::for_threads(200),
            "header geometry sizes the replay backend without decoding"
        );
        let blocks = r.blocks().expect("blocks decode");
        assert_eq!(
            blocks.iter().map(|b| (b.tid, b.events)).collect::<Vec<_>>(),
            vec![(1, 1), (200, 2)],
            "blocks are maximal same-recording-tid runs"
        );
    }

    #[test]
    fn per_thread_blocks_preserve_the_interleaving() {
        // Alternating tids force one block per event; the decoded
        // order must still be the recorded linearization exactly.
        let mut events = Vec::new();
        for i in 0..10usize {
            let tid = 1 + (i % 2) as u32;
            events.push(CheckEvent::Write { tid, granule: i });
        }
        assert_eq!(parse_binary(&to_binary(&events)).unwrap(), events);
    }

    #[test]
    fn interleaving_costs_one_tid_byte_per_switch() {
        // Two threads sweeping their own buffers, switching on every
        // event: each event pays its opcode, a one-byte tid delta and
        // a one-byte granule delta against its own thread's register,
        // however far apart the two buffers are.
        let mut events = Vec::new();
        for i in 0..1000usize {
            let (tid, base) = if i % 2 == 0 { (9, 600) } else { (37, 90_000) };
            events.push(CheckEvent::Read {
                tid,
                granule: base + i / 2,
            });
        }
        let bytes = to_binary(&events);
        let r = BinaryTraceReader::new(&bytes).expect("valid");
        assert_eq!(r.blocks().expect("blocks decode").len(), 1000);
        assert_eq!(r.decode().expect("decodes"), events);
        // The first two events pay absolute granules; every later one
        // three bytes.
        assert!(
            bytes.len() <= HEADER_LEN + TRAILER_LEN + 2 + 3 * 1000 + 8,
            "{} bytes for 1000 alternating events",
            bytes.len()
        );
    }

    #[test]
    fn corrupt_framing_is_rejected_loudly() {
        let good = to_binary(&[CheckEvent::Read { tid: 1, granule: 7 }]);
        // Text input.
        assert!(BinaryTraceReader::new(b"# sharc-trace v3\n")
            .unwrap_err()
            .contains("magic"));
        // Truncation that loses the trailer.
        assert!(BinaryTraceReader::new(&good[..good.len() - 3])
            .unwrap_err()
            .contains("end magic"));
        // A version bump, or a file in the retired v4 layout, fails
        // loudly instead of misparsing.
        for version in [4u8, 6] {
            let mut other = good.clone();
            other[4] = version;
            assert!(BinaryTraceReader::new(&other)
                .unwrap_err()
                .contains(&format!("version {version}")));
        }
        // Bytes: [HEADER_LEN] opcode | NEW_BLOCK, [+1] tid delta,
        // [+2] granule delta, then the one-byte footer.
        assert_eq!(
            &good[HEADER_LEN..HEADER_LEN + 3],
            &[NEW_BLOCK | OP_READ, 2, 14]
        );
        // Each malformed event stream is refused by the decoder and
        // by the block walk alike.
        let rejects = |bytes: &[u8], needle: &str| {
            let decoded = parse_binary(bytes).unwrap_err();
            assert!(decoded.contains(needle), "decode: {decoded}");
            let walked = BinaryTraceReader::new(bytes)
                .and_then(|r| r.blocks())
                .unwrap_err();
            assert!(walked.contains(needle), "blocks: {walked}");
        };
        // An unknown opcode.
        let mut bad_op = good.clone();
        bad_op[HEADER_LEN] = NEW_BLOCK | 0x7e;
        rejects(&bad_op, "opcode 126");
        // The first event must open a block: it alone names the tid.
        let mut no_block = good.clone();
        no_block[HEADER_LEN] = OP_READ;
        rejects(&no_block, "does not start a block");
        // A tid delta below tid 0 (zigzag 1 = -1 from 0).
        let mut bad_tid = good.clone();
        bad_tid[HEADER_LEN + 1] = 1;
        rejects(&bad_tid, "leaves the u32 range");
        // A block start that keeps the tid: blocks are maximal runs,
        // so the encoding stays canonical.
        let mut repeat = to_binary(&[
            CheckEvent::Read { tid: 1, granule: 7 },
            CheckEvent::Read { tid: 1, granule: 7 },
        ]);
        assert_eq!(repeat[HEADER_LEN + 3], OP_READ);
        repeat[HEADER_LEN + 3] |= NEW_BLOCK; // its next byte, 0, reads as tid delta 0
        rejects(&repeat, "repeats tid 1");
        // A footer block count that lies.
        let footer = good.len() - TRAILER_LEN - 1;
        assert_eq!(good[footer], 1);
        let mut lying_footer = good.clone();
        lying_footer[footer] = 2;
        rejects(&lying_footer, "footer promises 2");
        // A footer offset that leaves bytes between footer and trailer.
        let mut early_footer = good.clone();
        let at = early_footer.len() - TRAILER_LEN;
        early_footer[at..at + 8].copy_from_slice(&((footer - 1) as u64).to_le_bytes());
        assert!(BinaryTraceReader::new(&early_footer)
            .unwrap_err()
            .contains("trailing bytes"));
        // A lying header count surfaces from decode.
        let mut short_count = good;
        short_count[16] = 2;
        assert!(parse_binary(&short_count)
            .unwrap_err()
            .contains("promises 2"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = to_binary(&[]);
        let r = BinaryTraceReader::new(&bytes).expect("valid");
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.blocks().unwrap(), vec![]);
        assert_eq!(r.decode().unwrap(), vec![]);
    }
}
