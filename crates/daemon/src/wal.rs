//! The per-computation write-ahead log: length-prefixed, CRC-protected
//! records of *delivered* events, fsync-batched under a group-commit window.
//!
//! The WAL sits after causal-delivery reordering: each record holds a batch
//! of events in valid delivery order, stamped with the global delivery
//! offset of its first event. Replaying segments in order therefore feeds
//! the normal ingest pipeline a prefix of a valid delivery order — the
//! replay-clock recovery primitive: state is never serialized, it is
//! recomputed from the recorded event stream.
//!
//! ## On-disk layout
//!
//! A segment file `wal-<start>.wal` (where `<start>` is the 16-hex-digit
//! count of events durable before the segment) is:
//!
//! ```text
//! [8]  magic "CTSWAL2\n"
//! [8]  u64 LE start offset (must match the file name)
//! [4]  u32 LE CRC-32 of the 16 header bytes
//! record*
//! ```
//!
//! and each record is:
//!
//! ```text
//! [4]  u32 LE payload length
//! [4]  u32 LE CRC-32 of the payload
//! [n]  payload = [u64 LE first_offset][event block]
//! ```
//!
//! The event block is delta-encoded against the record itself (the wire
//! codec's fixed-width form costs 9+ bytes per event): varint count, then
//! per event a flags byte (2-bit kind plus an explicit-index bit), a varint
//! process id, and — only when the event does *not* continue its process's
//! previous index within the record — an explicit varint index. Valid
//! delivery orders have consecutive per-process indices, so almost every
//! event after a process's first is implicit `prev + 1`, and the common
//! Internal event costs 2 bytes instead of 9.
//! Send/Receive/Sync partner fields are varint-encoded after the index.
//!
//! A crash can tear at most the tail of the newest segment; a reader stops
//! at the first record whose length or CRC does not check out and reports
//! the byte offset of the valid prefix, which recovery physically truncates
//! before appending again. Recovery appends to a *new* segment.
//!
//! ## Group commit
//!
//! `fsync` per record would gate ingest throughput on device flush latency.
//! [`WalWriter`] instead marks itself dirty on append and syncs when
//! [`WalWriter::maybe_sync`] observes the configured window elapsed — plus
//! unconditionally on flush barriers, checkpoints, and graceful shutdown.
//! The window bounds the crash-loss tail; clients re-transmitting after a
//! restart close it (the reorder buffer deduplicates replayed deliveries).
//!
//! An ingest worker does not drive a [`WalWriter`] directly: it owns a
//! `WalLane`, which follows the worker's delivered log with two cursors
//! and is the only caller of the writer outside tests and benches.

use crate::metrics::Metrics;
use crate::pipeline::DurabilityConfig;
use crate::wire::{self, WireError};
use cts_model::Event;
use cts_util::crc32::crc32;
use cts_util::failpoint::{DurableSink, FailpointFs};
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segment header magic for the delta-encoded record format.
pub const MAGIC: &[u8; 8] = b"CTSWAL2\n";

/// Header length: magic + start offset + header CRC.
pub const HEADER_LEN: u64 = 8 + 8 + 4;

/// Name of the segment whose first record continues from `start` durable
/// events.
pub fn segment_name(start: u64) -> String {
    format!("wal-{start:016x}.wal")
}

/// Parse a segment file name back to its start offset.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".wal")?;
    u64::from_str_radix(hex, 16).ok()
}

/// An appender over one segment. Generic over the sink so tests can inject
/// faults ([`cts_util::failpoint::FailpointFs`]) and benches can measure the
/// codec against a memory sink.
pub struct WalWriter<S: DurableSink = File> {
    sink: S,
    /// Global delivery offset of the last event appended (== the segment
    /// start until the first append).
    end_offset: u64,
    window: Duration,
    dirty: bool,
    last_sync: Instant,
    bytes_written: u64,
    syncs: u64,
}

impl WalWriter<File> {
    /// Create the segment `dir/wal-<start>.wal` (failing if it exists) and
    /// write its header. The header is not yet synced; the first
    /// [`sync`](Self::sync) covers it.
    pub fn create(dir: &Path, start: u64, window: Duration) -> io::Result<WalWriter<File>> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(dir.join(segment_name(start)))?;
        WalWriter::from_sink(file, start, window)
    }
}

impl<S: DurableSink> WalWriter<S> {
    /// Wrap an empty sink, writing the segment header.
    pub fn from_sink(mut sink: S, start: u64, window: Duration) -> io::Result<WalWriter<S>> {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&start.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        sink.write_all(&header)?;
        Ok(WalWriter {
            sink,
            end_offset: start,
            window,
            dirty: true,
            last_sync: Instant::now(),
            bytes_written: HEADER_LEN,
            syncs: 0,
        })
    }

    /// Append one record of delivered events (must be non-empty and
    /// contiguous with the previous append). Does not sync.
    pub fn append(&mut self, events: &[Event]) -> io::Result<()> {
        debug_assert!(!events.is_empty(), "empty WAL records are pointless");
        let mut payload = Vec::with_capacity(8 + 2 + events.len() * 3);
        payload.extend_from_slice(&(self.end_offset + 1).to_le_bytes());
        encode_delta_block(&mut payload, events);
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        self.sink.write_all(&rec)?;
        self.end_offset += events.len() as u64;
        self.bytes_written += rec.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Sync if dirty and the group-commit window has elapsed. Returns
    /// whether a sync happened.
    pub fn maybe_sync(&mut self) -> io::Result<bool> {
        if !self.dirty || self.last_sync.elapsed() < self.window {
            return Ok(false);
        }
        self.sync()?;
        Ok(true)
    }

    /// Unconditional durability barrier (no-op when clean).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.sink.flush()?;
            self.sink.sync_data()?;
            self.dirty = false;
            self.syncs += 1;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Global delivery offset of the last appended event.
    pub fn end_offset(&self) -> u64 {
        self.end_offset
    }

    /// Total bytes written to this segment (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Durability barriers issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Whether a [`WalLane::append`] also issues a durability barrier. Every
/// call site passes the decision its runtime has always made there; this is
/// an argument, not a setting.
#[derive(Clone, Copy)]
pub(crate) enum Barrier {
    /// Append only; a later barrier (the group-commit tick, a flush) covers
    /// it.
    None,
    /// Sync if anything written is unsynced — by this call or an earlier
    /// one — and the group-commit window has elapsed
    /// ([`WalWriter::maybe_sync`]). A tick that appends nothing still closes
    /// an idle owner's tail.
    WindowElapsed,
    /// Sync unconditionally.
    Forced,
}

/// One ingest worker's durability lane. The worker's delivered log is the
/// state; the lane holds the open segment writer and two cursors into that
/// log, `synced <= appended <= log.len()`: `log[..appended]` has been
/// written to the WAL, `log[..synced]` is covered by a durability barrier.
/// Everything a caller needs from a barrier is the range it made durable.
///
/// The log index of an event is its offset within the owner's delivery
/// order, so a segment opened at cursor `start` is named and headed `start`.
/// Any I/O error degrades the lane to in-memory, loudly and for good: the
/// writer is dropped, the cursors freeze, and every later call is a no-op
/// that reports nothing durable — ingest never stops over a disk fault.
pub(crate) struct WalLane {
    /// `None` for an in-memory owner (never durable, or degraded).
    dur: Option<DurabilityConfig>,
    /// Who is logging, for the degradation messages.
    label: String,
    metrics: Arc<Metrics>,
    writer: Option<WalWriter<Box<dyn DurableSink + Send>>>,
    /// Test failpoint: WAL bytes left before the simulated crash, across
    /// this lane's segments.
    fault_budget: Option<u64>,
    appended: usize,
    synced: usize,
}

impl WalLane {
    /// A lane with no open segment; [`rotate`](Self::rotate) opens the
    /// first one once the owner knows its recovered frontier.
    pub(crate) fn new(
        dur: Option<DurabilityConfig>,
        label: String,
        metrics: Arc<Metrics>,
    ) -> WalLane {
        WalLane {
            fault_budget: dur.as_ref().and_then(|d| d.wal_byte_budget),
            dur,
            label,
            metrics,
            writer: None,
            appended: 0,
            synced: 0,
        }
    }

    /// Is a segment open (durable and not degraded)?
    pub(crate) fn is_open(&self) -> bool {
        self.writer.is_some()
    }

    /// The directory this lane's segments live in, while it is durable.
    pub(crate) fn dir(&self) -> Option<&Path> {
        self.dur.as_ref().map(|d| d.dir.as_path())
    }

    /// Retire the open segment, if any — its bytes are charged to the
    /// failpoint budget; its barriers were counted as they were issued — and
    /// open a fresh one at `start`. The caller has made sure `log[..start]`
    /// is on disk already (a checkpoint, or the recovery it was read back
    /// from), so both cursors move there whether or not the open succeeds.
    /// A leftover file of the same name was fully consumed by the recovery
    /// scan, or is empty, and is replaced.
    pub(crate) fn rotate(&mut self, start: usize) {
        if let (Some(old), Some(b)) = (self.writer.take(), self.fault_budget.as_mut()) {
            *b = b.saturating_sub(old.bytes_written());
        }
        let Some(dur) = &self.dur else { return };
        self.appended = start;
        self.synced = start;
        let path = dur.dir.join(segment_name(start as u64));
        let _ = std::fs::remove_file(&path);
        let sink: io::Result<Box<dyn DurableSink + Send>> = match self.fault_budget {
            Some(budget) => FailpointFs::create(&path, budget).map(|f| Box::new(f) as _),
            None => File::create(&path).map(|f| Box::new(f) as _),
        };
        match sink.and_then(|s| WalWriter::from_sink(s, start as u64, dur.sync_window)) {
            Ok(w) => self.writer = Some(w),
            Err(e) => self.degrade("cannot open WAL segment", &e),
        }
    }

    /// Write `log[appended..]` as one record, then apply `barrier`. Returns
    /// the range of `log` this call made durable (empty when it issued no
    /// barrier, or the lane is in-memory).
    pub(crate) fn append(&mut self, log: &[Event], barrier: Barrier) -> Range<usize> {
        let from = self.synced;
        let Some(w) = self.writer.as_mut() else {
            return from..from;
        };
        let fresh = log.len() > self.appended;
        let syncs_before = w.syncs();
        let written = if fresh {
            w.append(&log[self.appended..])
        } else {
            Ok(())
        };
        let barrier_held = written.and_then(|()| match barrier {
            Barrier::Forced => w.sync().map(|()| true),
            Barrier::WindowElapsed => w.maybe_sync(),
            Barrier::None => Ok(false),
        });
        self.metrics
            .wal_syncs
            .fetch_add(w.syncs() - syncs_before, Ordering::Relaxed);
        match barrier_held {
            Ok(held) => {
                self.appended = log.len();
                if held {
                    self.synced = self.appended;
                }
            }
            Err(e) => self.degrade("WAL write failed", &e),
        }
        from..self.synced
    }

    /// Durability barrier over everything in `log`.
    pub(crate) fn sync(&mut self, log: &[Event]) -> Range<usize> {
        self.append(log, Barrier::Forced)
    }

    fn degrade(&mut self, what: &str, e: &io::Error) {
        eprintln!(
            "[cts-daemon] {}: {what}, durability degraded to in-memory: {e}",
            self.label
        );
        self.writer = None;
        self.dur = None;
    }
}

// ---- delta event-block codec ----

/// Flags-byte bit: the event carries an explicit index varint (its process
/// has no previous event in this record, or the index is discontinuous —
/// which a valid delivery order never produces, but the codec stays total).
const FLAG_EXPLICIT_INDEX: u8 = 0x04;
/// Flags-byte mask for the 2-bit event kind (same codes as the wire codec:
/// 0 Internal, 1 Send, 2 Receive, 3 Sync).
const FLAG_KIND_MASK: u8 = 0x03;

fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or(WireError::Malformed("varint cut short"))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(WireError::Malformed("varint overflows u64"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::Malformed("varint too long"));
        }
    }
}

fn get_varint_u32(buf: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    u32::try_from(get_uvarint(buf, pos)?).map_err(|_| WireError::Malformed("varint exceeds u32"))
}

/// Delta-encode a batch of delivered events (a record's body).
fn encode_delta_block(buf: &mut Vec<u8>, events: &[Event]) {
    use cts_model::EventKind;
    put_uvarint(buf, events.len() as u64);
    // Last index seen per process *within this record*; each record is
    // self-contained so a scan never needs cross-record state.
    let mut last: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for ev in events {
        let pid = ev.id.process.0;
        let index = ev.id.index.0;
        let (kind_code, _) = match ev.kind {
            EventKind::Internal => (0u8, ()),
            EventKind::Send { .. } => (1, ()),
            EventKind::Receive { .. } => (2, ()),
            EventKind::Sync { .. } => (3, ()),
        };
        let implicit = last.get(&pid) == Some(&(index.wrapping_sub(1))) && index != 0;
        let mut flags = kind_code;
        if !implicit {
            flags |= FLAG_EXPLICIT_INDEX;
        }
        buf.push(flags);
        put_uvarint(buf, u64::from(pid));
        if !implicit {
            put_uvarint(buf, u64::from(index));
        }
        last.insert(pid, index);
        match ev.kind {
            EventKind::Internal => {}
            EventKind::Send { to } => put_uvarint(buf, u64::from(to.0)),
            EventKind::Receive { from } => {
                put_uvarint(buf, u64::from(from.process.0));
                put_uvarint(buf, u64::from(from.index.0));
            }
            EventKind::Sync { peer } => {
                put_uvarint(buf, u64::from(peer.process.0));
                put_uvarint(buf, u64::from(peer.index.0));
            }
        }
    }
}

/// Decode a delta event block. Total: every malformed input is an error,
/// never a panic or a huge allocation.
fn decode_delta_block(buf: &[u8]) -> Result<Vec<Event>, WireError> {
    use cts_model::{EventId, EventIndex, EventKind, ProcessId};
    let mut pos = 0usize;
    let count = get_uvarint(buf, &mut pos)?;
    // Each event costs >= 2 bytes (flags + pid), so `count` is bounded by
    // the remaining payload — a corrupt count cannot force an allocation.
    if count > (buf.len() - pos) as u64 / 2 {
        return Err(WireError::Malformed("event count exceeds payload"));
    }
    let mut events = Vec::with_capacity(count as usize);
    let mut last: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let event_id = |p: u32, i: u32| -> Result<EventId, WireError> {
        if i == 0 {
            return Err(WireError::Malformed("event index 0 is invalid"));
        }
        Ok(EventId::new(ProcessId(p), EventIndex(i)))
    };
    for _ in 0..count {
        let flags = *buf
            .get(pos)
            .ok_or(WireError::Malformed("event cut short"))?;
        pos += 1;
        if flags & !(FLAG_KIND_MASK | FLAG_EXPLICIT_INDEX) != 0 {
            return Err(WireError::Malformed("unknown event flag bits"));
        }
        let pid = get_varint_u32(buf, &mut pos)?;
        let index = if flags & FLAG_EXPLICIT_INDEX != 0 {
            get_varint_u32(buf, &mut pos)?
        } else {
            let prev = *last
                .get(&pid)
                .ok_or(WireError::Malformed("implicit index without predecessor"))?;
            prev.checked_add(1)
                .ok_or(WireError::Malformed("event index overflow"))?
        };
        let id = event_id(pid, index)?;
        last.insert(pid, index);
        let kind = match flags & FLAG_KIND_MASK {
            0 => EventKind::Internal,
            1 => EventKind::Send {
                to: ProcessId(get_varint_u32(buf, &mut pos)?),
            },
            2 => {
                let p = get_varint_u32(buf, &mut pos)?;
                let i = get_varint_u32(buf, &mut pos)?;
                EventKind::Receive {
                    from: event_id(p, i)?,
                }
            }
            _ => {
                let p = get_varint_u32(buf, &mut pos)?;
                let i = get_varint_u32(buf, &mut pos)?;
                EventKind::Sync {
                    peer: event_id(p, i)?,
                }
            }
        };
        events.push(Event::new(id, kind));
    }
    if pos != buf.len() {
        return Err(WireError::Malformed("trailing bytes after event block"));
    }
    Ok(events)
}

/// One decoded WAL record.
#[derive(Clone, Debug)]
pub struct WalRecord {
    /// Global delivery offset of the first event in the record (1-based).
    pub first_offset: u64,
    pub events: Vec<Event>,
}

/// Why a segment scan stopped before end-of-file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TornTail {
    /// The header itself is short or corrupt; the whole file is unusable.
    BadHeader,
    /// A record's length prefix or body was cut short by a crash.
    ShortRecord,
    /// A record's CRC does not match its payload (torn or bit-flipped).
    BadCrc,
    /// A record decoded under CRC but not under the wire codec, or its
    /// offsets are not contiguous — corruption the CRC happened to pass or
    /// a writer bug; treated as a torn tail all the same.
    BadPayload,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornTail::BadHeader => write!(f, "corrupt segment header"),
            TornTail::ShortRecord => write!(f, "record cut short"),
            TornTail::BadCrc => write!(f, "record CRC mismatch"),
            TornTail::BadPayload => write!(f, "record payload undecodable"),
        }
    }
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    pub path: PathBuf,
    /// Start offset from the (validated) header.
    pub start_offset: u64,
    /// Records of the valid prefix, in order, contiguous from
    /// `start_offset + 1`.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (truncation point when torn).
    pub valid_len: u64,
    /// Why the scan stopped early, if it did.
    pub torn: Option<TornTail>,
}

impl SegmentScan {
    /// Delivery offset one past the last valid event (== `start_offset`
    /// when the segment holds no valid records).
    pub fn end_offset(&self) -> u64 {
        self.records
            .last()
            .map(|r| r.first_offset + r.events.len() as u64 - 1)
            .unwrap_or(self.start_offset)
    }

    /// Total valid events.
    pub fn num_events(&self) -> usize {
        self.records.iter().map(|r| r.events.len()).sum()
    }
}

/// Upper bound on one record's payload, mirroring the wire's frame cap: a
/// corrupt length prefix must not trigger a huge allocation.
const MAX_RECORD: u32 = wire::MAX_FRAME;

/// Scan a segment, stopping at the first torn or corrupt record. Never
/// fails on corruption — that is reported in [`SegmentScan::torn`] — only on
/// real I/O errors.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut scan = SegmentScan {
        path: path.to_path_buf(),
        start_offset: 0,
        records: Vec::new(),
        valid_len: 0,
        torn: None,
    };
    if buf.len() < HEADER_LEN as usize
        || &buf[..8] != MAGIC
        || crc32(&buf[..16]) != u32::from_le_bytes(buf[16..20].try_into().unwrap())
    {
        scan.torn = Some(TornTail::BadHeader);
        return Ok(scan);
    }
    scan.start_offset = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    scan.valid_len = HEADER_LEN;
    let mut pos = HEADER_LEN as usize;
    let mut expect_offset = scan.start_offset + 1;
    while pos < buf.len() {
        if pos + 8 > buf.len() {
            scan.torn = Some(TornTail::ShortRecord);
            return Ok(scan);
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD || pos + 8 + len as usize > buf.len() {
            scan.torn = Some(TornTail::ShortRecord);
            return Ok(scan);
        }
        let payload = &buf[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            scan.torn = Some(TornTail::BadCrc);
            return Ok(scan);
        }
        let record = match decode_record(payload) {
            Ok(r) => r,
            Err(_) => {
                scan.torn = Some(TornTail::BadPayload);
                return Ok(scan);
            }
        };
        if record.first_offset != expect_offset || record.events.is_empty() {
            scan.torn = Some(TornTail::BadPayload);
            return Ok(scan);
        }
        expect_offset += record.events.len() as u64;
        pos += 8 + len as usize;
        scan.valid_len = pos as u64;
        scan.records.push(record);
    }
    Ok(scan)
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, WireError> {
    if payload.len() < 8 {
        return Err(WireError::Malformed("record payload too short"));
    }
    Ok(WalRecord {
        first_offset: u64::from_le_bytes(payload[..8].try_into().unwrap()),
        events: decode_delta_block(&payload[8..])?,
    })
}

/// Physically truncate a torn segment to its valid prefix and sync it.
pub fn truncate_segment(path: &Path, valid_len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()?;
    Ok(())
}

/// All WAL segments in `dir`, sorted by start offset.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(start) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((start, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_workloads::{spmd::Stencil1D, Workload};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cts-wal-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<Event> {
        Stencil1D { procs: 6, iters: 4 }
            .generate(11)
            .events()
            .to_vec()
    }

    #[test]
    fn roundtrip_batches_through_a_segment() {
        let dir = tmpdir("roundtrip");
        let events = sample_events();
        let mut w = WalWriter::create(&dir, 0, Duration::from_millis(0)).unwrap();
        for chunk in events.chunks(17) {
            w.append(chunk).unwrap();
            w.maybe_sync().unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.end_offset(), events.len() as u64);
        assert!(w.syncs() >= 1);

        let scan = scan_segment(&dir.join(segment_name(0))).unwrap();
        assert_eq!(scan.torn, None);
        assert_eq!(scan.start_offset, 0);
        assert_eq!(scan.num_events(), events.len());
        assert_eq!(scan.end_offset(), events.len() as u64);
        let replayed: Vec<Event> = scan
            .records
            .iter()
            .flat_map(|r| r.events.iter().copied())
            .collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn nonzero_start_offset_is_contiguous() {
        let dir = tmpdir("offsets");
        let events = sample_events();
        let mut w = WalWriter::create(&dir, 100, Duration::from_millis(5)).unwrap();
        w.append(&events[..10]).unwrap();
        w.append(&events[10..25]).unwrap();
        w.sync().unwrap();
        let scan = scan_segment(&dir.join(segment_name(100))).unwrap();
        assert_eq!(scan.torn, None);
        assert_eq!(scan.records[0].first_offset, 101);
        assert_eq!(scan.records[1].first_offset, 111);
        assert_eq!(scan.end_offset(), 125);
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let dir = tmpdir("torn");
        let events = sample_events();
        // First, learn the full length of two records.
        let mut probe = WalWriter::from_sink(Vec::new(), 0, Duration::ZERO).unwrap();
        probe.append(&events[..8]).unwrap();
        let one_record = probe.bytes_written();
        probe.append(&events[8..16]).unwrap();
        let full = probe.bytes_written();

        // Now write the same two records through a failpoint that crashes
        // 5 bytes into the second record.
        let path = dir.join(segment_name(0));
        let fp = FailpointFs::create(&path, one_record + 5).unwrap();
        let mut w = WalWriter::from_sink(fp, 0, Duration::ZERO).unwrap();
        w.append(&events[..8]).unwrap();
        assert!(w.append(&events[8..16]).is_err());
        drop(w);
        assert!(std::fs::metadata(&path).unwrap().len() < full);

        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.torn, Some(TornTail::ShortRecord));
        assert_eq!(scan.num_events(), 8);
        assert_eq!(scan.valid_len, one_record);

        truncate_segment(&path, scan.valid_len).unwrap();
        let rescan = scan_segment(&path).unwrap();
        assert_eq!(rescan.torn, None);
        assert_eq!(rescan.num_events(), 8);
    }

    #[test]
    fn bit_flip_fails_the_crc() {
        let dir = tmpdir("bitflip");
        let events = sample_events();
        let path = dir.join(segment_name(0));
        let mut w = WalWriter::create(&dir, 0, Duration::ZERO).unwrap();
        w.append(&events[..8]).unwrap();
        w.append(&events[8..16]).unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip one bit in the middle of the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let scan = scan_segment(&path).unwrap();
        let second_start =
            HEADER_LEN as usize + (scan.valid_len as usize - HEADER_LEN as usize) / 2;
        bytes[second_start + 12] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_segment(&path).unwrap();
        assert!(matches!(
            scan.torn,
            Some(TornTail::BadCrc) | Some(TornTail::ShortRecord)
        ));
        assert!(scan.num_events() < 16);
    }

    #[test]
    fn empty_and_headerless_files_are_handled() {
        let dir = tmpdir("empty");
        let path = dir.join(segment_name(0));
        std::fs::write(&path, b"").unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.torn, Some(TornTail::BadHeader));
        assert_eq!(scan.num_events(), 0);

        std::fs::write(&path, b"garbage header bytes").unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.torn, Some(TornTail::BadHeader));

        // A header-only segment (no records yet) is valid and empty.
        let w = WalWriter::create(&dir, 7, Duration::ZERO).unwrap();
        drop(w);
        let scan = scan_segment(&dir.join(segment_name(7))).unwrap();
        assert_eq!(scan.torn, None);
        assert_eq!(scan.start_offset, 7);
        assert_eq!(scan.num_events(), 0);
    }

    #[test]
    fn delta_block_roundtrips_all_kinds() {
        use cts_model::{EventId, EventIndex, EventKind, ProcessId};
        let id = |p: u32, i: u32| EventId::new(ProcessId(p), EventIndex(i));
        // Interleaved processes, every kind, a deliberate index gap on P2
        // (never produced by a valid delivery order, but the codec is total).
        let events = vec![
            Event::new(id(0, 1), EventKind::Internal),
            Event::new(id(1, 1), EventKind::Send { to: ProcessId(0) }),
            Event::new(id(0, 2), EventKind::Receive { from: id(1, 1) }),
            Event::new(id(2, 1), EventKind::Sync { peer: id(3, 1) }),
            Event::new(id(0, 3), EventKind::Internal),
            Event::new(id(2, 5), EventKind::Internal), // gap: explicit index
            Event::new(id(2, 6), EventKind::Internal), // continues the gap
        ];
        let mut buf = Vec::new();
        encode_delta_block(&mut buf, &events);
        assert_eq!(decode_delta_block(&buf).unwrap(), events);
        // Truncations and flag corruption must error, never panic.
        for cut in 0..buf.len() {
            assert!(decode_delta_block(&buf[..cut]).is_err());
        }
        let mut bad = buf.clone();
        bad[1] |= 0xF8; // undefined flag bits on the first event
        assert!(decode_delta_block(&bad).is_err());
    }

    #[test]
    fn delta_encoding_shrinks_records() {
        let events = sample_events();
        let mut delta = Vec::new();
        encode_delta_block(&mut delta, &events);
        let mut fixed = Vec::new();
        wire::encode_event_block(&mut fixed, &events);
        assert!(
            delta.len() * 2 <= fixed.len(),
            "delta block {} bytes vs fixed-width {} — expected >= 2x smaller",
            delta.len(),
            fixed.len()
        );
    }

    /// A lane over `dir` with a failpoint budget, its first segment open at
    /// 0, and the metrics it counts barriers into.
    fn lane(dir: &Path, window: Duration, budget: u64) -> (WalLane, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::new());
        let dur = DurabilityConfig {
            dir: dir.to_path_buf(),
            sync_window: window,
            checkpoint_every: 0,
            wal_byte_budget: Some(budget),
        };
        let mut lane = WalLane::new(Some(dur), "lane-test".into(), Arc::clone(&metrics));
        lane.rotate(0);
        assert!(lane.is_open());
        (lane, metrics)
    }

    /// Bytes a segment holds after its header and one record of `events`.
    fn one_record_len(events: &[Event]) -> u64 {
        let mut probe = WalWriter::from_sink(Vec::new(), 0, Duration::ZERO).unwrap();
        probe.append(events).unwrap();
        probe.bytes_written()
    }

    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn lane_torn_write_degrades_and_never_reports_unsynced_events() {
        let dir = tmpdir("lane-torn");
        let log = sample_events();
        // The failpoint trips 5 bytes into the second record.
        let (mut lane, metrics) = lane(&dir, HOUR, one_record_len(&log[..8]) + 5);
        // Appended inside the window: written, not durable.
        assert_eq!(lane.append(&log[..8], Barrier::WindowElapsed), 0..0);
        assert_eq!((lane.synced, lane.appended), (0, 8));
        // The torn write: nothing becomes durable — not the record that
        // tore, and not the earlier one no barrier ever covered.
        assert_eq!(lane.sync(&log[..16]), 0..0);
        assert!(!lane.is_open() && lane.dir().is_none());
        assert_eq!((lane.synced, lane.appended), (0, 8));
        // In-memory from here on: every call is a no-op.
        assert_eq!(lane.append(&log[..24], Barrier::Forced), 0..0);
        lane.rotate(24);
        assert!(!lane.is_open());
        assert_eq!((lane.synced, lane.appended), (0, 8));
        assert_eq!(metrics.wal_syncs.load(Ordering::Relaxed), 0);
        // On disk: the first record whole, the second torn.
        let scan = scan_segment(&dir.join(segment_name(0))).unwrap();
        assert_eq!(scan.torn, Some(TornTail::ShortRecord));
        assert_eq!(scan.num_events(), 8);
    }

    #[test]
    fn lane_rotate_counts_syncs_once_and_charges_the_budget() {
        let dir = tmpdir("lane-rotate");
        let log = sample_events();
        // Room for all of segment 0 (two records), then a second segment's
        // header and 5 bytes of its first record.
        let mut probe = WalWriter::from_sink(Vec::new(), 0, Duration::ZERO).unwrap();
        probe.append(&log[..8]).unwrap();
        probe.append(&log[8..16]).unwrap();
        let seg0 = probe.bytes_written();
        let (mut lane, metrics) = lane(&dir, HOUR, seg0 + HEADER_LEN + 5);
        let syncs = || metrics.wal_syncs.load(Ordering::Relaxed);

        assert_eq!(lane.sync(&log[..8]), 0..8);
        assert_eq!(lane.append(&log[..16], Barrier::None), 8..8);
        assert_eq!(syncs(), 1);
        assert_eq!(lane.sync(&log[..16]), 8..16);
        assert_eq!(
            lane.sync(&log[..16]),
            16..16,
            "clean: no barrier, nothing new"
        );
        assert_eq!(syncs(), 2);

        lane.rotate(16);
        assert!(lane.is_open());
        assert_eq!(
            syncs(),
            2,
            "the retired writer's barriers are not recounted"
        );
        assert_eq!((lane.synced, lane.appended), (16, 16));
        assert_eq!(lane.fault_budget, Some(HEADER_LEN + 5));
        assert_eq!(
            std::fs::metadata(dir.join(segment_name(0))).unwrap().len(),
            seg0
        );

        // The fresh writer counts from zero; its first barrier is one more.
        assert_eq!(lane.sync(&log[..16]), 16..16);
        assert_eq!(syncs(), 3);
        // And the charged budget trips where the sum says it should.
        assert_eq!(lane.sync(&log[..24]), 16..16);
        assert!(!lane.is_open());
        assert_eq!(syncs(), 3);
        let scan = scan_segment(&dir.join(segment_name(16))).unwrap();
        assert_eq!(scan.start_offset, 16);
        assert_eq!(
            (scan.num_events(), scan.torn),
            (0, Some(TornTail::ShortRecord))
        );
    }

    #[test]
    fn lane_zero_window_append_is_durable_immediately() {
        let dir = tmpdir("lane-zero-window");
        let log = sample_events();
        let (mut lane, metrics) = lane(&dir, Duration::ZERO, u64::MAX);
        // What the single worker passes under a zero window, and what a
        // shard passes always: both close the (empty) window at once.
        assert_eq!(lane.append(&log[..8], Barrier::Forced), 0..8);
        assert_eq!(lane.append(&log[..20], Barrier::WindowElapsed), 8..20);
        assert_eq!(metrics.wal_syncs.load(Ordering::Relaxed), 2);
        // Nothing new and nothing unsynced: no barrier.
        assert_eq!(lane.append(&log[..20], Barrier::WindowElapsed), 20..20);
        assert_eq!(lane.append(&log[..30], Barrier::None), 20..20);
        assert_eq!((lane.synced, lane.appended), (20, 30));
        assert_eq!(metrics.wal_syncs.load(Ordering::Relaxed), 2);
        // Window-elapsed closes the tail an earlier call left unsynced,
        // whether or not this call appends anything.
        assert_eq!(lane.append(&log[..30], Barrier::WindowElapsed), 20..30);
        assert_eq!(metrics.wal_syncs.load(Ordering::Relaxed), 3);
        assert_eq!(lane.sync(&log[..30]), 30..30);
        let scan = scan_segment(&dir.join(segment_name(0))).unwrap();
        assert_eq!((scan.num_events(), scan.torn), (30, None));
    }

    #[test]
    fn lane_window_tick_closes_an_idle_unsynced_tail() {
        let dir = tmpdir("lane-idle-tick");
        let log = sample_events();
        let window = Duration::from_millis(20);
        let (mut lane, metrics) = lane(&dir, window, u64::MAX);
        assert_eq!(lane.append(&log[..8], Barrier::None), 0..0);
        std::thread::sleep(window);
        // The group-commit tick of an owner that has gone idle: nothing new
        // to append, the window long gone, the tail still unsynced.
        assert_eq!(lane.append(&log[..8], Barrier::WindowElapsed), 0..8);
        assert_eq!(metrics.wal_syncs.load(Ordering::Relaxed), 1);
        assert_eq!((lane.synced, lane.appended), (8, 8));
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(parse_segment_name(&segment_name(0)), Some(0));
        assert_eq!(parse_segment_name(&segment_name(338_320)), Some(338_320));
        assert_eq!(parse_segment_name("wal-zz.wal"), None);
        assert_eq!(parse_segment_name("ckpt-0.ckpt"), None);
        let dir = tmpdir("list");
        for start in [512u64, 0, 64] {
            WalWriter::create(&dir, start, Duration::ZERO).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        let starts: Vec<u64> = segs.iter().map(|(s, _)| *s).collect();
        assert_eq!(starts, vec![0, 64, 512]);
    }
}
