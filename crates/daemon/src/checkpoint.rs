//! Checkpoints, computation metadata, and the recovery scan.
//!
//! A checkpoint is *not* a serialized engine: by delivery-order invariance
//! (the property the whole workspace is built on), the stamps and the
//! published trace are pure functions of the delivered prefix, so the
//! checkpoint serializes exactly that — the ingest worker's delivered log
//! (the sharded runtime's assembled cut) — and recovery *recomputes* state
//! by replaying it through the normal ingest pipeline, then replays the WAL
//! tail on top. Checkpoints exist to bound recovery time and disk:
//! once one is durable, the WAL segments it covers are deleted.
//!
//! ## On-disk layout (per computation directory)
//!
//! ```text
//! meta                    computation parameters   (written once, CRC'd)
//! ckpt-<delivered>.ckpt   delivered prefix         (atomic tmp+rename)
//! wal-<start>.wal         delivered events > start (see crate::wal)
//! epochs                  retained-epoch marks     (atomic tmp+rename)
//! ```
//!
//! Checkpoint file:
//!
//! ```text
//! [8]  magic "CTSCKPT1"
//! [4]  u32 LE CRC-32 of the body
//! body = [u16 name][u32 num_processes][u32 max_cluster_size]
//!        [u64 delivered][u32 count][event...]          (wire codec)
//! ```
//!
//! Meta file: magic `"CTSMETA1"`, same CRC discipline, body without the
//! `delivered`/events part.
//!
//! ## Recovery state machine
//!
//! ```text
//! scan dir ─► pick newest checkpoint that passes CRC (older ones are
//!             fallbacks; a torn tmp file was never renamed, so a *named*
//!             checkpoint is complete or bit-rotted, never half-written)
//!          ─► scan WAL segments in start order, keeping the longest
//!             contiguous run of records continuing from the checkpoint;
//!             truncate the first torn tail and ignore anything beyond it
//!          ─► replay checkpoint events, then WAL-tail events, through the
//!             reorder buffer → engine → delivered log (the normal pipeline)
//!          ─► open a fresh segment at the recovered offset; serve
//! ```

use crate::wal::{self, SegmentScan};
use cts_model::Event;
use cts_util::crc32::crc32;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const CKPT_MAGIC: &[u8; 8] = b"CTSCKPT1";
const META_MAGIC: &[u8; 8] = b"CTSMETA1";
const EPOCHS_MAGIC: &[u8; 8] = b"CTSEPOC1";

/// Durable computation parameters (the `meta` file).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompMeta {
    pub name: String,
    pub num_processes: u32,
    pub max_cluster_size: u32,
}

/// A loaded checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    pub meta: CompMeta,
    /// Events covered (== `events.len()`).
    pub delivered: u64,
    pub events: Vec<Event>,
}

fn encode_meta(meta: &CompMeta) -> Vec<u8> {
    let mut body = Vec::with_capacity(2 + meta.name.len() + 8);
    body.extend_from_slice(&(meta.name.len() as u16).to_le_bytes());
    body.extend_from_slice(meta.name.as_bytes());
    body.extend_from_slice(&meta.num_processes.to_le_bytes());
    body.extend_from_slice(&meta.max_cluster_size.to_le_bytes());
    body
}

struct MetaCursor<'a>(&'a [u8]);

impl<'a> MetaCursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(corrupt("truncated body"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn meta(&mut self) -> io::Result<CompMeta> {
        let name_len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(self.take(name_len)?.to_vec())
            .map_err(|_| corrupt("non-UTF-8 computation name"))?;
        let num_processes = u32::from_le_bytes(self.take(4)?.try_into().unwrap());
        let max_cluster_size = u32::from_le_bytes(self.take(4)?.try_into().unwrap());
        Ok(CompMeta {
            name,
            num_processes,
            max_cluster_size,
        })
    }
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt file: {what}"))
}

/// Wrap a body in `magic + crc` and write it via tmp+rename, syncing the
/// file and its directory so the rename is durable.
fn write_atomic(dir: &Path, name: &str, magic: &[u8; 8], body: &[u8]) -> io::Result<()> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    // Make the rename itself durable.
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Read and CRC-check a `magic + crc + body` file, returning the body.
fn read_checked(path: &Path, magic: &[u8; 8]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < 12 || &buf[..8] != magic {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let body = buf.split_off(12);
    if crc32(&body) != crc {
        return Err(corrupt("CRC mismatch"));
    }
    Ok(body)
}

/// File name of the checkpoint covering `delivered` events.
pub fn checkpoint_name(delivered: u64) -> String {
    format!("ckpt-{delivered:016x}.ckpt")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Create `dir` (if needed) and its `meta` file; validate against an
/// existing one. This is the first durable act of a monitored computation.
pub fn ensure_meta(dir: &Path, meta: &CompMeta) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("meta");
    if path.exists() {
        let existing = load_meta(dir)?;
        if existing != *meta {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("computation directory {dir:?} belongs to {existing:?}, not {meta:?}"),
            ));
        }
        return Ok(());
    }
    write_atomic(dir, "meta", META_MAGIC, &encode_meta(meta))
}

/// Load and validate the `meta` file.
pub fn load_meta(dir: &Path) -> io::Result<CompMeta> {
    let body = read_checked(&dir.join("meta"), META_MAGIC)?;
    let mut c = MetaCursor(&body);
    let meta = c.meta()?;
    if !c.0.is_empty() {
        return Err(corrupt("trailing bytes in meta"));
    }
    Ok(meta)
}

/// Write the checkpoint covering `events` (the full delivered prefix, in
/// delivery order) atomically, then delete older checkpoints beyond the
/// most recent fallback and every WAL segment the new checkpoint covers.
pub fn write_checkpoint(dir: &Path, meta: &CompMeta, events: &[Event]) -> io::Result<()> {
    write_checkpoint_with_floor(dir, meta, events, u64::MAX)
}

/// As [`write_checkpoint`], but WAL segments holding events beyond
/// `retain_floor` are kept even when the checkpoint covers them: a retained
/// epoch (see [`cts_store::EpochRetainer`]) still references that part of
/// the delivered prefix, and the retention window promises the WAL bytes
/// behind every retained epoch outlive the epoch itself.
pub fn write_checkpoint_with_floor(
    dir: &Path,
    meta: &CompMeta,
    events: &[Event],
    retain_floor: u64,
) -> io::Result<()> {
    let delivered = events.len() as u64;
    let mut body = encode_meta(meta);
    body.extend_from_slice(&delivered.to_le_bytes());
    crate::wire::encode_event_block(&mut body, events);
    write_atomic(dir, &checkpoint_name(delivered), CKPT_MAGIC, &body)?;

    // Retire what the checkpoint covers: older checkpoints (keep one
    // fallback) and fully covered WAL segments.
    let mut older: Vec<u64> = list_checkpoints(dir)?
        .into_iter()
        .map(|(d, _)| d)
        .filter(|&d| d < delivered)
        .collect();
    older.sort_unstable();
    for &d in older.iter().rev().skip(1) {
        let _ = std::fs::remove_file(dir.join(checkpoint_name(d)));
    }
    for (start, path) in wal::list_segments(dir)? {
        // A segment starting at `start` holds events `start+1..`; it is
        // fully covered only if the *next* segment starts at or before
        // `delivered` — conservatively, delete segments whose successor
        // exists and starts ≤ delivered. Simpler and safe: scan-free rule
        // using names only would be wrong for the active segment, so keep
        // any segment that might hold events > delivered.
        if start >= delivered {
            continue;
        }
        if let Ok(scan) = wal::scan_segment(&path) {
            if scan.end_offset() <= delivered.min(retain_floor) && scan.torn.is_none() {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    Ok(())
}

/// Persist the retained-epoch marks: `(epoch, delivered)` pairs, oldest
/// first. Rewritten (atomically) on every publish of a durable single-mode
/// computation, so a restart can republish the same epochs at the same
/// delivered offsets during recovery replay — retained history survives a
/// crash. Best-effort: a lost marks file costs retained epochs, not events.
pub fn write_epoch_marks(dir: &Path, marks: &[(u64, u64)]) -> io::Result<()> {
    let mut body = Vec::with_capacity(4 + marks.len() * 16);
    body.extend_from_slice(&(marks.len() as u32).to_le_bytes());
    for &(epoch, delivered) in marks {
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(&delivered.to_le_bytes());
    }
    write_atomic(dir, "epochs", EPOCHS_MAGIC, &body)
}

/// Load the retained-epoch marks, oldest first. A missing file is an empty
/// list (fresh directory, or one written before retention existed).
pub fn load_epoch_marks(dir: &Path) -> io::Result<Vec<(u64, u64)>> {
    let path = dir.join("epochs");
    if !path.exists() {
        return Ok(Vec::new());
    }
    let body = read_checked(&path, EPOCHS_MAGIC)?;
    let mut c = MetaCursor(&body);
    let count = u32::from_le_bytes(c.take(4)?.try_into().unwrap()) as usize;
    let mut marks = Vec::with_capacity(count);
    for _ in 0..count {
        let epoch = u64::from_le_bytes(c.take(8)?.try_into().unwrap());
        let delivered = u64::from_le_bytes(c.take(8)?.try_into().unwrap());
        marks.push((epoch, delivered));
    }
    if !c.0.is_empty() {
        return Err(corrupt("trailing bytes in epochs"));
    }
    Ok(marks)
}

/// All checkpoints in `dir` by delivered count (unvalidated), sorted.
fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(d) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            out.push((d, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Load the newest checkpoint that passes validation, if any.
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    load_latest_checkpoint_named(dir, None)
}

/// As [`load_latest_checkpoint`], but when `expected_name` is given, a
/// checkpoint embedding a *different* computation name is a hard error, not
/// a fallback: unlike bit-rot, a cross-computation checkpoint means the
/// directory was mixed up (a copied data dir, a bad `--follow` target, a
/// subscription answered from the wrong computation), and silently skipping
/// it would replay someone else's event stream or a half-empty one.
pub fn load_latest_checkpoint_named(
    dir: &Path,
    expected_name: Option<&str>,
) -> io::Result<Option<Checkpoint>> {
    for (delivered, path) in list_checkpoints(dir)?.into_iter().rev() {
        match load_checkpoint(&path) {
            Ok(ckpt) if ckpt.delivered == delivered => {
                if let Some(want) = expected_name {
                    if ckpt.meta.name != want {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "checkpoint {} belongs to computation {:?}, not {:?} — \
                                 refusing a cross-computation directory",
                                path.display(),
                                ckpt.meta.name,
                                want
                            ),
                        ));
                    }
                }
                return Ok(Some(ckpt));
            }
            Ok(_) | Err(_) => continue, // bit-rot or size mismatch: fall back
        }
    }
    Ok(None)
}

fn load_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let body = read_checked(path, CKPT_MAGIC)?;
    let mut c = MetaCursor(&body);
    let meta = c.meta()?;
    let delivered = u64::from_le_bytes(c.take(8)?.try_into().unwrap());
    let events = crate::wire::decode_event_block(c.0).map_err(|e| corrupt(&e.to_string()))?;
    if events.len() as u64 != delivered {
        return Err(corrupt("checkpoint event count mismatch"));
    }
    Ok(Checkpoint {
        meta,
        delivered,
        events,
    })
}

/// What a recovery scan found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Events restored from the newest valid checkpoint.
    pub checkpoint_events: u64,
    /// Events restored from WAL segments beyond the checkpoint.
    pub wal_events: u64,
    /// WAL segments read.
    pub segments_scanned: usize,
    /// Bytes cut off a torn segment tail (0 when clean).
    pub torn_bytes_truncated: u64,
    /// Human-readable description of the tear, if one was found.
    pub torn_tail: Option<String>,
}

impl RecoveryReport {
    /// Total events restored.
    pub fn total_events(&self) -> u64 {
        self.checkpoint_events + self.wal_events
    }
}

/// The full recovery scan for one computation directory: newest valid
/// checkpoint plus the longest contiguous WAL run on top, with the first
/// torn tail physically truncated. Returns the replay list (a prefix of a
/// valid delivery order) and the offset new WAL segments must continue
/// from.
pub fn recover_dir(dir: &Path) -> io::Result<(Vec<Event>, RecoveryReport)> {
    let mut report = RecoveryReport::default();
    let mut events: Vec<Event> = Vec::new();
    let mut next_offset = 1u64; // delivery offset the replay expects next

    // When the directory carries a `meta` file, any checkpoint replayed
    // from it must embed the same computation name — a mismatch is a
    // mixed-up directory, refused rather than replayed.
    let expected_name = match load_meta(dir) {
        Ok(m) => Some(m.name),
        Err(_) => None, // no (or unreadable) meta: legacy dir, best effort
    };
    if let Some(ckpt) = load_latest_checkpoint_named(dir, expected_name.as_deref())? {
        report.checkpoint_events = ckpt.delivered;
        next_offset = ckpt.delivered + 1;
        events = ckpt.events;
    }

    for (start, path) in wal::list_segments(dir)? {
        // Segments fully covered by the checkpoint may survive (deletion is
        // best-effort); skip them. Segments starting beyond the contiguous
        // frontier are unreachable (can only appear after an earlier tear)
        // and are ignored.
        let scan: SegmentScan = wal::scan_segment(&path)?;
        report.segments_scanned += 1;
        if let Some(kind) = scan.torn {
            let file_len = std::fs::metadata(&path)?.len();
            report.torn_bytes_truncated += file_len - scan.valid_len;
            report.torn_tail = Some(format!("{}: {kind}", path.display()));
            wal::truncate_segment(&path, scan.valid_len)?;
        }
        if scan.end_offset() < next_offset {
            continue; // nothing new in here
        }
        if start >= next_offset {
            // A gap (possible only after an earlier tear): events beyond it
            // cannot be applied.
            break;
        }
        for rec in &scan.records {
            for (i, &ev) in rec.events.iter().enumerate() {
                let offset = rec.first_offset + i as u64;
                if offset == next_offset {
                    events.push(ev);
                    next_offset += 1;
                    report.wal_events += 1;
                }
            }
        }
        if scan.torn.is_some() {
            break; // nothing beyond a tear is contiguous
        }
    }
    Ok((events, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use cts_workloads::{spmd::Stencil1D, Workload};
    use std::time::Duration;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cts-ckpt-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta() -> CompMeta {
        CompMeta {
            name: "pvm/stencil".into(),
            num_processes: 6,
            max_cluster_size: 4,
        }
    }

    fn sample_events() -> Vec<Event> {
        Stencil1D { procs: 6, iters: 4 }
            .generate(11)
            .events()
            .to_vec()
    }

    #[test]
    fn meta_roundtrips_and_guards_mismatch() {
        let dir = tmpdir("meta");
        ensure_meta(&dir, &meta()).unwrap();
        assert_eq!(load_meta(&dir).unwrap(), meta());
        // Re-ensuring with identical parameters is idempotent.
        ensure_meta(&dir, &meta()).unwrap();
        // A different shape under the same directory is refused.
        let other = CompMeta {
            num_processes: 9,
            ..meta()
        };
        assert!(ensure_meta(&dir, &other).is_err());
    }

    #[test]
    fn checkpoint_roundtrips() {
        let dir = tmpdir("ckpt");
        let events = sample_events();
        ensure_meta(&dir, &meta()).unwrap();
        write_checkpoint(&dir, &meta(), &events[..20]).unwrap();
        let ckpt = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ckpt.meta, meta());
        assert_eq!(ckpt.delivered, 20);
        assert_eq!(ckpt.events, events[..20]);
    }

    #[test]
    fn newest_valid_checkpoint_wins_and_bitrot_falls_back() {
        let dir = tmpdir("fallback");
        let events = sample_events();
        write_checkpoint(&dir, &meta(), &events[..10]).unwrap();
        write_checkpoint(&dir, &meta(), &events[..30]).unwrap();
        // Corrupt the newest: recovery falls back to the older one.
        let newest = dir.join(checkpoint_name(30));
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        let ckpt = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ckpt.delivered, 10);
    }

    #[test]
    fn recover_dir_stitches_checkpoint_and_wal_tail() {
        let dir = tmpdir("stitch");
        let events = sample_events();
        write_checkpoint(&dir, &meta(), &events[..20]).unwrap();
        let mut w = WalWriter::create(&dir, 20, Duration::ZERO).unwrap();
        w.append(&events[20..35]).unwrap();
        w.append(&events[35..50]).unwrap();
        w.sync().unwrap();
        drop(w);
        let (replay, report) = recover_dir(&dir).unwrap();
        assert_eq!(replay, events[..50]);
        assert_eq!(report.checkpoint_events, 20);
        assert_eq!(report.wal_events, 30);
        assert!(report.torn_tail.is_none());
    }

    #[test]
    fn recover_dir_overlapping_wal_is_deduplicated() {
        // A WAL segment that starts *before* the checkpoint frontier (its
        // deletion raced a crash): only the uncovered suffix is replayed.
        let dir = tmpdir("overlap");
        let events = sample_events();
        let mut w = WalWriter::create(&dir, 0, Duration::ZERO).unwrap();
        w.append(&events[..30]).unwrap();
        w.sync().unwrap();
        drop(w);
        write_checkpoint(&dir, &meta(), &events[..20]).unwrap();
        // write_checkpoint keeps the segment (it extends past 20).
        let (replay, report) = recover_dir(&dir).unwrap();
        assert_eq!(replay, events[..30]);
        assert_eq!(report.checkpoint_events, 20);
        assert_eq!(report.wal_events, 10);
    }

    #[test]
    fn recover_dir_without_checkpoint_replays_wal_only() {
        let dir = tmpdir("walonly");
        let events = sample_events();
        let mut w = WalWriter::create(&dir, 0, Duration::ZERO).unwrap();
        w.append(&events[..25]).unwrap();
        w.sync().unwrap();
        drop(w);
        let (replay, report) = recover_dir(&dir).unwrap();
        assert_eq!(replay, events[..25]);
        assert_eq!(report.checkpoint_events, 0);
        assert_eq!(report.wal_events, 25);
    }

    #[test]
    fn recover_dir_empty_is_empty() {
        let dir = tmpdir("fresh");
        let (replay, report) = recover_dir(&dir).unwrap();
        assert!(replay.is_empty());
        assert_eq!(report.total_events(), 0);
    }

    #[test]
    fn cross_computation_checkpoint_is_refused() {
        // A checkpoint copied in from another computation's directory must
        // fail recovery loudly, not replay the wrong event stream.
        let dir = tmpdir("mixup");
        let events = sample_events();
        ensure_meta(&dir, &meta()).unwrap();
        let other = CompMeta {
            name: "web/other".into(),
            ..meta()
        };
        write_checkpoint(&dir, &other, &events[..20]).unwrap();
        let err = recover_dir(&dir).unwrap_err();
        assert!(
            err.to_string().contains("web/other"),
            "error should name the interloper: {err}"
        );
        assert!(load_latest_checkpoint_named(&dir, Some("pvm/stencil")).is_err());
        // The same checkpoint under its *own* name loads fine.
        assert!(load_latest_checkpoint_named(&dir, Some("web/other"))
            .unwrap()
            .is_some());
        // And a matching checkpoint recovers green.
        let _ = std::fs::remove_file(dir.join(checkpoint_name(20)));
        write_checkpoint(&dir, &meta(), &events[..20]).unwrap();
        let (replay, _) = recover_dir(&dir).unwrap();
        assert_eq!(replay, events[..20]);
    }

    #[test]
    fn epoch_marks_roundtrip_and_missing_is_empty() {
        let dir = tmpdir("marks");
        assert_eq!(load_epoch_marks(&dir).unwrap(), Vec::new());
        let marks = vec![(3, 120), (4, 180), (7, 400)];
        write_epoch_marks(&dir, &marks).unwrap();
        assert_eq!(load_epoch_marks(&dir).unwrap(), marks);
        // Rewrite shrinks (GC retired the oldest).
        write_epoch_marks(&dir, &marks[1..]).unwrap();
        assert_eq!(load_epoch_marks(&dir).unwrap(), marks[1..]);
    }

    #[test]
    fn retain_floor_keeps_covered_segments() {
        let dir = tmpdir("floor");
        let events = sample_events();
        let mut w = WalWriter::create(&dir, 0, Duration::ZERO).unwrap();
        w.append(&events[..20]).unwrap();
        w.sync().unwrap();
        drop(w);
        // The checkpoint covers the segment, but a retained epoch at
        // delivered=10 still references events inside it: keep it.
        write_checkpoint_with_floor(&dir, &meta(), &events[..20], 10).unwrap();
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        // Once the floor passes the segment's end, it is retired.
        write_checkpoint_with_floor(&dir, &meta(), &events[..20], 20).unwrap();
        assert!(wal::list_segments(&dir).unwrap().is_empty());
    }

    #[test]
    fn checkpoint_retires_covered_segments() {
        let dir = tmpdir("retire");
        let events = sample_events();
        let mut w = WalWriter::create(&dir, 0, Duration::ZERO).unwrap();
        w.append(&events[..20]).unwrap();
        w.sync().unwrap();
        drop(w);
        write_checkpoint(&dir, &meta(), &events[..20]).unwrap();
        assert!(wal::list_segments(&dir).unwrap().is_empty());
        // Recovery equals the checkpoint alone.
        let (replay, _) = recover_dir(&dir).unwrap();
        assert_eq!(replay, events[..20]);
    }
}
