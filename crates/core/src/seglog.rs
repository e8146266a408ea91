//! Durable segment log: crash-safe storage for sequenced event streams.
//!
//! [`archive`](crate::archive) embeds metadata so a file is readable with
//! zero prior knowledge; this module solves the orthogonal problem of
//! making a *live* stream durable so a late or reconnecting subscriber
//! can replay history and then cut over to the live feed at an exact
//! sequence boundary. The broker appends every record of a durable
//! stream here before fanning it out, which is what makes the cutover
//! invariant hold: once a subscription is acknowledged, every earlier
//! record is already on disk.
//!
//! Layout: a log is a directory of fixed-size segment files named
//! `seg-<base-seq>.x2wlog`. Each segment is
//! `"X2WSEGLG" ∥ u8 version ∥ u64 LE base seq ∥ records*`, each record
//! `u32 LE payload len ∥ u64 LE seq ∥ payload ∥ u32 LE crc`, where the
//! CRC-32 (IEEE) covers the length, sequence, and payload bytes.
//! Sequences are contiguous: record `n+1` in a segment has seq one
//! greater than record `n`, and a segment's base seq is the seq of its
//! first record.
//!
//! One function, `next_frame`, decides what the bytes at the start of
//! a window are — a whole CRC-clean record, not enough bytes yet, or
//! something no correct writer produced — and does no I/O. Replay and
//! recovery both drive it through a `Window` that is refilled by large
//! reads, so neither pays a system call, a copy or an allocation per
//! record: [`SegReplay::next_record`] *lends* each payload out of the
//! window it was checked in. One function, `put_frame`, writes the
//! frame. Archives ([`crate::archive`]) are a header and these frames,
//! written by `put_frame` and read through a `Window`.
//!
//! Writing is by group ([`SegmentLog::append_group`]): any number of
//! records are framed into one buffer and reach the file in one
//! `write` per segment they touch; [`SegmentLog::append`] is a group of
//! one. A reader running beside the writer could therefore see part of
//! a group — which is why a replay is certified in *bytes* as well as
//! in sequence numbers when it is opened, and never reads past them.
//!
//! Crash recovery: [`SegmentLog::open`] re-validates the *tail* segment
//! frame by frame and truncates at the first record whose length,
//! sequence, or CRC does not check out — a torn tail from a crash
//! mid-append disappears, everything fsynced before it survives.
//! Earlier (sealed) segments are validated lazily during replay, where
//! corruption is an error rather than silent truncation.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use pbio::PbioError;

use crate::error::X2wError;

/// The segment-file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"X2WSEGLG";
/// The segment format version this build writes.
pub const SEGMENT_VERSION: u8 = 1;
/// Fixed header size: magic ∥ version ∥ base seq.
const SEGMENT_HEADER: u64 = 8 + 1 + 8;
/// Framing before a record's payload: len ∥ seq.
const FRAME_HEAD: usize = 4 + 8;
/// Per-record framing overhead: len ∥ seq ∥ crc.
const RECORD_OVERHEAD: u64 = FRAME_HEAD as u64 + 4;
/// Corruption guard: one record's payload may not claim more than this.
pub const MAX_RECORD: u32 = 64 * 1024 * 1024;
/// Bytes a replay or a recovery scan asks the file for at a time. The
/// window is larger only while it holds a single record that is.
const CHUNK: usize = 256 * 1024;

/// When the log forces data to stable storage.
///
/// Policies count *records*, but the log syncs at most once per write,
/// after it and before the append call returns — so a group append
/// (see [`SegmentLog::append_group`]) is covered by one sync, and
/// nothing a caller does after the call returns (the broker's fan-out,
/// say) can run ahead of the guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every write before the append returns: every record of a
    /// group is on stable storage when its append call returns —
    /// maximum durability, slowest.
    Always,
    /// fsync once `n` records have been written since the last sync
    /// (and on rotation / explicit [`SegmentLog::sync`]); a crash loses
    /// at most `n - 1` records whose append has returned.
    EveryN(u32),
    /// Never fsync implicitly; the OS decides. A crash can lose any
    /// record not yet written back.
    Never,
}

/// How much sealed history a [`SegmentLog`] keeps.
///
/// Retention is enforced on rotation, in whole segments: when the log
/// seals a segment and starts a new one, sealed segments past *any*
/// configured cap are deleted oldest-first until every cap is met (the
/// tightest cap wins). The active segment is never deleted, so each
/// cap is effectively at least one segment of history. A
/// [`SegmentLog::replay_from`] that asks for a compacted-away sequence
/// fails with the typed [`X2wError::SeqTruncated`] instead of silently
/// starting late — the caller (a federation link catching up after an
/// outage, say) must *know* the history is gone, not infer it from a
/// gap. The same error reports a segment deleted *under* an open
/// replay, which opens its segments lazily.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retention {
    /// Cap on the number of segment files, active one included;
    /// `None` (the default) keeps everything.
    pub max_segments: Option<usize>,
    /// Drop sealed segments whose file modification time (the instant
    /// the last record was written to them) is at least this old at
    /// rotation; `None` keeps segments regardless of age.
    pub max_age: Option<Duration>,
    /// Cap on the total on-disk bytes across all segment files, active
    /// one included; `None` keeps everything.
    pub max_total_bytes: Option<u64>,
}

/// Tuning knobs for a [`SegmentLog`].
#[derive(Debug, Clone, Copy)]
pub struct SegLogConfig {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (header included). Clamped to at least one record.
    pub segment_bytes: u64,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// How much sealed history to keep.
    pub retention: Retention,
}

impl Default for SegLogConfig {
    fn default() -> Self {
        SegLogConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(32),
            retention: Retention::default(),
        }
    }
}

fn log_err(detail: String) -> X2wError {
    X2wError::Bcm(PbioError::Text { detail })
}

/// CRC-32 (IEEE) over `bytes`, continuing from `seed` (pass `0` to
/// start a fresh checksum).
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut hasher = crc32fast::Hasher::new_with_initial(seed);
    hasher.update(bytes);
    hasher.finalize()
}

/// What [`next_frame`] found at the start of a window.
pub(crate) enum Frame {
    /// A whole record with a matching CRC: it occupies the window's
    /// first `total` bytes and `payload` indexes the window.
    Record {
        seq: u64,
        payload: Range<usize>,
        total: usize,
    },
    /// Undecidable until the window holds this many bytes.
    NeedMore(usize),
    /// Not something a correct writer put there.
    Bad(String),
}

/// The one decoder of `len ∥ seq ∥ payload ∥ crc`: what is at the start
/// of `window`, given that the next record must carry `expect_seq`.
/// Pure — replay and recovery differ only in what they do with `Bad`.
/// A verdict never changes as the window grows: a prefix of a valid
/// record is `NeedMore`, never `Bad`.
pub(crate) fn next_frame(window: &[u8], expect_seq: u64) -> Frame {
    let Some(head) = window.first_chunk::<FRAME_HEAD>() else {
        return Frame::NeedMore(FRAME_HEAD);
    };
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(head[4..].try_into().expect("8 bytes"));
    if len > MAX_RECORD {
        return Frame::Bad(format!(
            "record claims {len} bytes, over the {MAX_RECORD} limit"
        ));
    }
    if seq != expect_seq {
        return Frame::Bad(format!("record seq {seq} where seq {expect_seq} belongs"));
    }
    let body = FRAME_HEAD + len as usize;
    let Some(crc) = window.get(body..body + 4) else {
        return Frame::NeedMore(body + 4);
    };
    if u32::from_le_bytes(crc.try_into().expect("4 bytes")) != crc32(0, &window[..body]) {
        return Frame::Bad(format!("record seq {seq} fails its crc check"));
    }
    Frame::Record {
        seq,
        payload: FRAME_HEAD..body,
        total: body + 4,
    }
}

/// The one writer of `len ∥ seq ∥ payload ∥ crc`: appends the frame of
/// record `seq` to `out`, its payload handed over by `parts` as any
/// number of byte slices. An oversized payload leaves `out` as it was.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    seq: u64,
    parts: impl FnOnce(&mut dyn FnMut(&[u8])),
) -> Result<(), X2wError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&seq.to_le_bytes());
    let mut len = 0u64;
    parts(&mut |bytes: &[u8]| {
        len += bytes.len() as u64;
        if len <= u64::from(MAX_RECORD) {
            out.extend_from_slice(bytes);
        }
    });
    if len > u64::from(MAX_RECORD) {
        out.truncate(start);
        return Err(log_err(format!(
            "record of {len} bytes exceeds the {MAX_RECORD} limit"
        )));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(0, &out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// One step of a [`Window`] through its segment.
pub(crate) enum Step {
    /// The next record; `payload` indexes [`Window::buf`].
    Record { seq: u64, payload: Range<usize> },
    /// The segment ends here, on a record boundary.
    End,
    /// The segment stops being a sequence of records here.
    Torn(String),
}

/// The bytes of one segment that [`next_frame`] is looking at: a buffer
/// refilled a [`CHUNK`] at a time from a source it is lent for each
/// call, never beyond the length the segment was certified to have.
#[derive(Debug, Default)]
pub(crate) struct Window {
    pub(crate) buf: Vec<u8>,
    /// `buf[head..tail]` is read and not yet walked.
    head: usize,
    tail: usize,
    /// Certified bytes of the segment not yet read.
    pub(crate) remaining: u64,
    /// Seq the next record must carry.
    pub(crate) expect: u64,
}

impl Window {
    /// Starts on a segment of `limit` certified bytes whose header must
    /// name `base_seq`; `false` if the header is short or wrong.
    fn start(&mut self, src: &mut impl Read, limit: u64, base_seq: u64) -> io::Result<bool> {
        (self.head, self.tail, self.remaining, self.expect) = (0, 0, limit, base_seq);
        if !self.fill(src, SEGMENT_HEADER as usize)? {
            return Ok(false);
        }
        self.head = SEGMENT_HEADER as usize;
        Ok(self.buf[..self.head] == segment_header(base_seq))
    }

    /// Makes `buf[head..]` hold at least `need` bytes, reading as much
    /// of a chunk as the certified length allows; `false` if the
    /// segment ends first.
    fn fill(&mut self, src: &mut impl Read, need: usize) -> io::Result<bool> {
        let have = self.tail - self.head;
        // Where the certified bytes end, counted from `head`.
        let certified = have.saturating_add(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        if need > certified {
            return Ok(false);
        }
        self.buf.copy_within(self.head..self.tail, 0);
        (self.head, self.tail) = (0, have);
        let size = need.max(CHUNK.min(certified));
        if self.buf.len() < size {
            self.buf.resize(size, 0);
        }
        while self.tail < need {
            let end = self.buf.len().min(certified);
            match src.read(&mut self.buf[self.tail..end]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.tail += n;
                    self.remaining -= n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    pub(crate) fn step(&mut self, src: &mut impl Read) -> io::Result<Step> {
        loop {
            match next_frame(&self.buf[self.head..self.tail], self.expect) {
                Frame::Record {
                    seq,
                    payload,
                    total,
                } => {
                    let at = self.head;
                    self.head += total;
                    self.expect = seq + 1;
                    return Ok(Step::Record {
                        seq,
                        payload: at + payload.start..at + payload.end,
                    });
                }
                Frame::NeedMore(need) if self.fill(src, need)? => {}
                Frame::NeedMore(_) if self.head == self.tail => return Ok(Step::End),
                Frame::NeedMore(_) => {
                    return Ok(Step::Torn(format!(
                        "segment ends inside record seq {}",
                        self.expect
                    )))
                }
                Frame::Bad(why) => return Ok(Step::Torn(why)),
            }
        }
    }
}

/// The header of the segment whose first record is `base_seq`.
fn segment_header(base_seq: u64) -> [u8; SEGMENT_HEADER as usize] {
    let mut header = [0; SEGMENT_HEADER as usize];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8] = SEGMENT_VERSION;
    header[9..].copy_from_slice(&base_seq.to_le_bytes());
    header
}

fn segment_path(dir: &Path, base_seq: u64) -> PathBuf {
    dir.join(format!("seg-{base_seq:020}.x2wlog"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".x2wlog")?;
    rest.parse().ok()
}

/// One sealed or active segment file, by base sequence.
#[derive(Debug, Clone)]
struct SegmentRef {
    base_seq: u64,
    path: PathBuf,
}

#[derive(Debug)]
struct ActiveSegment {
    file: File,
    /// Bytes of whole records (and the header) written so far: what a
    /// replay opened now may read.
    bytes: u64,
}

/// What [`SegmentLog::append_group`] could not append.
#[derive(Debug)]
pub struct GroupError {
    /// Records of the group that are not in the log: each one rejected,
    /// and every one that was in a write that failed or behind it.
    pub lost: usize,
    /// The first error met.
    pub first: X2wError,
}

/// An append-only, crash-recovering log of `(seq, payload)` records.
///
/// Appends must be contiguous: the first append after opening an empty
/// log carries seq 1 (or any chosen starting seq), and each later
/// append carries the previous seq plus one. This is what lets
/// [`replay_from`](Self::replay_from) promise a gap-free stream.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    config: SegLogConfig,
    segments: Vec<SegmentRef>,
    active: Option<ActiveSegment>,
    /// Seq of the last record appended; 0 when the log is empty.
    last_seq: u64,
    /// Seq of the first record retained; 0 when the log is empty.
    first_seq: u64,
    unsynced: u32,
    /// The group being appended, framed, and where each frame ends.
    scratch: Vec<u8>,
    ends: Vec<usize>,
}

impl SegmentLog {
    /// Opens (or creates) the log at `dir`, recovering from a torn
    /// tail: the last segment is scanned record by record and truncated
    /// at the first length / sequence / CRC mismatch.
    ///
    /// # Errors
    ///
    /// I/O failures. A tail segment whose *header* is unreadable is
    /// rewritten empty (a crash can land between segment creation and
    /// the header write); bad headers on sealed segments surface as
    /// replay errors instead — that is corruption, not a torn tail.
    pub fn open(dir: impl Into<PathBuf>, config: SegLogConfig) -> Result<Self, X2wError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(base_seq) = name.to_str().and_then(parse_segment_name) {
                segments.push(SegmentRef {
                    base_seq,
                    path: entry.path(),
                });
            }
        }
        segments.sort_by_key(|s| s.base_seq);

        let mut log = SegmentLog {
            dir,
            config,
            segments,
            active: None,
            last_seq: 0,
            first_seq: 0,
            unsynced: 0,
            scratch: Vec::new(),
            ends: Vec::new(),
        };
        log.recover_tail()?;
        Ok(log)
    }

    /// Walks the final segment, truncating the torn tail, and positions
    /// the log for appending.
    fn recover_tail(&mut self) -> Result<(), X2wError> {
        let Some(tail) = self.segments.last().cloned() else {
            return Ok(());
        };
        self.first_seq = self.segments[0].base_seq;
        let file = OpenOptions::new().read(true).write(true).open(&tail.path)?;
        let file_len = file.metadata()?.len();

        // Everything up to `valid_end` is header and whole records; 0
        // says not even the header is.
        let mut valid_end = 0u64;
        let mut window = Window::default();
        if window.start(&mut &file, file_len, tail.base_seq)? {
            valid_end = SEGMENT_HEADER;
            while let Step::Record { payload, .. } = window.step(&mut &file)? {
                valid_end += RECORD_OVERHEAD + payload.len() as u64;
            }
        }

        if valid_end == 0 {
            // A crash can land between creating the tail segment and
            // writing its header; rewrite it from scratch.
            file.set_len(0)?;
            file.write_all_at(&segment_header(tail.base_seq), 0)?;
            file.sync_all()?;
            valid_end = SEGMENT_HEADER;
        } else if valid_end < file_len {
            file.set_len(valid_end)?;
            file.sync_all()?;
        }

        // The walk stopped expecting the seq after the last whole record.
        self.last_seq = window.expect.saturating_sub(1);
        if self.last_seq == 0 && self.segments.len() == 1 && valid_end == SEGMENT_HEADER {
            // The whole log is one empty segment.
            self.first_seq = 0;
        }
        self.active = Some(ActiveSegment {
            file,
            bytes: valid_end,
        });
        Ok(())
    }

    /// Seq of the last durable record, `0` if the log is empty.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Seals the active segment and starts the one whose first record
    /// is `base_seq`.
    fn rotate(&mut self, base_seq: u64) -> Result<(), X2wError> {
        if let Some(seg) = &mut self.active {
            // Seal the outgoing segment so rotation is a durability
            // barrier regardless of policy.
            seg.file.sync_all()?;
        }
        let path = segment_path(&self.dir, base_seq);
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .read(true)
            .open(&path)?;
        file.write_all_at(&segment_header(base_seq), 0)?;
        self.segments.push(SegmentRef { base_seq, path });
        self.active = Some(ActiveSegment {
            file,
            bytes: SEGMENT_HEADER,
        });
        self.unsynced = 0;
        self.enforce_retention()
    }

    /// Appends one record — a group of one. `seq` must continue the
    /// log: exactly `last_seq() + 1` once the log is non-empty (the
    /// first append may pick any starting seq ≥ 1).
    ///
    /// # Errors
    ///
    /// Non-contiguous sequences, oversized payloads, I/O failures.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> Result<(), X2wError> {
        self.append_group([(seq, |put: &mut dyn FnMut(&[u8])| put(payload))])
            .map_err(|e| e.first)
    }

    /// Appends a group of records with one `write` per segment the
    /// group touches (rotation splits it), under one fsync decision per
    /// write. Each record is its `seq` and a function that hands the
    /// payload over as any number of byte slices, so a caller whose
    /// payload lives in pieces frames it without gluing them first.
    /// Sequences must continue the log as for [`append`](Self::append);
    /// a record that does not, or is oversized, is rejected on its own
    /// and the rest of the group is judged as if it had not been given.
    ///
    /// When the call returns, the records it did not report lost are
    /// visible to [`replay_from`](Self::replay_from) and as durable as
    /// the [`FsyncPolicy`] promises.
    ///
    /// # Errors
    ///
    /// How many records were not appended and the first reason why.
    pub fn append_group<P: FnOnce(&mut dyn FnMut(&[u8]))>(
        &mut self,
        records: impl IntoIterator<Item = (u64, P)>,
    ) -> Result<(), GroupError> {
        self.scratch.clear();
        self.ends.clear();
        let mut last = self.last_seq;
        let mut failed: Option<GroupError> = None;
        for (seq, parts) in records {
            match self.frame(seq, last, parts) {
                Ok(()) => last = seq,
                Err(e) => failed.get_or_insert(GroupError { lost: 0, first: e }).lost += 1,
            }
        }
        let mut written = 0;
        if let Err(e) = self.write_frames(last, &mut written) {
            failed.get_or_insert(GroupError { lost: 0, first: e }).lost +=
                self.ends.len() - written;
        }
        failed.map_or(Ok(()), Err)
    }

    /// Frames one record of a group at the end of `scratch`; `last` is
    /// the seq of the record before it.
    fn frame(
        &mut self,
        seq: u64,
        last: u64,
        parts: impl FnOnce(&mut dyn FnMut(&[u8])),
    ) -> Result<(), X2wError> {
        if seq == 0 {
            return Err(log_err("sequence numbers start at 1".to_owned()));
        }
        let expect = last + 1;
        if last != 0 && seq != expect {
            return Err(log_err(format!(
                "non-contiguous append: expected seq {expect}, got {seq}"
            )));
        }
        put_frame(&mut self.scratch, seq, parts)?;
        self.ends.push(self.scratch.len());
        Ok(())
    }

    /// Writes the framed group, whose last record is `last`: as many
    /// frames as the active segment has room for in one write, then a
    /// rotation, until none is left. `written` counts the frames that
    /// made it.
    ///
    /// One write carries many records, so a reader beside the writer
    /// may find part of a group in the file. It never *parses* one:
    /// `bytes`, `last_seq` and `first_seq` move only once a write has
    /// returned, under the same `&mut self` a replay's snapshot is taken
    /// against, and a replay reads no byte past its snapshot.
    ///
    /// Each write lands at `bytes`, the certified length, not at the
    /// file cursor: a write that fails part-way (`ENOSPC`, `EFBIG`)
    /// leaves a partial frame behind `bytes`, and the next write covers
    /// it instead of landing after it. Torn records therefore come only
    /// from crashes, and the CRC catches those.
    fn write_frames(&mut self, last: u64, written: &mut usize) -> Result<(), X2wError> {
        let first = last + 1 - self.ends.len() as u64;
        while *written < self.ends.len() {
            let start = if *written == 0 {
                0
            } else {
                self.ends[*written - 1]
            };
            // A frame goes where the last one went unless that segment
            // is full; an empty segment takes any one frame.
            let fits = self.active.as_ref().map_or(0, |seg| {
                let room = self.config.segment_bytes.saturating_sub(seg.bytes);
                let whole =
                    self.ends[*written..].partition_point(|&end| (end - start) as u64 <= room);
                whole.max(usize::from(seg.bytes == SEGMENT_HEADER))
            });
            if fits == 0 {
                self.rotate(first + *written as u64)?;
                continue;
            }
            let end = self.ends[*written + fits - 1];
            let seg = self
                .active
                .as_mut()
                .expect("a frame fits only in a segment");
            seg.file
                .write_all_at(&self.scratch[start..end], seg.bytes)?;
            seg.bytes += (end - start) as u64;
            *written += fits;
            self.last_seq = first + *written as u64 - 1;
            if self.first_seq == 0 {
                self.first_seq = first;
            }
            self.unsynced = self.unsynced.saturating_add(fits as u32);
            let sync_now = match self.config.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
                FsyncPolicy::Never => false,
            };
            if sync_now {
                seg.file.sync_all()?;
                self.unsynced = 0;
            }
        }
        Ok(())
    }

    /// Deletes whole sealed segments oldest-first until every
    /// configured [`Retention`] cap is met. Runs on rotation only, so
    /// the active segment — which every cap is clamped to always
    /// include — is never touched, and an append-heavy log pays
    /// nothing per record.
    fn enforce_retention(&mut self) -> Result<(), X2wError> {
        let Retention {
            max_segments,
            max_age,
            max_total_bytes,
        } = self.config.retention;
        if max_segments.is_none() && max_age.is_none() && max_total_bytes.is_none() {
            return Ok(());
        }
        // Total on-disk size for the byte cap, recomputed from file
        // metadata so a reopened log accounts for existing history.
        let mut total_bytes: u64 = 0;
        if max_total_bytes.is_some() {
            for seg in &self.segments {
                total_bytes += fs::metadata(&seg.path)?.len();
            }
        }
        let now = SystemTime::now();
        while self.segments.len() > 1 {
            let over_count = max_segments.is_some_and(|max| self.segments.len() > max.max(1));
            let over_bytes = max_total_bytes.is_some_and(|max| total_bytes > max);
            // Segments seal in order, so the oldest-first scan can stop
            // at the first one young enough to keep.
            let over_age = match max_age {
                Some(max) => {
                    let mtime = fs::metadata(&self.segments[0].path)?.modified()?;
                    now.duration_since(mtime).unwrap_or(Duration::ZERO) >= max
                }
                None => false,
            };
            if !(over_count || over_bytes || over_age) {
                break;
            }
            let seg = self.segments.remove(0);
            if max_total_bytes.is_some() {
                total_bytes = total_bytes.saturating_sub(fs::metadata(&seg.path)?.len());
            }
            fs::remove_file(&seg.path)?;
            self.first_seq = self.segments[0].base_seq;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), X2wError> {
        if let Some(seg) = &mut self.active {
            seg.file.sync_all()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Opens a bounded replay of records with seq ≥ `from_seq`, ending
    /// at the log's current [`last_seq`](Self::last_seq) (a snapshot —
    /// records appended later are not visited; the caller cuts over to
    /// the live stream and dedupes by seq). The snapshot is certified
    /// in bytes too: the replay reads the segment that is active now
    /// only as far as it has been written now, so appends that run
    /// beside it are never read, let alone half-read.
    ///
    /// The replay holds its own file handle and one read window, so
    /// it is bounded-memory and may run while appends continue.
    ///
    /// # Errors
    ///
    /// [`X2wError::SeqTruncated`] when `from_seq` asks for history the
    /// log no longer retains (compacted away under [`Retention`], or
    /// the log simply started later) — the caller must decide whether
    /// starting at [`first_seq`](Self::first_seq) is acceptable rather
    /// than have the gap papered over. I/O failures listing segments.
    pub fn replay_from(&self, from_seq: u64) -> Result<SegReplay, X2wError> {
        if self.first_seq > 1 && from_seq.max(1) < self.first_seq {
            return Err(X2wError::SeqTruncated {
                requested: from_seq.max(1),
                earliest: self.first_seq,
            });
        }
        let mut relevant: Vec<SegmentRef> = Vec::new();
        for (i, seg) in self.segments.iter().enumerate() {
            // A segment is relevant if any of its records could be ≥
            // from_seq: that is, unless the *next* segment still starts
            // at or below from_seq.
            let superseded = self
                .segments
                .get(i + 1)
                .is_some_and(|next| next.base_seq <= from_seq);
            if !superseded {
                relevant.push(seg.clone());
            }
        }
        Ok(SegReplay {
            segments: relevant,
            next_segment: 0,
            current: None,
            window: Window::default(),
            from_seq: from_seq.max(1),
            end_seq: self.last_seq,
            end_bytes: self.active.as_ref().map_or(0, |seg| seg.bytes),
        })
    }
}

/// A bounded-memory cursor over a [`SegmentLog`]'s records.
///
/// Lends `(seq, payload)` in sequence order starting at the requested
/// seq; corruption inside a sealed segment is an error (recovery only
/// forgives the torn *tail* of the log), and so is history that is no
/// longer there.
#[derive(Debug)]
pub struct SegReplay {
    /// The snapshot's segments; the last is the one that was active.
    segments: Vec<SegmentRef>,
    next_segment: usize,
    current: Option<File>,
    window: Window,
    /// The next seq owed to the caller.
    from_seq: u64,
    end_seq: u64,
    /// Length of the last segment when the snapshot was taken.
    end_bytes: u64,
}

impl SegReplay {
    /// Seq of the last record this replay will yield (the log's tail at
    /// the time the replay was opened); `0` for an empty log.
    pub fn end_seq(&self) -> u64 {
        self.end_seq
    }

    /// Opens the next segment of the snapshot, which still owes
    /// `from_seq`.
    fn open_next(&mut self) -> Result<(), X2wError> {
        let Some(seg) = self.segments.get(self.next_segment) else {
            return Err(log_err(format!(
                "the log ends before seq {}",
                self.from_seq
            )));
        };
        self.next_segment += 1;
        let later = &self.segments[self.next_segment..];
        let file = match File::open(&seg.path) {
            // Deleted under us: retention rotated the log since the
            // snapshot. Sealed segments go oldest-first, so the first
            // one still there is where history now starts.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let survivor = later.iter().find(|s| s.path.exists());
                return Err(X2wError::SeqTruncated {
                    requested: self.from_seq,
                    earliest: survivor.map_or(self.end_seq + 1, |s| s.base_seq),
                });
            }
            opened => opened?,
        };
        // Sealed segments are final; the one that was active counts
        // only as far as the snapshot certified it.
        let limit = if later.is_empty() {
            self.end_bytes
        } else {
            file.metadata()?.len()
        };
        // The first segment may start before the seq owed; each later
        // one starts exactly where the one before it ended.
        let joins = match self.next_segment {
            1 => seg.base_seq <= self.from_seq,
            _ => seg.base_seq == self.window.expect,
        };
        if !joins || !self.window.start(&mut &file, limit, seg.base_seq)? {
            let path = seg.path.display();
            return Err(log_err(format!(
                "segment {path} has a bad header or does not continue the log"
            )));
        }
        self.current = Some(file);
        Ok(())
    }

    /// Lends the next in-range record — valid until the next call —
    /// or `None` once the snapshot end is reached.
    ///
    /// # Errors
    ///
    /// Corrupt segments (bad CRC, forged lengths, a sequence skipped or
    /// repeated, truncation before the snapshot end), and
    /// [`X2wError::SeqTruncated`] when [`Retention`] deleted a segment
    /// of the snapshot before the replay reached it.
    pub fn next_record(&mut self) -> Result<Option<(u64, &[u8])>, X2wError> {
        while self.from_seq <= self.end_seq {
            let Some(file) = &self.current else {
                self.open_next()?;
                continue;
            };
            match self.window.step(&mut &*file)? {
                Step::Record { seq, payload } if seq >= self.from_seq => {
                    self.from_seq = seq + 1;
                    return Ok(Some((seq, &self.window.buf[payload])));
                }
                Step::Record { .. } => {}
                Step::End => self.current = None,
                Step::Torn(why) => return Err(log_err(why)),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;

    impl SegmentLog {
        /// Seq of the earliest retained record, `0` if the log is empty.
        fn first_seq(&self) -> u64 {
            self.first_seq
        }

        /// Number of segment files (including the active one).
        fn segment_count(&self) -> usize {
            self.segments.len()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("x2w-seglog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat((i % 7) as usize * 16)).into_bytes()
    }

    /// Every record a replay yields; it must end cleanly.
    fn collect(mut replay: SegReplay) -> Vec<(u64, Vec<u8>)> {
        let mut got = Vec::new();
        while let Some((seq, payload)) = replay.next_record().unwrap() {
            got.push((seq, payload.to_vec()));
        }
        got
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // Incremental == one-shot.
        let whole = crc32(0, b"hello world");
        let split = crc32(crc32(0, b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
        for i in 1..=50 {
            log.append(i, &payload(i)).unwrap();
        }
        assert_eq!(log.last_seq(), 50);
        assert_eq!(log.first_seq(), 1);
        let entries = collect(log.replay_from(1).unwrap());
        assert_eq!(entries.len(), 50);
        for (i, (seq, body)) in entries.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(*body, payload(*seq));
        }
        // Mid-stream replay.
        let tail = collect(log.replay_from(33).unwrap());
        assert_eq!(tail.first().unwrap().0, 33);
        assert_eq!(tail.len(), 18);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = temp_dir("rotate");
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=40 {
            log.append(i, &payload(i)).unwrap();
        }
        assert!(
            log.segment_count() > 3,
            "only {} segments",
            log.segment_count()
        );
        let entries = collect(log.replay_from(1).unwrap());
        assert_eq!(entries.len(), 40);
        // Replay skips segments wholly below from_seq.
        let late = collect(log.replay_from(39).unwrap());
        assert_eq!(
            late.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![39, 40]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_at_the_right_seq() {
        let dir = temp_dir("reopen");
        let config = SegLogConfig {
            segment_bytes: 512,
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        {
            let mut log = SegmentLog::open(&dir, config).unwrap();
            for i in 1..=20 {
                log.append(i, &payload(i)).unwrap();
            }
        }
        let mut log = SegmentLog::open(&dir, config).unwrap();
        assert_eq!(log.last_seq(), 20);
        log.append(21, &payload(21)).unwrap();
        let entries = collect(log.replay_from(1).unwrap());
        assert_eq!(entries.len(), 21);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let dir = temp_dir("torn");
        let config = SegLogConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        {
            let mut log = SegmentLog::open(&dir, config).unwrap();
            for i in 1..=10 {
                log.append(i, &payload(i)).unwrap();
            }
        }
        // Simulate a crash mid-append: write a partial record at the end.
        let seg = segment_path(&dir, 1);
        let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
        file.write_all(&40u32.to_le_bytes()).unwrap();
        file.write_all(&11u64.to_le_bytes()).unwrap();
        file.write_all(b"only part of the payload").unwrap();
        drop(file);

        let mut log = SegmentLog::open(&dir, config).unwrap();
        assert_eq!(log.last_seq(), 10, "torn record must not count");
        let entries = collect(log.replay_from(1).unwrap());
        assert_eq!(entries.len(), 10);
        // And the log keeps appending cleanly where the tail was cut.
        log.append(11, &payload(11)).unwrap();
        assert_eq!(collect(log.replay_from(1).unwrap()).len(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_tail_truncates_from_the_flip() {
        let dir = temp_dir("bitflip");
        let config = SegLogConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        {
            let mut log = SegmentLog::open(&dir, config).unwrap();
            for i in 1..=8 {
                log.append(i, &payload(i)).unwrap();
            }
        }
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        // Flip one payload bit inside roughly the 6th record.
        let target = bytes.len() * 3 / 4;
        bytes[target] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();

        let log = SegmentLog::open(&dir, config).unwrap();
        assert!(log.last_seq() < 8, "flip at ~3/4 must drop tail records");
        let entries = collect(log.replay_from(1).unwrap());
        assert_eq!(entries.len() as u64, log.last_seq());
        for (i, (seq, body)) in entries.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(*body, payload(*seq));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_length_in_sealed_segment_is_a_replay_error() {
        let dir = temp_dir("forged");
        let config = SegLogConfig {
            segment_bytes: 128,
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        {
            let mut log = SegmentLog::open(&dir, config).unwrap();
            for i in 1..=12 {
                log.append(i, &payload(i)).unwrap();
            }
            assert!(log.segment_count() >= 2);
        }
        // Forge the first record's length in the FIRST (sealed) segment.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let off = SEGMENT_HEADER as usize;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();

        // Recovery still succeeds (only the tail is re-validated) but
        // replay through the sealed segment reports the forgery instead
        // of allocating 4 GiB.
        let log = SegmentLog::open(&dir, config).unwrap();
        let mut replay = log.replay_from(1).unwrap();
        let err = loop {
            match replay.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("forged length must not read cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("limit"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_snapshot_ignores_later_appends() {
        let dir = temp_dir("snapshot");
        let mut log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
        for i in 1..=5 {
            log.append(i, &payload(i)).unwrap();
        }
        let replay = log.replay_from(1).unwrap();
        assert_eq!(replay.end_seq(), 5);
        for i in 6..=9 {
            log.append(i, &payload(i)).unwrap();
        }
        let entries = collect(replay);
        assert_eq!(entries.len(), 5, "snapshot must stop at its end seq");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_and_oversized_appends_are_rejected() {
        let dir = temp_dir("contig");
        let mut log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
        assert!(log.append(0, b"x").is_err(), "seq 0 is reserved");
        log.append(1, b"a").unwrap();
        assert!(log.append(3, b"b").is_err(), "gap must be rejected");
        assert!(log.append(1, b"b").is_err(), "repeat must be rejected");
        log.append(2, b"b").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_deletes_sealed_segments_on_rotation() {
        let dir = temp_dir("retention");
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_segments: Some(3),
                ..Retention::default()
            },
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=60 {
            log.append(i, &payload(i)).unwrap();
        }
        assert!(
            log.segment_count() <= 3,
            "{} segments retained",
            log.segment_count()
        );
        assert!(log.first_seq() > 1, "oldest history must be compacted away");
        assert_eq!(log.last_seq(), 60, "retention must never touch the tail");
        // The directory itself agrees with the in-memory view.
        let on_disk = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                parse_segment_name(e.as_ref().unwrap().file_name().to_str().unwrap()).is_some()
            })
            .count();
        assert_eq!(on_disk, log.segment_count());
        // Everything still retained replays cleanly and contiguously.
        let entries = collect(log.replay_from(log.first_seq()).unwrap());
        assert_eq!(entries.first().unwrap().0, log.first_seq());
        assert_eq!(entries.last().unwrap().0, 60);
        for pair in entries.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
        }
        // Retention survives reopen: first_seq comes from the files.
        drop(log);
        let log = SegmentLog::open(&dir, config).unwrap();
        assert!(log.first_seq() > 1);
        assert_eq!(log.last_seq(), 60);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replaying_a_compacted_seq_is_a_typed_error() {
        let dir = temp_dir("truncated");
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_segments: Some(2),
                ..Retention::default()
            },
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=40 {
            log.append(i, &payload(i)).unwrap();
        }
        let earliest = log.first_seq();
        assert!(earliest > 1);
        match log.replay_from(1) {
            Err(X2wError::SeqTruncated {
                requested,
                earliest: e,
            }) => {
                assert_eq!(requested, 1);
                assert_eq!(e, earliest);
            }
            other => panic!("expected SeqTruncated, got {other:?}"),
        }
        // The boundary itself is fine.
        assert!(log.replay_from(earliest).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_max_age_drops_every_sealed_segment_on_rotation() {
        let dir = temp_dir("age-zero");
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_age: Some(Duration::ZERO),
                ..Retention::default()
            },
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=60 {
            log.append(i, &payload(i)).unwrap();
        }
        // Every sealed segment is instantly past the age cap, so only
        // the active one survives each rotation.
        assert_eq!(log.segment_count(), 1);
        assert!(
            log.first_seq() > 1,
            "aged-out history must be compacted away"
        );
        assert_eq!(log.last_seq(), 60, "retention must never touch the tail");
        // Compacted history still fails closed with the typed error.
        match log.replay_from(1) {
            Err(X2wError::SeqTruncated {
                requested: 1,
                earliest,
            }) => {
                assert_eq!(earliest, log.first_seq());
            }
            other => panic!("expected SeqTruncated, got {other:?}"),
        }
        let entries = collect(log.replay_from(log.first_seq()).unwrap());
        assert_eq!(entries.first().unwrap().0, log.first_seq());
        assert_eq!(entries.last().unwrap().0, 60);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generous_max_age_keeps_all_history() {
        let dir = temp_dir("age-huge");
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_age: Some(Duration::from_secs(3600)),
                ..Retention::default()
            },
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=60 {
            log.append(i, &payload(i)).unwrap();
        }
        assert!(log.segment_count() > 3, "nothing is an hour old yet");
        assert_eq!(log.first_seq(), 1);
        assert_eq!(collect(log.replay_from(1).unwrap()).len(), 60);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_cap_bounds_total_log_size() {
        let dir = temp_dir("bytes");
        let cap = 600u64;
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_total_bytes: Some(cap),
                ..Retention::default()
            },
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=120 {
            log.append(i, &payload(i)).unwrap();
        }
        assert!(log.first_seq() > 1, "oldest history must be compacted away");
        assert_eq!(log.last_seq(), 120);
        // The cap is enforced at rotation, so the live total can
        // exceed it only by what the active segment grew since.
        let on_disk: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert!(
            on_disk <= cap + config.segment_bytes,
            "{on_disk} bytes on disk exceeds cap {cap} plus one active segment"
        );
        // Retained history replays contiguously.
        let entries = collect(log.replay_from(log.first_seq()).unwrap());
        for pair in entries.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tightest_retention_cap_wins() {
        // A loose segment-count cap combined with a tight byte cap: the
        // byte cap governs.
        let dir = temp_dir("tightest");
        let config = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_segments: Some(50),
                max_age: Some(Duration::from_secs(3600)),
                max_total_bytes: Some(600),
            },
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        for i in 1..=120 {
            log.append(i, &payload(i)).unwrap();
        }
        assert!(
            log.segment_count() < 10,
            "byte cap should hold far fewer than 50 segments, got {}",
            log.segment_count()
        );
        assert!(log.first_seq() > 1);
        assert_eq!(log.last_seq(), 120);

        // And the reverse: a tight count cap with loose byte/age caps.
        let dir2 = temp_dir("tightest2");
        let config2 = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            retention: Retention {
                max_segments: Some(2),
                max_age: Some(Duration::from_secs(3600)),
                max_total_bytes: Some(u64::MAX),
            },
        };
        let mut log2 = SegmentLog::open(&dir2, config2).unwrap();
        for i in 1..=60 {
            log2.append(i, &payload(i)).unwrap();
        }
        assert!(log2.segment_count() <= 2, "got {}", log2.segment_count());
        assert_eq!(log2.last_seq(), 60);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn a_segment_deleted_under_an_open_replay_is_seq_truncated() {
        let dir = temp_dir("deleted-under-replay");
        let small = SegLogConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        for keep in [1usize, 2] {
            let _ = fs::remove_dir_all(&dir);
            {
                let mut log = SegmentLog::open(&dir, small).unwrap();
                for i in 1..=40 {
                    log.append(i, &payload(i)).unwrap();
                }
                assert!(log.segment_count() >= 3);
            }
            let retention = Retention {
                max_segments: Some(keep),
                ..Retention::default()
            };
            let mut log = SegmentLog::open(&dir, SegLogConfig { retention, ..small }).unwrap();
            // Every segment is still there, so the replay opens; it
            // opens its files lazily, so none is held yet.
            let mut replay = log.replay_from(log.first_seq()).unwrap();
            let owed = log.first_seq();
            let mut next = log.last_seq() + 1;
            while log.first_seq() == owed {
                log.append(next, &payload(next)).unwrap();
                next += 1;
            }
            let end = replay.end_seq();
            match replay.next_record() {
                Err(X2wError::SeqTruncated {
                    requested,
                    earliest,
                }) => {
                    assert_eq!(requested, owed, "the next seq the replay owed");
                    // keep = 1 deleted the whole snapshot; keep = 2 left
                    // its last segment, where history now starts.
                    let expected = if keep == 1 { end + 1 } else { log.first_seq() };
                    assert_eq!(earliest, expected, "keep {keep}");
                    assert!(earliest > owed && earliest <= end + 1);
                }
                other => panic!("expected SeqTruncated, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Hands `body` over in three slices, as the broker does a record.
    fn in_three(body: &[u8], put: &mut dyn FnMut(&[u8])) {
        let cut = body.len() / 3;
        put(&body[..cut]);
        put(&body[cut..cut]);
        put(&body[cut..]);
    }

    #[test]
    fn a_group_append_writes_what_single_appends_write() {
        let (one, many) = (temp_dir("group-single"), temp_dir("group-many"));
        let config = SegLogConfig {
            segment_bytes: 700,
            fsync: FsyncPolicy::EveryN(5),
            ..Default::default()
        };
        let bodies: Vec<Vec<u8>> = (1..=90).map(payload).collect();
        let mut single = SegmentLog::open(&one, config).unwrap();
        let mut grouped = SegmentLog::open(&many, config).unwrap();
        for (i, body) in bodies.iter().enumerate() {
            single.append(i as u64 + 1, body).unwrap();
        }
        // Groups of 1, 2, 3, …: most of them straddle a rotation.
        let (mut next, mut size) = (0usize, 1usize);
        while next < bodies.len() {
            let bodies = &bodies[next..bodies.len().min(next + size)];
            let seqs = next as u64 + 1..;
            grouped
                .append_group(
                    seqs.zip(bodies)
                        .map(|(seq, b)| (seq, move |put: &mut dyn FnMut(&[u8])| in_three(b, put))),
                )
                .unwrap();
            next += bodies.len();
            size += 1;
            assert_eq!(grouped.last_seq(), next as u64);
            assert!(
                grouped.unsynced < 5,
                "EveryN(5) leaves at most 4 unsynced records"
            );
        }
        assert!(single.segment_count() > 5);
        assert_eq!(grouped.segment_count(), single.segment_count());
        for (a, b) in single.segments.iter().zip(&grouped.segments) {
            assert_eq!(a.base_seq, b.base_seq, "same rotation points");
            assert_eq!(fs::read(&a.path).unwrap(), fs::read(&b.path).unwrap());
        }
        assert_eq!(
            collect(grouped.replay_from(1).unwrap()),
            collect(single.replay_from(1).unwrap())
        );
        fs::remove_dir_all(&one).unwrap();
        fs::remove_dir_all(&many).unwrap();
    }

    #[test]
    fn a_group_rejects_record_by_record() {
        let dir = temp_dir("group-reject");
        let mut log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
        let group = |records: [(u64, &'static [u8]); 3]| {
            records.map(|(seq, body)| (seq, move |put: &mut dyn FnMut(&[u8])| in_three(body, put)))
        };
        let err = log
            .append_group(group([(0, b"zero"), (7, b"first"), (9, b"gap")]))
            .unwrap_err();
        assert_eq!(err.lost, 2, "seq 0 and the gap: {}", err.first);
        assert_eq!((log.first_seq(), log.last_seq()), (7, 7));
        // A rejected record is as if not given: 8 still continues 7.
        let err = log
            .append_group(group([(7, b"repeat"), (8, b"second"), (9, b"third")]))
            .unwrap_err();
        assert_eq!(err.lost, 1);
        assert!(
            err.first.to_string().contains("expected seq 8, got 7"),
            "{}",
            err.first
        );
        log.append_group(std::iter::empty::<(u64, fn(&mut dyn FnMut(&[u8])))>())
            .unwrap();
        let seqs: Vec<u64> = collect(log.replay_from(7).unwrap())
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replay_never_reads_past_its_certified_bytes() {
        let dir = temp_dir("certified");
        let mut log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
        for i in 1..=5 {
            log.append(i, &payload(i)).unwrap();
        }
        let replay = log.replay_from(1).unwrap();
        // What a reader beside the writer can find in the file: the
        // front of a group whose write has not returned — here a frame
        // that claims seq 6 and stops inside its payload.
        let mut file = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        file.write_all(&200u32.to_le_bytes()).unwrap();
        file.write_all(&6u64.to_le_bytes()).unwrap();
        file.write_all(b"half a payload").unwrap();
        let entries = collect(replay);
        assert_eq!(
            entries.len(),
            5,
            "the snapshot ends at its bytes, without an error"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A valid segment image: header and `n` records of `payload(i)`.
    fn segment_image(tag: &str, n: u64, segment_bytes: u64) -> Vec<u8> {
        let dir = temp_dir(tag);
        let config = SegLogConfig {
            segment_bytes,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let mut log = SegmentLog::open(&dir, config).unwrap();
        log.append_group((1..=n).map(|i| (i, move |put: &mut dyn FnMut(&[u8])| put(&payload(i)))))
            .unwrap();
        assert_eq!(log.segment_count(), 1);
        let image = fs::read(segment_path(&dir, 1)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        image
    }

    #[test]
    fn a_verdict_never_changes_as_the_window_grows() {
        // The safe-cut property: on every prefix of a valid segment the
        // walker answers what it answers on the whole of it, or asks for
        // more — never `Bad`. It is what lets a window end anywhere.
        let image = segment_image("safe-cut", 12, 1 << 20);
        let records = &image[SEGMENT_HEADER as usize..];
        let (mut at, mut seq) = (0usize, 1u64);
        while at < records.len() {
            let Frame::Record {
                seq: got,
                payload: whole,
                total,
            } = next_frame(&records[at..], seq)
            else {
                panic!("record {seq} of a valid segment");
            };
            assert_eq!(
                (got, &records[at..][whole.clone()]),
                (seq, &payload(seq)[..])
            );
            for cut in 0..total {
                match next_frame(&records[at..at + cut], seq) {
                    Frame::NeedMore(need) => assert!(need > cut && need <= total),
                    Frame::Record { .. } => panic!("a record from {cut} of its {total} bytes"),
                    Frame::Bad(why) => panic!("prefix {cut} of record {seq} is Bad: {why}"),
                }
            }
            // More bytes behind it change nothing either.
            assert!(matches!(
                next_frame(&records[at..at + total], seq),
                Frame::Record { payload, total: t, .. } if payload == whole && t == total
            ));
            at += total;
            seq += 1;
        }
        assert_eq!(seq, 13);
        assert!(
            matches!(next_frame(&records[..40], 2), Frame::Bad(_)),
            "wrong seq"
        );
    }

    #[test]
    fn a_segment_is_read_in_chunks_not_per_record() {
        struct Counting<R>(R, usize);
        impl<R: Read> Read for Counting<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.read(buf)
            }
        }
        let n = 140_000;
        let image = segment_image("chunks", n, 16 << 20);
        assert!(
            image.len() >= 8 << 20,
            "an 8 MiB segment, got {}",
            image.len()
        );
        let mut src = Counting(&image[..], 0);
        let mut window = Window::default();
        assert!(window.start(&mut src, image.len() as u64, 1).unwrap());
        let mut seen = 0;
        while let Step::Record { seq, payload: at } = window.step(&mut src).unwrap() {
            seen += 1;
            assert_eq!(seq, seen);
            if seq % 1000 == 0 {
                assert_eq!(&window.buf[at], &payload(seq)[..]);
            }
        }
        assert_eq!(seen, n);
        let reads = src.1;
        assert!(
            reads <= image.len() / CHUNK + 4,
            "{reads} reads for {} bytes",
            image.len()
        );
        assert!(
            window.buf.len() == CHUNK,
            "the window never grew past one chunk"
        );
    }

    #[test]
    fn empty_log_replay_is_empty() {
        let dir = temp_dir("empty");
        let log = SegmentLog::open(&dir, SegLogConfig::default()).unwrap();
        assert_eq!(log.last_seq(), 0);
        assert!(collect(log.replay_from(1).unwrap()).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
