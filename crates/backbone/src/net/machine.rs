//! The per-connection framing state machine.
//!
//! A nonblocking connection cannot use `read_exact`/`write_all`: bytes
//! arrive and drain in arbitrary slices decided by the kernel, so the
//! transport keeps an explicit machine per connection — *reading frame
//! header → reading body → frame complete* on the inbound side, and a
//! resumable byte cursor over a queue of blocks on the outbound
//! side. The machine is **pure**: it touches no sockets, which is what
//! lets the property tests drive it with one-byte deliveries, partial
//! writes at every cut point, and interleaved read/write readiness, and
//! compare the byte streams against the blocking oracle
//! ([`read_frame`]/[`write_frame_batch`]).
//!
//! Two pieces here are shared with the rest of the transport rather
//! than owned by the machine:
//!
//! * `decode_frame` is the **one** decoder of a transport frame from
//!   bytes: [`ConnMachine::next_frame`] and the client's lending
//!   receive ([`EventClient`](super::EventClient)) both call it on the
//!   buffer they already hold, and it borrows from that buffer. The
//!   public [`read_frame`] stays as the blocking reader the tests hold
//!   it to.
//! * A [`Block`] is the one output representation: whole frames
//!   already in wire format, contiguous, with their count. Whatever
//!   queues output — a handler's reply, a
//!   [`ServerHandle::push`](super::ServerHandle::push), a federation
//!   forwarder's drained batch — serialises into a block once, and from
//!   there to the socket the bytes are touched by nobody but the
//!   kernel: one `IoSlice` per block, admission and bookkeeping once per
//!   block.
//!
//! [`read_frame`]: super::read_frame
//! [`write_frame_batch`]: super::write_frame_batch

use std::collections::VecDeque;
use std::io::{IoSlice, Write};

use crate::error::BackboneError;

use super::{Frame, MAX_SECTION};

/// Most blocks one `writev` offers the kernel (one `IoSlice` each, held
/// in a stack array).
const MAX_BLOCKS_PER_WRITEV: usize = 64;

/// A frame as [`decode_frame`] lends it: `(stream, payload, total wire
/// bytes)`.
pub(crate) type Decoded<'a> = (&'a str, &'a [u8], usize);

/// Decodes the transport frame at the front of `buf` without copying:
/// `Ok(Some((stream, payload, total)))` borrows both sections from
/// `buf` and says how many bytes the frame occupies; `Ok(None)` means
/// `buf` is a proper prefix of a frame — more bytes are needed, and no
/// prefix of a well-formed frame is ever an error.
///
/// # Errors
///
/// `BadFrame` on hostile length prefixes or non-UTF-8 stream names —
/// the same rejections (and messages) as the blocking
/// [`read_frame`](super::read_frame) oracle, which like this function
/// looks at the name before it looks at the payload length. The name is
/// validated once, when its frame is whole (or already known bad), not
/// on every call that finds the frame still short.
pub(crate) fn decode_frame(buf: &[u8]) -> Result<Option<Decoded<'_>>, BackboneError> {
    let Some((len4, rest)) = buf.split_first_chunk::<4>() else { return Ok(None) };
    let name_len = u32::from_le_bytes(*len4);
    if name_len > MAX_SECTION {
        return Err(BackboneError::BadFrame {
            detail: format!("stream name length {name_len} exceeds limit"),
        });
    }
    let Some((name, rest)) = rest.split_at_checked(name_len as usize) else { return Ok(None) };
    let Some((len4, rest)) = rest.split_first_chunk::<4>() else { return Ok(None) };
    let stream = || {
        std::str::from_utf8(name)
            .map_err(|_| BackboneError::BadFrame { detail: "stream name is not UTF-8".into() })
    };
    let payload_len = u32::from_le_bytes(*len4);
    if payload_len > MAX_SECTION {
        stream()?;
        return Err(BackboneError::BadFrame {
            detail: format!("payload length {payload_len} exceeds limit"),
        });
    }
    let Some(payload) = rest.get(..payload_len as usize) else { return Ok(None) };
    Ok(Some((stream()?, payload, 8 + name.len() + payload.len())))
}

/// A contiguous run of whole frames in wire format, plus how many.
/// The unit every outbound hand-off moves: pushes are admitted, queued,
/// parked and written a block at a time.
#[derive(Debug, Default)]
pub struct Block {
    bytes: Vec<u8>,
    frames: usize,
}

impl Block {
    /// An empty block with room for `bytes` of wire image.
    pub(crate) fn with_capacity(bytes: usize) -> Block {
        Block { bytes: Vec::with_capacity(bytes), frames: 0 }
    }

    /// A one-frame block.
    pub fn of(frame: &Frame) -> Block {
        let mut block = Block::default();
        block.push_frame(frame);
        block
    }

    /// Appends `frame`'s wire image.
    pub fn push_frame(&mut self, frame: &Frame) {
        self.push_with(&frame.stream, frame.payload.len(), |bytes| {
            bytes.extend_from_slice(&frame.payload);
        });
    }

    /// Appends one frame whose payload `put` writes in place — exactly
    /// `payload_len` bytes — so a payload assembled from pieces is
    /// never built anywhere else first.
    pub(crate) fn push_with(
        &mut self,
        stream: &str,
        payload_len: usize,
        put: impl FnOnce(&mut Vec<u8>),
    ) {
        self.bytes.reserve(8 + stream.len() + payload_len);
        self.bytes.extend_from_slice(&(stream.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(stream.as_bytes());
        self.bytes.extend_from_slice(&(payload_len as u32).to_le_bytes());
        let start = self.bytes.len();
        put(&mut self.bytes);
        debug_assert_eq!(self.bytes.len() - start, payload_len);
        self.frames += 1;
    }

    /// Frames in the block.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Wire bytes in the block.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }
}

/// What one [`ConnMachine::write_some`] call accomplished.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// Bytes accepted by the writer in this call.
    pub bytes: usize,
    /// Whether the writer took fewer bytes than the batch offered — a
    /// partial write whose cursor the machine keeps for resumption.
    pub partial: bool,
    /// Frames fully drained onto the wire by this call (a frame counts
    /// when the block it travels in is through).
    pub frames_completed: usize,
}

/// Incremental frame codec state for one nonblocking connection.
///
/// Inbound bytes accumulate via [`ingest`](Self::ingest) and surface as
/// complete frames via [`next_frame`](Self::next_frame); outbound
/// frames queue via [`queue`](Self::queue) (or arrive as ready-made
/// blocks from the push path) and drain through
/// [`write_some`](Self::write_some), which offers the writer one slice
/// per queued block in a single vectored write and keeps a byte cursor
/// so a short write resumes exactly where the kernel stopped —
/// mid-length-prefix, mid-name, mid-payload, or across a block
/// boundary.
#[derive(Debug, Default)]
pub struct ConnMachine {
    /// Inbound bytes not yet parsed; `rstart` marks the consumed
    /// prefix, compacted periodically so the buffer stays small.
    rbuf: Vec<u8>,
    rstart: usize,
    /// Outbound blocks not yet fully written, and the frames and wire
    /// bytes they hold.
    out: VecDeque<Block>,
    out_frames: usize,
    out_bytes: usize,
    /// Bytes of the head block already written — the resumable
    /// partial-write cursor.
    written: usize,
}

impl ConnMachine {
    /// A fresh machine with empty buffers.
    pub fn new() -> ConnMachine {
        ConnMachine::default()
    }

    /// Appends bytes received from the socket.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// Bytes ingested but not yet consumed as frames.
    pub fn buffered_input(&self) -> usize {
        self.rbuf.len() - self.rstart
    }

    /// Parses the next complete frame out of the ingest buffer, or
    /// `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// `BadFrame` on hostile length prefixes or non-UTF-8 stream names
    /// — the same rejections (and messages) as the blocking
    /// [`read_frame`](super::read_frame) oracle.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, BackboneError> {
        let frame = match decode_frame(&self.rbuf[self.rstart..])? {
            Some((stream, payload, total)) => {
                self.rstart += total;
                Some(Frame { stream: stream.to_owned(), payload: payload.to_vec() })
            }
            None => None,
        };
        self.compact();
        Ok(frame)
    }

    /// Reclaims consumed prefix bytes and releases burst capacity so
    /// 100k idle connections do not pin the memory of their busiest
    /// moment.
    fn compact(&mut self) {
        if self.rstart == self.rbuf.len() {
            self.rbuf.clear();
            self.rstart = 0;
            if self.rbuf.capacity() > 1 << 20 {
                self.rbuf.shrink_to(64 * 1024);
            }
        } else if self.rstart >= 8 * 1024 && self.rstart * 2 >= self.rbuf.len() {
            let tail = self.rbuf.len() - self.rstart;
            self.rbuf.copy_within(self.rstart.., 0);
            self.rbuf.truncate(tail);
            self.rstart = 0;
        }
    }

    /// Queues a frame for writing, serialised into a block of its own.
    pub fn queue(&mut self, frame: Frame) {
        self.queue_block(Block::of(&frame));
    }

    /// Queues a ready-made block behind whatever is already queued.
    pub(crate) fn queue_block(&mut self, block: Block) {
        self.out_frames += block.frames();
        self.out_bytes += block.len();
        self.out.push_back(block);
    }

    /// Frames queued and not yet fully written.
    pub fn queued_frames(&self) -> usize {
        self.out_frames
    }

    /// Wire bytes still owed to the socket.
    pub fn pending_output(&self) -> usize {
        self.out_bytes - self.written
    }

    /// Whether any output (whole blocks or a partially-written head)
    /// remains.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Attempts one vectored write of up to `MAX_BLOCKS_PER_WRITEV` (64)
    /// queued blocks, one slice each, resuming from the partial-write
    /// cursor. Call repeatedly until the queue empties or the writer
    /// reports `WouldBlock`.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error (including `WouldBlock` on a
    /// nonblocking socket); a zero-length write surfaces as
    /// `WriteZero`. The cursor only advances on success, so a failed
    /// call can be retried verbatim.
    ///
    /// # Panics
    ///
    /// If called with an empty queue (callers gate on
    /// [`has_output`](Self::has_output)).
    pub fn write_some(&mut self, writer: &mut impl Write) -> std::io::Result<WriteOutcome> {
        assert!(!self.out.is_empty(), "write_some on an empty queue");
        let mut slices = [IoSlice::new(&[]); MAX_BLOCKS_PER_WRITEV];
        let mut count = 0;
        let mut offered = 0;
        for (slot, block) in slices.iter_mut().zip(&self.out) {
            let bytes = if count == 0 { &block.bytes[self.written..] } else { &block.bytes[..] };
            *slot = IoSlice::new(bytes);
            offered += bytes.len();
            count += 1;
        }
        let n = writer.write_vectored(&slices[..count])?;
        if n == 0 {
            return Err(std::io::Error::from(std::io::ErrorKind::WriteZero));
        }
        self.written += n;
        let mut frames_completed = 0;
        while let Some(front) = self.out.front() {
            if self.written < front.len() {
                break;
            }
            self.written -= front.len();
            self.out_bytes -= front.len();
            frames_completed += front.frames();
            self.out.pop_front();
        }
        self.out_frames -= frames_completed;
        Ok(WriteOutcome { bytes: n, partial: n < offered, frames_completed })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{read_frame, write_frame_batch};
    use super::*;

    #[test]
    fn frames_parse_across_arbitrary_splits() {
        let frames =
            vec![Frame::new("a", vec![1, 2, 3]), Frame::new("", vec![]), Frame::new("s", vec![9; 300])];
        let mut wire = Vec::new();
        write_frame_batch(&mut wire, &frames).unwrap();

        // One byte at a time: the harshest delivery schedule.
        let mut machine = ConnMachine::new();
        let mut got = Vec::new();
        for byte in &wire {
            machine.ingest(std::slice::from_ref(byte));
            while let Some(frame) = machine.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(machine.buffered_input(), 0);
    }

    #[test]
    fn hostile_lengths_error_like_the_oracle() {
        let mut machine = ConnMachine::new();
        machine.ingest(&[0xFF, 0xFF, 0xFF, 0xFF]);
        let machine_err = machine.next_frame().unwrap_err().to_string();
        let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        let oracle_err = read_frame(&mut bytes).unwrap_err().to_string();
        assert_eq!(machine_err, oracle_err);
    }

    #[test]
    fn a_bad_name_is_reported_before_a_forged_payload_length() {
        // The oracle reads (and rejects) the name before it reads the
        // payload length; the decoder must give the same verdict when
        // both are wrong.
        let mut wire = 2u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xFF, 0xFE]);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let decoder_err = decode_frame(&wire).unwrap_err().to_string();
        let oracle_err = read_frame(&mut wire.as_slice()).unwrap_err().to_string();
        assert_eq!(decoder_err, oracle_err);
        assert!(decoder_err.contains("UTF-8"), "{decoder_err}");
    }

    #[test]
    fn the_decoder_borrows_and_every_proper_prefix_needs_more() {
        let frame = Frame::new("stream-α", (0..40u8).collect());
        let wire = {
            let mut block = Block::of(&frame);
            block.push_frame(&Frame::new("next", vec![1]));
            block.bytes
        };
        let (stream, payload, total) = decode_frame(&wire).unwrap().unwrap();
        assert_eq!((stream, payload), (frame.stream.as_str(), frame.payload.as_slice()));
        assert_eq!(total, 8 + frame.stream.len() + frame.payload.len());
        for cut in 0..total {
            assert!(decode_frame(&wire[..cut]).unwrap().is_none(), "cut at {cut}");
        }
    }

    /// Accepts at most 3 bytes per call.
    struct Trickle(Vec<u8>);
    impl std::io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_mid_frame() {
        let frames = vec![Frame::new("stream-name", (0..100u8).collect()), Frame::new("x", vec![7; 40])];
        let mut machine = ConnMachine::new();
        for frame in &frames {
            machine.queue(frame.clone());
        }
        let mut sink = Trickle(Vec::new());
        while machine.has_output() {
            let outcome = machine.write_some(&mut sink).unwrap();
            assert!(outcome.bytes > 0);
        }
        let mut expected = Vec::new();
        write_frame_batch(&mut expected, &frames).unwrap();
        assert_eq!(sink.0, expected);
    }

    #[test]
    fn the_write_cursor_spans_blocks_and_replies_queued_mid_write() {
        // Pushed blocks and replies interleaved on one connection, each
        // queued while a write is part-way through an earlier block: the
        // byte stream is the queued frames, in queue order, and every
        // frame is counted exactly once.
        let frames: Vec<Frame> = (0..40u32)
            .map(|i| Frame::new(format!("s{}", i % 3), vec![i as u8; (i as usize * 37) % 300]))
            .collect();
        let mut machine = ConnMachine::new();
        let mut sink = Trickle(Vec::new());
        let mut completed = 0;
        for chunk in frames.chunks(5) {
            let (pushed, replies) = chunk.split_at(3);
            let mut block = Block::default();
            for frame in pushed {
                block.push_frame(frame);
            }
            machine.queue_block(block);
            completed += machine.write_some(&mut sink).unwrap().frames_completed;
            for reply in replies {
                machine.queue(reply.clone());
                completed += machine.write_some(&mut sink).unwrap().frames_completed;
            }
        }
        assert_eq!(machine.queued_frames(), frames.len() - completed);
        while machine.has_output() {
            completed += machine.write_some(&mut sink).unwrap().frames_completed;
        }
        assert_eq!(completed, frames.len());
        assert_eq!((machine.queued_frames(), machine.pending_output()), (0, 0));
        let mut expected = Vec::new();
        write_frame_batch(&mut expected, &frames).unwrap();
        assert_eq!(sink.0, expected);
    }
}
