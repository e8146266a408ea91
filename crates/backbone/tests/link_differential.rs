//! The federation link's two untrusted-byte decoders against oracles
//! that share no code with them, committed and deterministic: fixed
//! seed, fixed mutant count, no environment.
//!
//! * **The transport frame decoder** (`net::machine::decode_frame`, the
//!   one decoder behind [`ConnMachine::next_frame`] and
//!   [`EventClient`]'s receive window) against the blocking
//!   [`read_frame`]: random frame streams with one thing wrong (a cut,
//!   a flipped bit, a forged `u32` length, a stream name that is not
//!   UTF-8) must come apart into the same frames and end the same way —
//!   clean, truncated, or the same kind of `BadFrame` — whether the
//!   bytes arrive one at a time, seven at a time or all at once; and
//!   every proper prefix of a *valid* stream yields the frames it holds
//!   whole and then asks for more, never an error (the safe-cut
//!   property). One ordering differs by design and is held here as
//!   such: the oracle rejects a non-UTF-8 name as soon as it has the
//!   name, the decoder when it has the frame — it validates each name
//!   once, not once per arriving chunk — so a stream that *ends* inside
//!   such a frame reads "truncated" where the oracle says "bad name".
//!   Neither yields the frame.
//! * **The in-place event decoder** of the link against the owned
//!   `decode_event_frame` it replaced, kept verbatim below: a scripted
//!   serving broker feeds a real [`FederationLink`] thousands of
//!   well-framed events whose payloads are cut, flipped, forged or
//!   given unreadable format names, and the leaf broker must see
//!   exactly the events the oracle decodes — names, payload, seq, hop
//!   count — with every other frame in the right counter.
//!
//! Two golden tests pin the bytes themselves, so a link and a broker
//! built from different commits interoperate both ways: a forwarded
//! event's exact wire image, and a forwarder's block of N events equal
//! to N × [`write_frame`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::net::{read_frame, write_frame, ConnMachine, EventClient, Frame, NetConfig};
use backbone::{
    BackboneError, Broker, DurableSpec, Event, FederatedBroker, FederationLink, LinkConfig,
};

const SEED: u64 = 0x11e4_d1ff_5eed_0b10;
/// `net::MAX_SECTION`: the largest section length either reader accepts.
const MAX_SECTION: u32 = 64 * 1024 * 1024;

/// SplitMix64: a few lines, good enough to pick offsets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    fn name(&mut self, n: usize) -> String {
        (0..n).map(|_| char::from(b'a' + self.below(26) as u8)).collect()
    }
}

// ---- the forwarded-event format, from the module docs -----------------

/// `u64 LE seq ∥ u8 hops ∥ u16 LE format-name len ∥ format name ∥
/// message` — a forwarded event's frame payload.
fn event_payload(seq: u64, hops: u8, format: &[u8], message: &[u8]) -> Vec<u8> {
    let mut out = seq.to_le_bytes().to_vec();
    out.push(hops);
    out.extend_from_slice(&(format.len() as u16).to_le_bytes());
    out.extend_from_slice(format);
    out.extend_from_slice(message);
    out
}

/// The owned decoder the link used until it learned to read events in
/// place, verbatim: the oracle for the event half.
fn decode_event_frame(frame: Frame) -> Result<Event, BackboneError> {
    let Frame { stream, mut payload } = frame;
    if payload.len() < 11 {
        return Err(BackboneError::BadFrame {
            detail: format!("federated event on {stream:?} shorter than its header"),
        });
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
    let hops = payload[8];
    let name_len = usize::from(u16::from_le_bytes([payload[9], payload[10]]));
    if payload.len() < 11 + name_len {
        return Err(BackboneError::BadFrame {
            detail: format!("federated event on {stream:?} truncates its format name"),
        });
    }
    let format_name = std::str::from_utf8(&payload[11..11 + name_len])
        .map_err(|_| BackboneError::BadFrame {
            detail: format!("federated event on {stream:?} has a non-UTF-8 format name"),
        })?
        .to_owned();
    payload.drain(..11 + name_len);
    Ok(Event { stream: stream.into(), format_name: format_name.into(), payload, seq, hops })
}

// ---- transport frames: decoder vs read_frame --------------------------

/// How a byte stream ends once no more frames come out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum End {
    /// At a frame boundary (or inside the first length prefix of the
    /// next frame, which the blocking reader cannot tell from one).
    Clean,
    /// Inside a frame.
    Truncated,
    BadNameLength,
    BadName,
    BadPayloadLength,
}

fn bad_frame_kind(err: &BackboneError) -> End {
    let BackboneError::BadFrame { detail } = err else {
        panic!("not a BadFrame: {err}");
    };
    if detail.starts_with("stream name length") {
        End::BadNameLength
    } else if detail.starts_with("payload length") {
        End::BadPayloadLength
    } else {
        assert_eq!(detail, "stream name is not UTF-8");
        End::BadName
    }
}

/// The oracle: `read_frame` until it stops.
fn oracle(mut wire: &[u8]) -> (Vec<Frame>, End) {
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut wire) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, End::Clean),
            Err(BackboneError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                return (frames, End::Truncated);
            }
            Err(bad) => return (frames, bad_frame_kind(&bad)),
        }
    }
}

/// The decoder, fed `chunk` bytes at a time through a [`ConnMachine`].
fn machine(wire: &[u8], chunk: usize) -> (Vec<Frame>, End) {
    let mut machine = ConnMachine::new();
    let mut frames = Vec::new();
    for piece in wire.chunks(chunk) {
        machine.ingest(piece);
        loop {
            match machine.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(bad) => return (frames, bad_frame_kind(&bad)),
            }
        }
    }
    let end = if machine.buffered_input() < 4 { End::Clean } else { End::Truncated };
    (frames, end)
}

/// Whether the oracle's verdict and the decoder's are the same verdict
/// (see the module docs for the one deliberate difference).
fn same_end(oracle: &End, decoder: &End) -> bool {
    oracle == decoder || (*oracle == End::BadName && *decoder == End::Truncated)
}

const CHUNKINGS: [usize; 3] = [1, 7, 64 * 1024];

fn check_stream(wire: &[u8], what: &str) {
    let (want_frames, want_end) = oracle(wire);
    for chunk in CHUNKINGS {
        let (frames, end) = machine(wire, chunk);
        assert_eq!(frames, want_frames, "{what}: frames differ at chunk {chunk}");
        assert!(
            same_end(&want_end, &end),
            "{what}: oracle ends {want_end:?}, decoder {end:?} at chunk {chunk}"
        );
    }
}

/// A random stream of event-shaped frames and the offset each starts at.
fn base_stream(rng: &mut Rng, big: bool) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut starts = Vec::new();
    let count = 4 + rng.below(5);
    for i in 0..count {
        let name_len = rng.pick(&[0, 1, 255, 3, 8, 17]);
        let name = rng.name(name_len);
        let payload = match rng.below(8) {
            // Shorter than, exactly, and one past an event header.
            0 => {
                let len = rng.pick(&[0, 1, 10, 11, 12]);
                rng.bytes(len)
            }
            _ => {
                let format_len = rng.pick(&[0, 1, 300, 11, 11, 11]);
                let format = rng.name(format_len);
                let message_len = if big && i == 1 { 70_000 } else { 200 + rng.below(60) };
                let message = rng.bytes(message_len);
                event_payload(rng.next(), rng.below(4) as u8, format.as_bytes(), &message)
            }
        };
        starts.push(wire.len());
        write_frame(&mut wire, &Frame::new(name, payload)).unwrap();
    }
    (wire, starts)
}

fn put_u32(wire: &mut [u8], at: usize, value: u32) {
    wire[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn the_frame_decoder_agrees_with_read_frame_on_every_mutant_at_every_chunking() {
    let started = Instant::now();
    let mut rng = Rng(SEED);
    let mut mutants = 0usize;
    let bases = if cfg!(debug_assertions) { 6 } else { 26 };
    for base in 0..bases {
        let big = base % 13 == 12;
        let (wire, starts) = base_stream(&mut rng, big);
        let (whole, end) = oracle(&wire);
        assert_eq!((whole.len(), end), (starts.len(), End::Clean));
        check_stream(&wire, "unmutated");

        // Safe cut, every prefix at once: fed a byte at a time, the
        // decoder never errs and has at every moment yielded exactly
        // the frames that lie whole in what it was given.
        {
            let mut machine = ConnMachine::new();
            let mut yielded = 0;
            for (fed, byte) in wire.iter().enumerate() {
                machine.ingest(std::slice::from_ref(byte));
                while let Some(frame) = machine.next_frame().expect("a prefix of a valid stream") {
                    assert_eq!(frame, whole[yielded]);
                    yielded += 1;
                }
                let complete = starts.iter().skip(1).filter(|&&s| s <= fed + 1).count()
                    + usize::from(fed + 1 == wire.len());
                assert_eq!(yielded, complete, "after {} bytes", fed + 1);
            }
        }
        // ... and cut at every byte of the last three frames, at the
        // coarser chunkings, against the oracle's reading of the cut.
        let tail = starts[starts.len() - 3];
        let cuts: Vec<usize> = if big {
            (0..150).map(|_| tail + rng.below(wire.len() - tail)).collect()
        } else {
            (tail..wire.len()).collect()
        };
        for cut in cuts {
            let (want_frames, want_end) = oracle(&wire[..cut]);
            assert!(want_end == End::Clean || want_end == End::Truncated);
            for chunk in [7, 64 * 1024] {
                let (frames, end) = machine(&wire[..cut], chunk);
                assert_eq!((&frames, &end), (&want_frames, &want_end), "cut {cut} chunk {chunk}");
            }
            mutants += 1;
        }

        let random = if big { 30 } else { 420 };
        for _ in 0..random {
            let mut mutant = wire.clone();
            let frame = rng.below(starts.len());
            let at = starts[frame];
            let name_len = u32::from_le_bytes(mutant[at..at + 4].try_into().unwrap()) as usize;
            let what = match rng.below(6) {
                0 | 1 => {
                    let bit = rng.below(mutant.len() * 8);
                    mutant[bit / 8] ^= 1 << (bit % 8);
                    "bit flip"
                }
                2 => {
                    let forged = rng.pick(&[u32::MAX, MAX_SECTION + 1, MAX_SECTION, 1 << 20]);
                    put_u32(&mut mutant, at, forged);
                    "forged name length"
                }
                3 => {
                    let forged = rng.pick(&[u32::MAX, MAX_SECTION + 1, MAX_SECTION, 1 << 20]);
                    put_u32(&mut mutant, at + 4 + name_len, forged);
                    "forged payload length"
                }
                4 => {
                    // Off by a few: the frame swallows or sheds bytes.
                    let field = if rng.below(2) == 0 { at } else { at + 4 + name_len };
                    let old = u32::from_le_bytes(mutant[field..field + 4].try_into().unwrap());
                    put_u32(&mut mutant, field, old.wrapping_add(rng.below(7) as u32).wrapping_sub(3));
                    "nudged length"
                }
                _ if name_len > 0 => {
                    mutant[at + 4 + rng.below(name_len)] = 0xFF;
                    // Sometimes with a forged payload length behind it:
                    // the name must still be what is reported.
                    if rng.below(3) == 0 {
                        put_u32(&mut mutant, at + 4 + name_len, u32::MAX);
                    }
                    "non-UTF-8 stream name"
                }
                _ => {
                    mutant.truncate(at + rng.below(mutant.len() - at));
                    "cut"
                }
            };
            check_stream(&mutant, what);
            mutants += 1;
        }
    }
    println!("frame decoder: {mutants} mutants in {:?}", started.elapsed());
    if !cfg!(debug_assertions) {
        assert!(mutants >= 20_000, "only {mutants} mutants");
    }
}

// ---- the client's receive window, over a socket -----------------------

/// What [`EventClient::recv`] makes of a connection that is sent `wire`
/// and then closed.
fn client(addr: SocketAddr) -> (Vec<Frame>, End) {
    let mut client = EventClient::connect(addr).unwrap();
    let mut frames = Vec::new();
    loop {
        match client.recv() {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, End::Clean),
            Err(BackboneError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                return (frames, End::Truncated);
            }
            Err(bad) => return (frames, bad_frame_kind(&bad)),
        }
    }
}

#[test]
fn the_client_window_agrees_with_read_frame_over_a_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (jobs, todo) = mpsc::channel::<(Vec<u8>, usize)>();
    // Serves each job to the next connection: the bytes in pieces of
    // the given size, then end-of-stream.
    let server = std::thread::spawn(move || {
        for (wire, piece) in todo {
            let (mut conn, _) = listener.accept().unwrap();
            conn.set_nodelay(true).unwrap();
            for part in wire.chunks(piece) {
                if conn.write_all(part).is_err() {
                    break; // the client saw a bad frame and hung up
                }
            }
        }
    });

    let mut rng = Rng(SEED ^ 0xC11E);
    let mut streams = 0;
    for round in 0..24 {
        // Every other stream carries a payload larger than the
        // window's chunk (and one of 300 KiB, several doublings).
        let (mut wire, starts) = base_stream(&mut rng, round % 2 == 0);
        if round % 8 == 0 {
            let huge = event_payload(7, 0, b"F", &rng.bytes(300 * 1024));
            write_frame(&mut wire, &Frame::new("huge", huge)).unwrap();
            write_frame(&mut wire, &Frame::new("after", vec![1, 2, 3])).unwrap();
        }
        let mut variants = vec![wire.clone()];
        for _ in 0..4 {
            let mut mutant = wire.clone();
            let at = starts[rng.below(starts.len())];
            match rng.below(4) {
                0 => mutant.truncate(at + rng.below(mutant.len() - at)),
                1 => put_u32(&mut mutant, at, rng.pick(&[u32::MAX, MAX_SECTION + 1])),
                2 => {
                    let bit = rng.below(mutant.len() * 8);
                    mutant[bit / 8] ^= 1 << (bit % 8);
                }
                _ => {
                    let name_len = u32::from_le_bytes(mutant[at..at + 4].try_into().unwrap());
                    put_u32(&mut mutant, at + 4 + name_len as usize, u32::MAX);
                }
            }
            variants.push(mutant);
        }
        for wire in variants {
            let (want_frames, want_end) = oracle(&wire);
            let piece = rng.pick(&[1 << 20, 64 * 1024, 4096, 1000, 61]);
            jobs.send((wire, piece)).unwrap();
            let (frames, end) = client(addr);
            assert_eq!(frames, want_frames, "stream {streams}");
            assert!(same_end(&want_end, &end), "stream {streams}: {want_end:?} vs {end:?}");
            streams += 1;
        }
    }
    drop(jobs);
    server.join().unwrap();
    assert_eq!(streams, 120);
}

// ---- forwarded events: the link vs decode_event_frame -----------------

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn the_link_delivers_exactly_what_the_owned_event_decoder_accepts() {
    const STREAMS: [&str; 2] = ["alpha", "b"];
    const MAX_HOPS: u8 = 5;
    let frames_wanted = 6_000;

    // The script: well-framed events, most with something wrong inside.
    let mut rng = Rng(SEED ^ 0xE7E7);
    let formats: [&[u8]; 5] = [b"", b"F", b"AsdOffEvent", b"AsdOffEvent", &[b'x'; 300]];
    let mut next_seq = [1u64; 2];
    let mut script: Vec<Frame> = Vec::new();
    while script.len() < frames_wanted {
        let which = rng.below(2);
        // Runs of one stream, as forwarders' blocks are.
        for _ in 0..1 + rng.below(40) {
            let durable = rng.below(3) > 0;
            let seq = if !durable {
                0
            } else if rng.below(12) == 0 {
                rng.below(next_seq[which] as usize) as u64 // a replayed duplicate (or 0)
            } else {
                next_seq[which] += 1 + rng.below(3) as u64;
                next_seq[which]
            };
            let hops = if rng.below(10) == 0 { MAX_HOPS + rng.below(3) as u8 } else { rng.below(MAX_HOPS as usize) as u8 };
            let message_len = rng.pick(&[0, 1, 230, 230, 230, 2000]);
            let message = rng.bytes(message_len);
            let mut payload = event_payload(seq, hops, rng.pick(&formats), &message);
            let mut stream = STREAMS[which].to_owned();
            match rng.below(14) {
                0 => payload.truncate(rng.below(payload.len() + 1)),
                1 => {
                    // Anywhere but the seq's high bytes: one flip there
                    // would turn the rest of the stream into duplicates.
                    let byte = if rng.below(8) == 0 { 0 } else { 8 + rng.below(payload.len() - 8) };
                    payload[byte] ^= 1 << rng.below(8);
                }
                2 => {
                    // Format-name length forged past the payload.
                    let forged = (payload.len() as u16).wrapping_add(rng.below(9) as u16).wrapping_sub(15);
                    payload[9..11].copy_from_slice(&forged.to_le_bytes());
                }
                3 if payload[9] > 0 => payload[11] = 0xFF, // non-UTF-8 format name
                4 => stream = rng.pick(&["", "alph", "alphaa", "never-subscribed"]).to_owned(),
                5 => {
                    // Control traffic in the flow: an ack, whole or not.
                    stream = "x2w.fed.subok".to_owned();
                    payload.truncate(rng.pick(&[0, 7, 8, 20]).min(payload.len()));
                }
                _ => {}
            }
            script.push(Frame::new(stream, payload));
        }
    }

    // The oracle's reading of the script, under the link's rules: an
    // unsubscribed stream and an undecodable event are protocol errors,
    // the hop ceiling comes before seq dedup, survivors gain a hop.
    let mut expected: HashMap<&str, Vec<Event>> = HashMap::new();
    let (mut protocol_errors, mut cycle_drops, mut duplicates) = (0u64, 0u64, 0u64);
    let mut last_seen: HashMap<String, u64> = HashMap::new();
    for frame in &script {
        if frame.stream == "x2w.fed.subok" {
            let utf8_tail = frame.payload.get(8..).is_some_and(|name| std::str::from_utf8(name).is_ok());
            protocol_errors += u64::from(!utf8_tail);
            continue;
        }
        let Some(stream) = STREAMS.iter().find(|s| **s == frame.stream) else {
            protocol_errors += 1;
            continue;
        };
        let Ok(mut event) = decode_event_frame(frame.clone()) else {
            protocol_errors += 1;
            continue;
        };
        if event.hops >= MAX_HOPS {
            cycle_drops += 1;
            continue;
        }
        if event.seq != 0 {
            let seen = last_seen.entry(event.stream.to_string()).or_insert(0);
            if event.seq <= *seen {
                duplicates += 1;
                continue;
            }
            *seen = event.seq;
        }
        event.hops += 1;
        expected.entry(stream).or_default().push(event);
    }
    let delivered: usize = expected.values().map(Vec::len).sum();
    // The script must reach every verdict, in numbers.
    assert!(
        delivered > frames_wanted / 3 && protocol_errors > 100 && cycle_drops > 100 && duplicates > 20,
        "{delivered} delivered, {protocol_errors} errors, {cycle_drops} cycles, {duplicates} duplicates"
    );

    // A scripted serving broker: takes the link's subscriptions, then
    // plays the script in writes of every size.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut wire = Vec::new();
    for frame in &script {
        write_frame(&mut wire, frame).unwrap();
    }
    let mut cuts = Rng(SEED ^ 0xC075);
    let (go, subscribed) = mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nodelay(true).unwrap();
        for _ in STREAMS {
            let sub = read_frame(&mut conn).unwrap().expect("a subscription");
            assert_eq!(sub.stream, "x2w.fed.sub");
        }
        subscribed.recv().expect("the leaf's subscribers are in place");
        let mut rest = wire.as_slice();
        while !rest.is_empty() {
            let take = cuts.pick(&[1, 5, 200, 3_000, 40_000, 200_000]).min(rest.len());
            conn.write_all(&rest[..take]).unwrap();
            rest = &rest[take..];
        }
        conn // held open until the assertions are done
    });

    let leaf = Arc::new(Broker::new());
    let link = FederationLink::connect(
        addr,
        Arc::clone(&leaf),
        LinkConfig::new(STREAMS).with_max_hops(MAX_HOPS),
    )
    .unwrap();
    let subs: Vec<_> = STREAMS.iter().map(|s| leaf.subscribe(s).unwrap()).collect();
    go.send(()).unwrap();
    let conn = server.join().unwrap();

    for (stream, sub) in STREAMS.iter().zip(&subs) {
        let want = &expected[stream];
        for (i, event) in want.iter().enumerate() {
            let got = sub.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| {
                panic!("{stream}: event {i} of {} never arrived", want.len())
            });
            assert_eq!(*got, *event, "{stream}: event {i}");
        }
    }
    wait_for("the link to account for every frame", || {
        let stats = link.stats();
        stats.events_forwarded + stats.protocol_errors + stats.cycle_drops + stats.duplicates_dropped
            >= script.iter().filter(|f| f.stream != "x2w.fed.subok").count() as u64
    });
    let stats = link.stats();
    assert_eq!(
        (stats.events_forwarded, stats.protocol_errors, stats.cycle_drops, stats.duplicates_dropped),
        (delivered as u64, protocol_errors, cycle_drops, duplicates)
    );
    assert_eq!((stats.connects, stats.filter_rejected), (1, 0));
    for sub in &subs {
        assert!(sub.try_recv().is_none(), "an event nobody expected");
    }
    drop(conn);
}

// ---- golden bytes -------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn a_forwarded_event_is_these_bytes_and_a_block_is_its_frames_end_to_end() {
    const N: usize = 200;
    let dir = std::env::temp_dir().join(format!("x2w-link-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let origin = Arc::new(Broker::new());
    origin.create_stream_durable("asd", Default::default(), DurableSpec::new(&dir)).unwrap();
    let fed = FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default()).unwrap();

    // A link, by hand: `x2w.fed.sub` is `from_seq ∥ u16 stream len ∥
    // stream ∥ predicate`, answered by `x2w.fed.subok`.
    let mut sock = TcpStream::connect(fed.local_addr()).unwrap();
    let mut sub = 1u64.to_le_bytes().to_vec();
    sub.extend_from_slice(&3u16.to_le_bytes());
    sub.extend_from_slice(b"asd");
    write_frame(&mut sock, &Frame::new("x2w.fed.sub", sub)).unwrap();
    let ack = read_frame(&mut sock).unwrap().unwrap();
    assert_eq!(ack.stream, "x2w.fed.subok");
    wait_for("the forwarder", || fed.forwarder_count() == 1);

    // Published in bursts, so the forwarder drains batches into blocks.
    let payload = |i: usize| -> Vec<u8> { (0..i % 40).map(|b| (b + i) as u8).collect() };
    let format = |i: usize| if i % 50 < 25 { "F" } else { "AsdOffEvent" };
    for i in 0..N {
        origin.publish(Event::new("asd", format(i), payload(i))).unwrap();
    }
    let mut expected = Vec::new();
    for i in 0..N {
        let seq = i as u64 + 1;
        let body = event_payload(seq, 0, format(i).as_bytes(), &payload(i));
        write_frame(&mut expected, &Frame::new("asd", body)).unwrap();
    }
    let mut raw = vec![0u8; expected.len()];
    sock.read_exact(&mut raw).unwrap();
    assert_eq!(raw, expected, "the forwarder's blocks are not its events' frames end to end");

    // The first event (seq 1, no hops, format "F", empty message), byte
    // for byte: name len ∥ "asd" ∥ payload len ∥ seq ∥ hops ∥ format
    // len ∥ "F".
    assert_eq!(hex(&raw[..23]), "03000000617364\
                                 0c000000\
                                 0100000000000000\
                                 00\
                                 0100\
                                 46");
    // And one with a message: event 3 is seq 4, "F", payload [3, 4, 5].
    let at: usize = (0..3).map(|i| 8 + 3 + 11 + 1 + payload(i).len()).sum();
    assert_eq!(hex(&raw[at..at + 26]), "03000000617364\
                                        0f000000\
                                        0400000000000000\
                                        00\
                                        0100\
                                        46\
                                        030405");
    wait_for("the frame count", || fed.net_stats().frames_written == N as u64 + 1);
    drop((sock, fed, origin));
    let _ = std::fs::remove_dir_all(&dir);
}
