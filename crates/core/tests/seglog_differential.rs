//! The segment log's frame walker against an oracle that shares no code
//! with it, committed and deterministic: fixed seed, fixed mutant count,
//! no environment.
//!
//! The oracle is what the log's readers used to be — one `read_exact`
//! per field, a bit-at-a-time CRC — written here from the format's
//! description in the module docs. Each mutant is a valid segment image
//! with one thing wrong (a flipped bit, a cut, a forged length, a
//! sequence skipped or repeated under a valid CRC, a broken header, a
//! record spliced in or out, junk behind the end) and is judged twice:
//!
//! * as the log's **tail**, where [`SegmentLog::open`] must keep exactly
//!   the oracle's valid prefix — `last_seq`, the truncated file's length
//!   and the records a replay then yields;
//! * as a **sealed** segment with a valid tail behind it, where replay
//!   must yield exactly the oracle's records and then fail if and only
//!   if the oracle found the segment anything but whole and contiguous
//!   with the next one.
//!
//! Archives are an archive header and the same frames, so the **archive
//! arm** wraps the record region of a real archive's mutants in that
//! header: [`ArchiveReader`] must yield exactly the records the oracle
//! finds (decoded) and then fail if and only if the oracle found the
//! region anything but whole, and no single-bit flip anywhere in the
//! region may come out as a record.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use clayout::{Architecture, Record};
use xml2wire::seglog::{crc32, MAX_RECORD, SEGMENT_MAGIC, SEGMENT_VERSION};
use xml2wire::{
    ArchiveReader, ArchiveWriter, FsyncPolicy, SegLogConfig, SegmentLog, X2wError, Xml2Wire,
};

const SEED: u64 = 0x5e61_065e_ed00_d1ff;
/// Random mutants per small base log; the sweeps and the large-record
/// log come on top. An unoptimised build (where the two CRCs cost 20×)
/// runs a seventh of them: the gate is the release run CI names.
const PER_LOG: usize = if cfg!(debug_assertions) { 300 } else { 2_200 };
const LARGE: usize = if cfg!(debug_assertions) { 8 } else { 60 };
const HEADER: usize = 17;

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

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// CRC-32 (IEEE), one bit at a time: no table to get wrong.
fn bitwise_crc(seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

fn header(base: u64) -> Vec<u8> {
    let mut out = SEGMENT_MAGIC.to_vec();
    out.push(SEGMENT_VERSION);
    out.extend_from_slice(&base.to_le_bytes());
    out
}

/// One record, framed the way the module docs say.
fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = bitwise_crc(0, &out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

type Records = Vec<(u64, Vec<u8>)>;

/// What the oracle makes of a segment image.
#[derive(Debug)]
struct Verdict {
    records: Records,
    /// Header and whole records end here; 0 if not even the header is
    /// one.
    valid_end: usize,
    /// The image is nothing but header and whole records.
    whole: bool,
}

/// The naive parse: a cursor, `read_exact` per field, stop at the first
/// thing that is not the next record.
fn oracle(image: &[u8], base: u64) -> Verdict {
    let mut verdict = Verdict { records: Vec::new(), valid_end: 0, whole: false };
    let mut src = image;
    let mut head = [0u8; HEADER];
    if src.read_exact(&mut head).is_err() || head[..] != header(base)[..] {
        return verdict;
    }
    verdict.valid_end = HEADER;
    let mut expect = base;
    loop {
        if src.is_empty() {
            verdict.whole = true;
            return verdict;
        }
        let (mut len4, mut seq8, mut crc4) = ([0u8; 4], [0u8; 8], [0u8; 4]);
        if src.read_exact(&mut len4).is_err() || src.read_exact(&mut seq8).is_err() {
            return verdict;
        }
        let (len, seq) = (u32::from_le_bytes(len4), u64::from_le_bytes(seq8));
        if len > MAX_RECORD || seq != expect || len as usize > src.len() {
            return verdict;
        }
        let mut payload = vec![0u8; len as usize];
        src.read_exact(&mut payload).expect("length checked");
        if src.read_exact(&mut crc4).is_err() {
            return verdict;
        }
        let crc = bitwise_crc(bitwise_crc(bitwise_crc(0, &len4), &seq8), &payload);
        if u32::from_le_bytes(crc4) != crc {
            return verdict;
        }
        verdict.records.push((seq, payload));
        verdict.valid_end = image.len() - src.len();
        expect += 1;
    }
}

/// A valid base log: its first seq and its records' payloads.
struct BaseLog {
    base: u64,
    payloads: Vec<Vec<u8>>,
}

impl BaseLog {
    fn image(&self) -> Vec<u8> {
        let mut out = header(self.base);
        for (i, payload) in self.payloads.iter().enumerate() {
            out.extend_from_slice(&frame(self.base + i as u64, payload));
        }
        out
    }

    /// Where each record starts in the image, and where the last ends.
    fn offsets(&self) -> Vec<usize> {
        let mut at = HEADER;
        let mut out = vec![at];
        for payload in &self.payloads {
            at += 16 + payload.len();
            out.push(at);
        }
        out
    }

    /// The valid segment that follows this one: two records.
    fn tail(&self) -> (u64, Vec<u8>) {
        let next = self.base + self.payloads.len() as u64;
        let mut out = header(next);
        out.extend_from_slice(&frame(next, b"tail-0"));
        out.extend_from_slice(&frame(next + 1, b"tail-1"));
        (next, out)
    }
}

fn base_logs(rng: &mut Rng) -> Vec<BaseLog> {
    let sized = |rng: &mut Rng, sizes: &[usize]| sizes.iter().map(|&n| rng.bytes(n)).collect();
    let random_sizes: Vec<usize> = (0..20).map(|_| rng.below(300)).collect();
    vec![
        BaseLog { base: 1, payloads: sized(rng, &[0, 1, 7, 8, 9, 0, 9, 8, 7, 1, 0, 245]) },
        BaseLog { base: 1, payloads: sized(rng, &[245; 10]) },
        BaseLog { base: 4096, payloads: sized(rng, &[244, 245, 246, 247, 248, 249, 250, 251]) },
        BaseLog { base: 1, payloads: sized(rng, &random_sizes) },
        BaseLog { base: 77, payloads: sized(rng, &[3]) },
        BaseLog { base: 1, payloads: Vec::new() },
        BaseLog { base: 9, payloads: sized(rng, &[8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8]) },
        BaseLog { base: 1, payloads: sized(rng, &[64, 0, 0, 0, 64, 1, 1, 1, 64, 300, 2, 2]) },
        BaseLog { base: 1 << 40, payloads: sized(rng, &[100, 200, 300, 200, 100]) },
    ]
}

/// One record larger than the replay's read chunk, between small ones.
fn large_log(rng: &mut Rng) -> BaseLog {
    let payloads = [9, 300 * 1024, 245, 0, 70 * 1024].iter().map(|&n| rng.bytes(n)).collect();
    BaseLog { base: 1, payloads }
}

/// Overwrites record `k`'s seq and re-seals its CRC, so that the seq
/// is the only thing wrong with it.
fn forge_seq(image: &mut [u8], log: &BaseLog, k: usize, seq: u64) {
    let offsets = log.offsets();
    let (at, end) = (offsets[k], offsets[k + 1]);
    image[at + 4..at + 12].copy_from_slice(&seq.to_le_bytes());
    let crc = bitwise_crc(0, &image[at..end - 4]);
    image[end - 4..end].copy_from_slice(&crc.to_le_bytes());
}

/// One random mutant of `log`'s image and what was done to it.
fn mutate(log: &BaseLog, rng: &mut Rng) -> (Vec<u8>, String) {
    let mut image = log.image();
    let offsets = log.offsets();
    let n = log.payloads.len();
    let kind = if n == 0 { [0, 1, 6, 7][rng.below(4)] } else { rng.below(8) };
    let what = match kind {
        0 => {
            let (at, bit) = (rng.below(image.len()), rng.below(8));
            image[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        }
        1 => {
            let at = rng.below(image.len() + 1);
            image.truncate(at);
            format!("cut at {at}")
        }
        2 => {
            let k = rng.below(n);
            let real = log.payloads[k].len() as u32;
            let forged = match rng.below(7) {
                0 => u32::MAX,
                1 => MAX_RECORD,
                2 => MAX_RECORD + 1,
                3 => real + 1,
                4 => real.wrapping_sub(1),
                5 => 0,
                _ => rng.next() as u32,
            };
            image[offsets[k]..offsets[k] + 4].copy_from_slice(&forged.to_le_bytes());
            format!("record {k} claims {forged} bytes")
        }
        3 => {
            let k = rng.below(n);
            let real = log.base + k as u64;
            let forged = match rng.below(5) {
                0 => real + 1,
                1 => real.wrapping_sub(1),
                2 => 0,
                3 => u64::MAX,
                _ => rng.next(),
            };
            forge_seq(&mut image, log, k, forged);
            format!("record {k} carries seq {forged} under a valid crc")
        }
        4 => {
            // A whole record repeated in place: valid CRC, stale seq.
            let k = rng.below(n);
            let copy = image[offsets[k]..offsets[k + 1]].to_vec();
            image.splice(offsets[k + 1]..offsets[k + 1], copy);
            format!("record {k} repeated")
        }
        5 => {
            // A whole record gone: the seq after it arrives early.
            let k = rng.below(n);
            image.drain(offsets[k]..offsets[k + 1]);
            format!("record {k} removed")
        }
        6 => {
            let at = match rng.below(3) {
                0 => rng.below(8),
                1 => 8,
                _ => 9 + rng.below(8),
            };
            image[at] = image[at].wrapping_add(1 + rng.below(255) as u8);
            format!("header byte {at} changed")
        }
        _ => {
            // Behind the end: junk, or a well-formed record that
            // continues the sequence (valid as a tail, an overlap when
            // sealed).
            if rng.below(2) == 0 {
                let n = 1 + rng.below(40);
                let junk = rng.bytes(n);
                image.extend_from_slice(&junk);
                "junk appended".to_owned()
            } else {
                image.extend_from_slice(&frame(log.base + n as u64, b"one more"));
                "a valid record appended".to_owned()
            }
        }
    };
    (image, what)
}

/// A directory for the mutants: on tmpfs where the box has one, since
/// recovery fsyncs every truncation and the property under test is the
/// parse, not the disk.
fn work_dir(tag: &str) -> PathBuf {
    let name = format!("x2w-seglog-differential-{tag}-{}", std::process::id());
    let shm = Path::new("/dev/shm").join(&name);
    let dir = if fs::create_dir_all(&shm).is_ok() { shm } else { std::env::temp_dir().join(name) };
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn segment(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:020}.x2wlog"))
}

fn config() -> SegLogConfig {
    SegLogConfig { fsync: FsyncPolicy::Never, ..SegLogConfig::default() }
}

/// Everything a replay from `from` yields, and how it ended.
fn drain(log: &SegmentLog, from: u64) -> (Records, Result<(), X2wError>) {
    let mut replay = log.replay_from(from).expect("the first segment is there");
    let mut got = Vec::new();
    loop {
        match replay.next_record() {
            Ok(Some((seq, payload))) => got.push((seq, payload.to_vec())),
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

/// Judges one image both ways against the oracle.
fn judge(dir: &Path, log: &BaseLog, image: &[u8], what: &str) {
    let verdict = oracle(image, log.base);
    let seg = segment(dir, log.base);
    fs::write(&seg, image).unwrap();

    // Sealed, with the valid tail behind it (a log without records has
    // no seq left for a second segment to start at).
    if !log.payloads.is_empty() {
        let (next, tail_image) = log.tail();
        fs::write(segment(dir, next), &tail_image).unwrap();
        let opened = SegmentLog::open(dir, config()).expect("the tail is valid");
        assert_eq!(opened.last_seq(), next + 1, "sealed, {what}: recovery reads only the tail");
        let (got, ended) = drain(&opened, log.base);
        let mut expected = verdict.records.clone();
        let contiguous = verdict.whole && verdict.records.len() == log.payloads.len();
        if contiguous {
            expected.extend(oracle(&tail_image, next).records);
        }
        assert_eq!(got, expected, "sealed, {what}");
        match ended {
            Ok(()) => assert!(contiguous, "sealed, {what}: replay ended cleanly, oracle {verdict:?}"),
            Err(X2wError::Bcm(_)) => assert!(!contiguous, "sealed, {what}: replay failed on a clean log"),
            Err(other) => panic!("sealed, {what}: corruption reported as {other:?}"),
        }
        assert_eq!(fs::read(&seg).unwrap(), image, "sealed, {what}: sealed segments are not rewritten");
        fs::remove_file(segment(dir, next)).unwrap();
    }

    // As the tail itself.
    let opened = SegmentLog::open(dir, config()).expect("recovery forgives a torn tail");
    let last = verdict.records.last().map_or(log.base.saturating_sub(1), |(seq, _)| *seq);
    assert_eq!(opened.last_seq(), last, "tail, {what}");
    let kept = fs::metadata(&seg).unwrap().len() as usize;
    assert_eq!(kept, verdict.valid_end.max(HEADER), "tail, {what}: valid_end");
    let (got, ended) = drain(&opened, log.base);
    assert_eq!(got, verdict.records, "tail, {what}");
    assert!(ended.is_ok(), "tail, {what}: a recovered log replays cleanly, got {ended:?}");
}

#[test]
fn mutants_recover_and_replay_as_the_oracle_says() {
    let started = Instant::now();
    let mut rng = Rng(SEED);
    let dir = work_dir("mutants");
    let mut mutants = 0usize;

    let logs = base_logs(&mut rng);
    for (i, log) in logs.iter().enumerate() {
        let log_dir = dir.join(format!("log-{i}"));
        fs::create_dir_all(&log_dir).unwrap();
        let image = log.image();
        judge(&log_dir, log, &image, "unmutated");
        // A cut at every byte of the last three records (and of the
        // header, for the logs that short).
        let sweep_from = log.offsets()[log.payloads.len().saturating_sub(3)].min(image.len());
        for cut in (0..HEADER).chain(sweep_from..image.len()) {
            judge(&log_dir, log, &image[..cut], &format!("log {i} cut at {cut}"));
            mutants += 1;
        }
        for _ in 0..PER_LOG {
            let (mutant, what) = mutate(log, &mut rng);
            judge(&log_dir, log, &mutant, &format!("log {i}: {what}"));
            mutants += 1;
        }
    }

    // The record larger than a read chunk: fewer mutants, each costs a
    // bit-at-a-time CRC over 370 KiB.
    let large = large_log(&mut rng);
    let log_dir = dir.join("log-large");
    fs::create_dir_all(&log_dir).unwrap();
    judge(&log_dir, &large, &large.image(), "unmutated");
    for _ in 0..LARGE {
        let (mutant, what) = mutate(&large, &mut rng);
        judge(&log_dir, &large, &mutant, &format!("large log: {what}"));
        mutants += 1;
    }

    fs::remove_dir_all(&dir).unwrap();
    assert!(mutants >= 20_000 || cfg!(debug_assertions), "only {mutants} mutants");
    eprintln!("{mutants} mutants, each judged as tail and as sealed, in {:?}", started.elapsed());
}

#[test]
fn the_library_writes_what_the_description_says() {
    // The writer against the same independent framing: single appends,
    // a group, and a rotation, byte for byte.
    let mut rng = Rng(SEED ^ 1);
    let dir = work_dir("writer");
    let payloads: Vec<Vec<u8>> =
        [0usize, 1, 7, 8, 9, 245, 300, 2, 245].iter().map(|&n| rng.bytes(n)).collect();
    let mut log = SegmentLog::open(&dir, SegLogConfig { segment_bytes: 700, ..config() }).unwrap();
    for (i, payload) in payloads.iter().take(4).enumerate() {
        log.append(5 + i as u64, payload).unwrap();
    }
    log.append_group(payloads.iter().enumerate().skip(4).map(|(i, payload)| {
        (5 + i as u64, move |put: &mut dyn FnMut(&[u8])| {
            let (front, back) = payload.split_at(payload.len() / 2);
            put(front);
            put(back);
        })
    }))
    .unwrap();
    drop(log);

    let mut files: Vec<PathBuf> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    assert!(files.len() >= 2, "700-byte segments rotate under 817 payload bytes");
    let mut seq = 5u64;
    for file in &files {
        let image = fs::read(file).unwrap();
        assert_eq!(*file, segment(&dir, seq), "a segment is named after its first seq");
        let verdict = oracle(&image, seq);
        assert!(verdict.whole, "{}", file.display());
        let mut rebuilt = header(seq);
        for (got_seq, payload) in &verdict.records {
            assert_eq!((*got_seq, payload), (seq, &payloads[(seq - 5) as usize]));
            rebuilt.extend_from_slice(&frame(seq, payload));
            seq += 1;
        }
        assert_eq!(image, rebuilt);
    }
    assert_eq!(seq, 5 + payloads.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sliced_crc_is_the_bitwise_crc() {
    let mut rng = Rng(SEED ^ 2);
    let bytes = rng.bytes(64 + 8);
    for offset in 0..8 {
        for len in 0..=64 {
            let slice = &bytes[offset..offset + len];
            assert_eq!(crc32(0, slice), bitwise_crc(0, slice), "len {len} at offset {offset}");
            // Incremental == one-shot, at every split.
            let seed = rng.next() as u32;
            let cut = rng.below(len + 1);
            assert_eq!(crc32(crc32(seed, &slice[..cut]), &slice[cut..]), bitwise_crc(seed, slice));
        }
    }
    let long = rng.bytes(100_003);
    assert_eq!(crc32(0, &long), bitwise_crc(0, &long));
    assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(0, b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    assert_eq!(crc32(0, b""), 0);
}

/// Longest input the block-boundary sweep covers: four blocks of four
/// 8-byte braid lanes and a tail, so every count of whole blocks up to
/// four and every tail length meets the one-word step, the braided
/// loop and the fold between them.
const BRAID_SWEEP: usize = 4 * 32 + 15;

#[test]
fn the_crc_is_the_bitwise_crc_across_every_block_boundary() {
    let mut rng = Rng(SEED ^ 3);
    let bytes = rng.bytes(BRAID_SWEEP + 8);
    for offset in 0..8 {
        for len in 0..=BRAID_SWEEP {
            let slice = &bytes[offset..offset + len];
            assert_eq!(crc32(0, slice), bitwise_crc(0, slice), "len {len} at offset {offset}");
            // Incremental == one-shot, at every cut and from any seed.
            let seed = rng.next() as u32;
            let whole = bitwise_crc(seed, slice);
            assert_eq!(crc32(seed, slice), whole, "len {len} at offset {offset}, seed {seed:#x}");
            for cut in 0..=len {
                let (front, back) = slice.split_at(cut);
                assert_eq!(crc32(crc32(seed, front), back), whole, "len {len}, cut {cut}");
            }
        }
    }
}

#[test]
fn long_inputs_have_zlibs_crc() {
    // Computed with zlib's crc32 outside this repository, e.g.
    // python3 -c "import zlib; print(hex(zlib.crc32(bytes(range(256)))))".
    let counting: Vec<u8> = (0..=255).collect();
    assert_eq!(crc32(0, &counting), 0x2905_8C73);
    assert_eq!(crc32(0xDEAD_BEEF, &counting), 0xC2BF_5872);
    // bytes((i * 31 + 7) % 256 for i in range(1000))
    let strided: Vec<u8> = (0..1000u32).map(|i| ((i * 31 + 7) % 256) as u8).collect();
    assert_eq!(crc32(0, &strided), 0x8902_161E);
    // bytes(i % 251 for i in range(65537))
    let modular: Vec<u8> = (0..65_537u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(crc32(0, &modular), 0xA9CC_6E73);
}

#[test]
fn a_long_record_is_these_bytes() {
    // One 300-byte record, bytes((i * 7 + 3) % 256 for i in range(300)),
    // at seq 1: long enough for the braided CRC. The CRC over
    // len ∥ seq ∥ payload was computed with zlib's crc32 outside this
    // repository.
    let payload: Vec<u8> = (0..300u32).map(|i| ((i * 7 + 3) % 256) as u8).collect();
    let mut golden = header(1);
    golden.extend_from_slice(&300u32.to_le_bytes());
    golden.extend_from_slice(&1u64.to_le_bytes());
    golden.extend_from_slice(&payload);
    golden.extend_from_slice(&0xB773_A5C3u32.to_le_bytes());
    let dir = work_dir("golden-long");
    let mut log = SegmentLog::open(&dir, config()).unwrap();
    log.append(1, &payload).unwrap();
    drop(log);
    assert_eq!(fs::read(segment(&dir, 1)).unwrap(), golden);

    fs::write(segment(&dir, 1), &golden).unwrap();
    let log = SegmentLog::open(&dir, config()).unwrap();
    assert_eq!(log.last_seq(), 1, "recovery keeps the record");
    let (got, ended) = drain(&log, 1);
    assert!(ended.is_ok());
    assert_eq!(got, vec![(1, payload)]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segment_version_1_is_these_bytes() {
    // Three records — empty, "abc", bytes 0..9 — from seq 1, computed
    // with zlib's crc32 outside this repository. If this image changes,
    // logs written before the change no longer read: bump
    // SEGMENT_VERSION instead.
    const GOLDEN: &str = "\
        5832575345474c47010100000000000000\
        000000000100000000000000f1c67fb7\
        0300000002000000000000006162638f48a754\
        0900000003000000000000000001020304050607084b435ef2";
    let golden: Vec<u8> = (0..GOLDEN.len() / 2)
        .map(|i| u8::from_str_radix(&GOLDEN[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    let dir = work_dir("golden");
    let mut log = SegmentLog::open(&dir, config()).unwrap();
    log.append(1, b"").unwrap();
    log.append_group((2..=3u64).map(|seq| {
        // "abc" whole; 0..9 a byte at a time.
        (seq, move |put: &mut dyn FnMut(&[u8])| match seq {
            2 => put(b"abc"),
            _ => (0..9u8).for_each(|b| put(&[b])),
        })
    }))
    .unwrap();
    drop(log);
    assert_eq!(fs::read(segment(&dir, 1)).unwrap(), golden);

    // And a log that holds exactly those bytes reads back.
    fs::write(segment(&dir, 1), &golden).unwrap();
    let log = SegmentLog::open(&dir, config()).unwrap();
    let (got, ended) = drain(&log, 1);
    assert!(ended.is_ok());
    assert_eq!(got, vec![(1, vec![]), (2, b"abc".to_vec()), (3, (0..9).collect())]);
    fs::remove_dir_all(&dir).unwrap();
}

const READING: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Reading">
    <xsd:element name="station" type="xsd:string"/>
    <xsd:element name="seq" type="xsd:integer"/>
    <xsd:element name="samples" type="xsd:double" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>"#;

/// Magic, version and schema count.
const ARCHIVE_HEADER: usize = 13;

/// A real archive written on a foreign machine — one schema, a dozen
/// records — split into its header and the base log its frames are.
fn archive_log() -> (Vec<u8>, BaseLog) {
    let session = Arc::new(Xml2Wire::builder().arch(Architecture::SPARC32).build());
    session.register_schema_str(READING).unwrap();
    let mut writer = ArchiveWriter::create(Vec::new(), session);
    writer.declare_format("Reading").unwrap();
    for i in 0..12i64 {
        let samples: Vec<f64> = (0..i % 4).map(|k| k as f64 / 2.0).collect();
        let record =
            Record::new().with("station", format!("K{i}")).with("seq", i).with("samples", samples);
        writer.append(&record, "Reading").unwrap();
    }
    let archive = writer.finish().unwrap();
    let (head, region) = archive.split_at(ARCHIVE_HEADER);
    let mut image = header(1);
    image.extend_from_slice(region);
    let verdict = oracle(&image, 1);
    assert!(verdict.whole, "an archive's frames are the log's frames");
    let payloads = verdict.records.into_iter().map(|(_, payload)| payload).collect();
    (head.to_vec(), BaseLog { base: 1, payloads })
}

/// An archive of `head` and the record region of the segment `image`
/// (a mutated segment header leaves the region as it was).
fn archive_of(head: &[u8], image: &[u8]) -> Vec<u8> {
    let mut archive = head.to_vec();
    archive.extend_from_slice(image.get(HEADER..).unwrap_or_default());
    archive
}

/// Judges the archive made of `head` and `image`'s record region: the
/// first frame is the schema, the rest are records.
fn judge_archive(head: &[u8], image: &[u8], reference: &Xml2Wire, what: &str) {
    let archive = archive_of(head, image);
    let verdict = oracle(&[&header(1)[..], &archive[ARCHIVE_HEADER..]].concat(), 1);
    let mut reader = match ArchiveReader::open(&archive[..]) {
        Ok(reader) => reader,
        Err(e) => {
            assert!(verdict.records.is_empty(), "archive, {what}: open failed with its schema whole: {e}");
            return;
        }
    };
    assert!(!verdict.records.is_empty(), "archive, {what}: opened without its schema");
    let mut records = reader.records();
    // A frame the oracle accepts whose payload is not a message (a valid
    // frame appended) is where the reader must fail instead.
    let mut whole = verdict.whole;
    for (seq, payload) in &verdict.records[1..] {
        let Ok((format, expected)) = reference.decode(payload) else {
            whole = false;
            break;
        };
        match records.next() {
            Some(Ok(got)) => assert_eq!(got, (format.name().to_owned(), expected), "archive, {what}: seq {seq}"),
            other => panic!("archive, {what}: seq {seq} read as {other:?}"),
        }
    }
    match records.next() {
        None => assert!(whole, "archive, {what}: ended cleanly, oracle {verdict:?}"),
        Some(Ok(got)) => panic!("archive, {what}: a record the oracle did not find: {got:?}"),
        Some(Err(e)) => assert!(!whole, "archive, {what}: failed on a whole archive: {e}"),
    }
}

#[test]
fn archive_frames_read_as_the_oracle_says() {
    let mut rng = Rng(SEED ^ 3);
    let (head, log) = archive_log();
    let reference = Xml2Wire::builder().build();
    reference.register_schema_str(std::str::from_utf8(&log.payloads[0]).unwrap()).unwrap();
    let image = log.image();
    judge_archive(&head, &image, &reference, "unmutated");
    let mut mutants = 0usize;
    for cut in HEADER..image.len() {
        judge_archive(&head, &image[..cut], &reference, &format!("cut at {cut}"));
        mutants += 1;
    }
    for _ in 0..PER_LOG {
        let (mutant, what) = mutate(&log, &mut rng);
        judge_archive(&head, &mutant, &reference, &what);
        mutants += 1;
    }
    eprintln!("{mutants} archive mutants");
}

#[test]
fn every_bit_flip_in_an_archives_frames_is_an_error() {
    let (head, log) = archive_log();
    let archive = archive_of(&head, &log.image());
    let full: Vec<(String, Record)> =
        ArchiveReader::open(&archive[..]).unwrap().records().collect::<Result<_, _>>().unwrap();
    assert_eq!(full.len(), 12);
    for at in ARCHIVE_HEADER..archive.len() {
        // An unoptimised build flips one bit of each byte.
        let bits = if cfg!(debug_assertions) { at % 8..at % 8 + 1 } else { 0..8 };
        for bit in bits {
            let mut flipped = archive.clone();
            flipped[at] ^= 1 << bit;
            let Ok(mut reader) = ArchiveReader::open(&flipped[..]) else { continue };
            let mut records = reader.records();
            let mut seen = 0;
            loop {
                match records.next() {
                    Some(Ok(got)) => {
                        assert_eq!(got, full[seen], "bit {bit} of byte {at} altered record {seen}");
                        seen += 1;
                    }
                    Some(Err(_)) => break,
                    None => panic!("bit {bit} of byte {at} flipped and the archive read whole"),
                }
            }
        }
    }
}
