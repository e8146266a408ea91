//! Self-contained archives: files of NDR records that carry their own
//! metadata.
//!
//! PBIO encodes structures to be sent over networks "**or written to
//! data files**" (§4.1.2). An NDR message names its format and its
//! sender's architecture, so a file of them written on one machine reads
//! on any other — given the formats. An archive applies the paper's
//! open-metadata idea to storage: it *embeds the XML Schema documents*
//! for every format it contains, so any reader — written years later,
//! knowing nothing — discovers the metadata from the file itself and
//! decodes the records. This is exactly the scenario the paper's
//! introduction gives for open metadata ("the engineers designing parts,
//! the physicists studying atmospheric phenomena … sharing such data"),
//! applied to archived rather than live streams.
//!
//! Layout: `"X2WARCHV" ∥ u8 version ∥ u32 LE schema count N ∥ frames*`,
//! each frame the segment log's `len ∥ seq ∥ payload ∥ crc` with seqs 1,
//! 2, …: the first N payloads are the schema documents, the rest NDR
//! messages. The log's frame writer writes them and its window reads
//! them ([`crate::seglog`]), so a flipped bit or a torn tail is an error,
//! never a different record.

use std::io::{BufWriter, Read, Write};
use std::sync::Arc;

use clayout::Record;
use pbio::PbioError;

use crate::binding::schema_for_struct;
use crate::error::X2wError;
use crate::seglog::{put_frame, Step, Window};
use crate::session::Xml2Wire;

/// The archive magic.
const ARCHIVE_MAGIC: &[u8; 8] = b"X2WARCHV";
/// The archive format version this build writes and reads. Version 1
/// framed records without a checksum; it is refused.
const ARCHIVE_VERSION: u8 = 2;
/// Corruption guard for the schema dictionary entry count.
const MAX_SCHEMAS: u32 = 4096;

fn archive_err(detail: String) -> X2wError {
    X2wError::Bcm(PbioError::Text { detail })
}

/// Writes a self-contained archive.
///
/// Formats must be declared (by name) before the first record is
/// written, because the schema dictionary precedes the records on disk.
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    sink: BufWriter<W>,
    /// The declared formats' schema documents until the first record
    /// writes them; `None` after.
    schemas: Option<Vec<String>>,
    /// Names of the formats whose schemas the header carries.
    declared: Vec<String>,
    session: Arc<Xml2Wire>,
    /// Seq of the last frame written.
    seq: u64,
    frame: Vec<u8>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Starts an archive on `sink`, embedding metadata from `session`.
    pub fn create(sink: W, session: Arc<Xml2Wire>) -> Self {
        ArchiveWriter {
            sink: BufWriter::new(sink),
            schemas: Some(Vec::new()),
            declared: Vec::new(),
            session,
            seq: 0,
            frame: Vec::new(),
        }
    }

    /// Declares that records of `format_name` will appear; its schema
    /// (derived from the bound struct type) is embedded in the header.
    ///
    /// # Errors
    ///
    /// Unknown formats, or formats declared after the first record.
    pub fn declare_format(&mut self, format_name: &str) -> Result<(), X2wError> {
        let format = self.session.require_format(format_name)?;
        let Some(schemas) = &mut self.schemas else {
            return Err(archive_err("formats must be declared before the first record".to_owned()));
        };
        schemas.push(schema_for_struct(format.struct_type()).to_xml_string());
        self.declared.push(format_name.to_owned());
        Ok(())
    }

    /// Writes the header and the schema frames, the first time only.
    fn ensure_started(&mut self) -> Result<(), X2wError> {
        let Some(schemas) = self.schemas.take() else {
            return Ok(());
        };
        self.sink.write_all(ARCHIVE_MAGIC)?;
        self.sink.write_all(&[ARCHIVE_VERSION])?;
        self.sink.write_all(&(schemas.len() as u32).to_le_bytes())?;
        schemas.iter().try_for_each(|schema| self.write_frame(schema.as_bytes()))
    }

    /// Frames `payload` as the next record and writes it.
    fn write_frame(&mut self, payload: &[u8]) -> Result<(), X2wError> {
        self.frame.clear();
        put_frame(&mut self.frame, self.seq + 1, |put| put(payload))?;
        self.sink.write_all(&self.frame)?;
        self.seq += 1;
        Ok(())
    }

    /// Appends one record in the named (declared) format.
    ///
    /// # Errors
    ///
    /// Encoding or I/O failures; unknown formats; a format that was not
    /// declared, which is refused before anything is written because no
    /// reader could decode its records from the archive alone.
    pub fn append(&mut self, record: &Record, format_name: &str) -> Result<(), X2wError> {
        let format = self.session.require_format(format_name)?;
        if !self.declared.iter().any(|name| name == format_name) {
            return Err(archive_err(format!(
                "format {format_name:?} was not declared for this archive"
            )));
        }
        let message = pbio::ndr::encode(record, &format)?;
        self.ensure_started()?;
        self.write_frame(&message)
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates the final flush.
    pub fn finish(mut self) -> Result<W, X2wError> {
        self.ensure_started()?;
        self.sink.into_inner().map_err(|e| X2wError::Io(e.into_error()))
    }
}

/// Reads a self-contained archive with no prior knowledge: the embedded
/// schemas are parsed and bound into a fresh session first.
///
/// Frames run to the end of the source, which certifies no length: a
/// frame that claims more bytes than follow it (at most
/// [`MAX_RECORD`](crate::seglog::MAX_RECORD)) is read up to the end and
/// reported torn.
#[derive(Debug)]
pub struct ArchiveReader<R: Read> {
    session: Xml2Wire,
    source: R,
    window: Window,
}

/// The next frame's payload, lent out of `window`; `None` where the
/// archive ends on a frame boundary.
fn next_payload<'w>(
    window: &'w mut Window,
    source: &mut impl Read,
) -> Result<Option<&'w [u8]>, X2wError> {
    match window.step(source)? {
        Step::Record { payload, .. } => Ok(Some(&window.buf[payload])),
        Step::End => Ok(None),
        Step::Torn(why) => Err(archive_err(format!("corrupt archive: {why}"))),
    }
}

impl<R: Read> ArchiveReader<R> {
    /// Opens an archive: reads the schema dictionary, binds every format
    /// for the local machine, and positions at the first record.
    ///
    /// # Errors
    ///
    /// Bad magic/version, malformed or torn embedded schemas, I/O
    /// failures.
    pub fn open(mut source: R) -> Result<Self, X2wError> {
        let mut header = [0u8; 13];
        source.read_exact(&mut header)?;
        let (magic, version, count) = (&header[..8], header[8], &header[9..]);
        if magic != ARCHIVE_MAGIC {
            return Err(X2wError::Bcm(PbioError::BadMagic { found: [magic[0], magic[1]] }));
        }
        if version != ARCHIVE_VERSION {
            return Err(X2wError::Bcm(PbioError::UnsupportedVersion { version }));
        }
        let schema_count = u32::from_le_bytes(count.try_into().expect("4 bytes"));
        if schema_count > MAX_SCHEMAS {
            return Err(archive_err(format!("implausible schema count {schema_count}")));
        }
        // Nothing certifies how many bytes the frames fill: to the end.
        let mut window = Window::default();
        (window.remaining, window.expect) = (u64::MAX, 1);
        let session = Xml2Wire::builder().build();
        for _ in 0..schema_count {
            let document = next_payload(&mut window, &mut source)?.ok_or_else(|| {
                archive_err("the archive ends inside its schema dictionary".to_owned())
            })?;
            let text = std::str::from_utf8(document)
                .map_err(|_| archive_err("embedded schema is not UTF-8".to_owned()))?;
            session.register_schema_str(text)?;
        }
        Ok(ArchiveReader { session, source, window })
    }

    /// Format names discovered from the embedded metadata.
    pub fn format_names(&self) -> Vec<String> {
        self.session.registry().names()
    }

    /// Reads the next record; `None` at end of archive.
    ///
    /// # Errors
    ///
    /// Torn or corrupt frames, decode failures.
    pub fn next_record(&mut self) -> Result<Option<(String, Record)>, X2wError> {
        let Some(message) = next_payload(&mut self.window, &mut self.source)? else {
            return Ok(None);
        };
        let (format, record) = self.session.decode(message)?;
        Ok(Some((format.name().to_owned(), record)))
    }

    /// Iterates over the remaining records one at a time.
    ///
    /// This is the bounded replacement for the old `read_all`: the
    /// archive is decoded record by record with one record resident at
    /// a time, so a multi-gigabyte (or maliciously unbounded) archive
    /// never materializes in memory. Collect explicitly if a `Vec` is
    /// genuinely wanted.
    pub fn records(&mut self) -> ArchiveRecords<'_, R> {
        ArchiveRecords { reader: self, failed: false }
    }
}

/// Streaming iterator over an archive's records; holds one decoded
/// record at a time.
///
/// Yields `Err` once at the first failure, then `None` (the frames
/// after a corrupt one cannot be trusted to be where they seem).
#[derive(Debug)]
pub struct ArchiveRecords<'a, R: Read> {
    reader: &'a mut ArchiveReader<R>,
    failed: bool,
}

impl<R: Read> Iterator for ArchiveRecords<'_, R> {
    type Item = Result<(String, Record), X2wError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.reader.next_record() {
            Ok(entry) => entry.map(Ok),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clayout::Architecture;

    const FLIGHT: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>"#;

    const WEATHER: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Weather">
    <xsd:element name="station" type="xsd:string"/>
    <xsd:element name="tempC" type="xsd:double"/>
  </xsd:complexType>
</xsd:schema>"#;

    fn flight(i: i64) -> Record {
        Record::new()
            .with("arln", "DL")
            .with("fltNum", i)
            .with("eta", (0..(i as u64 % 3)).collect::<Vec<u64>>())
    }

    fn weather() -> Record {
        Record::new().with("station", "KATL").with("tempC", 28.5f64)
    }

    fn write_archive(arch: Architecture) -> Vec<u8> {
        let session = Arc::new(Xml2Wire::builder().arch(arch).build());
        session.register_schema_str(FLIGHT).unwrap();
        session.register_schema_str(WEATHER).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        writer.declare_format("Weather").unwrap();
        for i in 0..10 {
            writer.append(&flight(i), "Flight").unwrap();
        }
        writer.append(&weather(), "Weather").unwrap();
        writer.finish().unwrap()
    }

    /// An archive framed by hand: `count` in the header, then each of
    /// `payloads` in a frame of its own.
    fn framed(count: u32, payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = ARCHIVE_MAGIC.to_vec();
        bytes.push(ARCHIVE_VERSION);
        bytes.extend_from_slice(&count.to_le_bytes());
        for (seq, payload) in (1..).zip(payloads) {
            put_frame(&mut bytes, seq, |put| put(payload)).unwrap();
        }
        bytes
    }

    /// Every record of an archive, or the first error.
    fn read_all(bytes: &[u8]) -> Result<Vec<(String, Record)>, X2wError> {
        ArchiveReader::open(bytes)?.records().collect()
    }

    #[test]
    fn archive_reads_with_zero_prior_knowledge() {
        let bytes = write_archive(Architecture::host());
        let mut reader = ArchiveReader::open(&bytes[..]).unwrap();
        let mut names = reader.format_names();
        names.sort();
        assert_eq!(names, vec!["Flight", "Weather"]);
        let entries: Vec<_> = reader.records().collect::<Result<_, _>>().unwrap();
        assert_eq!(entries.len(), 11);
        assert_eq!(entries[3].0, "Flight");
        assert_eq!(entries[3].1.get("fltNum").unwrap().as_i64(), Some(3));
        assert_eq!(entries[10].0, "Weather");
    }

    #[test]
    fn archive_written_on_foreign_architecture_reads_locally() {
        let bytes = write_archive(Architecture::SPARC32);
        let mut reader = ArchiveReader::open(&bytes[..]).unwrap();
        let entries: Vec<_> = reader.records().collect::<Result<_, _>>().unwrap();
        assert_eq!(entries.len(), 11);
        assert_eq!(entries[10].1.get("tempC").unwrap().as_f64(), Some(28.5));
    }

    #[test]
    fn appending_an_undeclared_format_is_rejected() {
        let session = Arc::new(Xml2Wire::builder().build());
        session.register_schema_str(FLIGHT).unwrap();
        session.register_schema_str(WEATHER).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        // Weather is registered with the session but was never declared:
        // its schema is not in the dictionary, so no reader could decode
        // the record. The writer refuses it and the archive stays whole.
        writer.append(&flight(0), "Flight").unwrap();
        let weather = Record::new().with("station", "KBOS").with("tempC", 1.0f64);
        let err = writer.append(&weather, "Weather").unwrap_err();
        assert!(err.to_string().contains("Weather"), "{err}");
        writer.append(&flight(1), "Flight").unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = ArchiveReader::open(&bytes[..]).unwrap();
        assert_eq!(reader.format_names(), vec!["Flight"]);
        let entries: Vec<_> = reader.records().collect::<Result<_, _>>().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|(name, _)| name == "Flight"));
    }

    #[test]
    fn records_in_a_format_the_dictionary_lacks_fail_clearly() {
        // No writer produces this; a reader can still meet it in a
        // foreign file. A Flight-only dictionary ahead of records that
        // include a Weather one, every frame whole.
        let session = Xml2Wire::builder().build();
        session.register_schema_str(FLIGHT).unwrap();
        session.register_schema_str(WEATHER).unwrap();
        let mut messages: Vec<Vec<u8>> =
            (0..10).map(|i| session.encode(&flight(i), "Flight").unwrap()).collect();
        messages.push(session.encode(&weather(), "Weather").unwrap());
        let mut payloads = vec![FLIGHT.as_bytes()];
        payloads.extend(messages.iter().map(Vec::as_slice));
        let bytes = framed(1, &payloads);

        let mut reader = ArchiveReader::open(&bytes[..]).unwrap();
        let mut records = reader.records();
        for _ in 0..10 {
            assert!(records.next().unwrap().is_ok());
        }
        let err = records.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("Weather"), "{err}");
        assert!(records.next().is_none(), "iteration must stop after an error");
    }

    #[test]
    fn declaring_after_first_record_is_rejected() {
        let session = Arc::new(Xml2Wire::builder().build());
        session.register_schema_str(FLIGHT).unwrap();
        session.register_schema_str(WEATHER).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        writer.append(&flight(1), "Flight").unwrap();
        assert!(writer.declare_format("Weather").is_err());
    }

    #[test]
    fn empty_archive_round_trips() {
        let session = Arc::new(Xml2Wire::builder().build());
        session.register_schema_str(FLIGHT).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = ArchiveReader::open(&bytes[..]).unwrap();
        assert!(reader.records().next().is_none());
        assert_eq!(reader.format_names(), vec!["Flight"]);
    }

    #[test]
    fn corrupted_archives_error_cleanly() {
        let bytes = write_archive(Architecture::host());
        assert!(ArchiveReader::open(&b"WRONGMAG\x02"[..]).is_err());
        for cut in [0usize, 5, 9, 12, 40] {
            let _ = ArchiveReader::open(&bytes[..cut.min(bytes.len())]);
        }
        // Flip a byte inside the schema dictionary length.
        let mut broken = bytes.clone();
        broken[9] = 0xFF;
        broken[10] = 0xFF;
        assert!(ArchiveReader::open(&broken[..]).is_err());
        // A version 1 archive, whose frames had no checksum, is refused.
        let mut v1 = bytes;
        v1[8] = 1;
        let err = ArchiveReader::open(&v1[..]).unwrap_err();
        assert!(matches!(err, X2wError::Bcm(PbioError::UnsupportedVersion { version: 1 })), "{err}");
    }

    #[test]
    fn truncation_at_every_cut_errors_not_panics() {
        let bytes = write_archive(Architecture::host());
        // Every prefix must either fail to open or fail while iterating
        // — never panic, never loop forever, never fabricate records.
        let full: Vec<_> = {
            let mut reader = ArchiveReader::open(&bytes[..]).unwrap();
            reader.records().collect::<Result<_, _>>().unwrap()
        };
        for cut in 0..bytes.len() {
            if let Ok(mut reader) = ArchiveReader::open(&bytes[..cut]) {
                let mut seen = 0usize;
                for entry in reader.records() {
                    match entry {
                        Ok(_) => seen += 1,
                        Err(_) => break,
                    }
                }
                assert!(seen <= full.len(), "cut {cut} fabricated records");
            }
        }
    }

    #[test]
    fn forged_schema_length_is_torn_or_over_the_limit() {
        // The header promises one schema; its frame claims 16 MiB and
        // carries four bytes. The reader reports a torn archive after the
        // bytes actually present instead of waiting for the claim.
        let mut bytes = framed(1, &[]);
        bytes.extend_from_slice(&(16u32 << 20).to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(b"tiny");
        let err = ArchiveReader::open(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("ends inside record seq 1"), "{err}");

        // And a claim over the frame limit is refused before any read.
        let mut over = framed(1, &[]);
        over.extend_from_slice(&u32::MAX.to_le_bytes());
        over.extend_from_slice(&1u64.to_le_bytes());
        let err = ArchiveReader::open(&over[..]).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn forged_schema_count_is_clamped() {
        let err = ArchiveReader::open(&framed(u32::MAX, &[])[..]).unwrap_err();
        assert!(err.to_string().contains("schema count"), "{err}");
        let err = ArchiveReader::open(&framed(2, &[FLIGHT.as_bytes()])[..]).unwrap_err();
        assert!(err.to_string().contains("schema dictionary"), "{err}");
    }

    #[test]
    fn bit_flips_are_errors_never_altered_records() {
        let bytes = write_archive(Architecture::host());
        let full = read_all(&bytes).unwrap();
        // One bit of every byte — header, schema frames, record frames:
        // the archive fails to open, or yields a prefix of its records
        // and then an error. A checksum-free frame would decode a flip in
        // a payload as a different record.
        for pos in 0..bytes.len() {
            let mut broken = bytes.clone();
            broken[pos] ^= 1 << (pos % 8);
            let Ok(mut reader) = ArchiveReader::open(&broken[..]) else { continue };
            let mut records = reader.records();
            let mut seen = 0;
            let err = loop {
                match records.next() {
                    Some(Ok(entry)) => {
                        assert_eq!(entry, full[seen], "flip at {pos} altered record {seen}");
                        seen += 1;
                    }
                    Some(Err(e)) => break e,
                    None => panic!("flip at {pos} read as a whole archive"),
                }
            };
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn forged_record_length_is_clamped() {
        let bytes = write_archive(Architecture::host());
        // The first record frame: past the header and the two schema
        // frames, each 16 bytes of framing around its document.
        let len_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut first = 13;
        for _ in 0..2 {
            first += 16 + len_at(first) as usize;
        }
        let real = len_at(first);
        let claims = [(u32::MAX, "limit"), (1 << 24, "ends inside"), (real + 1, "crc"), (real - 1, "crc")];
        for (forged, says) in claims {
            let mut broken = bytes.clone();
            broken[first..first + 4].copy_from_slice(&forged.to_le_bytes());
            let mut reader = ArchiveReader::open(&broken[..]).unwrap();
            let err = reader.records().find_map(Result::err).expect("a forged length must not decode");
            assert!(err.to_string().contains(says), "length {forged}: {err}");
        }
    }
}
