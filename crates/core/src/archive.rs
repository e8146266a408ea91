//! Self-contained archives: record files that carry their own metadata.
//!
//! A [`pbio::recfile`] needs the reader to already know the formats.
//! This module applies the paper's open-metadata idea to storage: the
//! archive *embeds the XML Schema documents* for every format it
//! contains, so any reader — written years later, knowing nothing —
//! discovers the metadata from the file itself and decodes the records.
//! This is exactly the scenario the paper's introduction gives for open
//! metadata ("the engineers designing parts, the physicists studying
//! atmospheric phenomena … sharing such data"), applied to archived
//! rather than live streams.
//!
//! Layout: `"X2WARCHV" ∥ u8 version ∥ u32 schema count ∥ (u32 len ∥
//! schema document bytes)* ∥ recfile bytes` (the embedded recfile has
//! its own magic and framing).

use std::io::{Read, Write};

use clayout::Record;
use pbio::recfile::{RecordReader, RecordWriter};
use pbio::PbioError;

use crate::binding::schema_for_struct;
use crate::error::X2wError;
use crate::session::Xml2Wire;

/// The archive magic.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"X2WARCHV";
/// The archive format version this build writes.
pub const ARCHIVE_VERSION: u8 = 1;
/// Corruption guard for embedded schema documents.
const MAX_SCHEMA: u32 = 16 * 1024 * 1024;
/// Corruption guard for the schema dictionary entry count.
const MAX_SCHEMAS: u32 = 4096;

/// Writes a self-contained archive.
///
/// Formats must be declared (by name) before the first record is
/// written, because the schema dictionary precedes the records on disk.
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    inner: Option<RecordWriter<W>>,
    pending: Option<(W, Vec<String>)>,
    /// Names of the formats whose schemas the header carries.
    declared: Vec<String>,
    session: std::sync::Arc<Xml2Wire>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Starts an archive on `sink`, embedding metadata from `session`.
    pub fn create(sink: W, session: std::sync::Arc<Xml2Wire>) -> Self {
        ArchiveWriter {
            inner: None,
            pending: Some((sink, Vec::new())),
            declared: Vec::new(),
            session,
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
        match &mut self.pending {
            Some((_, schemas)) => {
                schemas.push(schema_for_struct(format.struct_type()).to_xml_string());
                self.declared.push(format_name.to_owned());
                Ok(())
            }
            None => Err(X2wError::Bcm(PbioError::Text {
                detail: "formats must be declared before the first record".to_owned(),
            })),
        }
    }

    fn ensure_started(&mut self) -> Result<&mut RecordWriter<W>, X2wError> {
        if self.inner.is_none() {
            let (mut sink, schemas) =
                self.pending.take().expect("either pending or started");
            let io = |e: std::io::Error| {
                X2wError::Bcm(PbioError::Text { detail: format!("archive i/o: {e}") })
            };
            sink.write_all(ARCHIVE_MAGIC).map_err(io)?;
            sink.write_all(&[ARCHIVE_VERSION]).map_err(io)?;
            sink.write_all(&(schemas.len() as u32).to_le_bytes()).map_err(io)?;
            for schema in &schemas {
                sink.write_all(&(schema.len() as u32).to_le_bytes()).map_err(io)?;
                sink.write_all(schema.as_bytes()).map_err(io)?;
            }
            self.inner = Some(RecordWriter::create(sink).map_err(X2wError::Bcm)?);
        }
        Ok(self.inner.as_mut().expect("just started"))
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
            return Err(X2wError::Bcm(PbioError::Text {
                detail: format!("format {format_name:?} was not declared for this archive"),
            }));
        }
        self.ensure_started()?.append(record, &format).map_err(X2wError::Bcm)
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates the final flush.
    pub fn finish(mut self) -> Result<W, X2wError> {
        self.ensure_started()?;
        self.inner
            .take()
            .expect("started above")
            .finish()
            .map_err(X2wError::Bcm)
    }
}

/// Reads a self-contained archive with no prior knowledge: the embedded
/// schemas are parsed and bound into a fresh session first.
#[derive(Debug)]
pub struct ArchiveReader<R: Read> {
    session: Xml2Wire,
    inner: RecordReader<R>,
}

impl<R: Read> ArchiveReader<R> {
    /// Opens an archive: reads the schema dictionary, binds every format
    /// for the local machine, and positions at the first record.
    ///
    /// # Errors
    ///
    /// Bad magic/version, malformed embedded schemas, I/O failures.
    pub fn open(mut source: R) -> Result<Self, X2wError> {
        let io = |e: std::io::Error| {
            X2wError::Bcm(PbioError::Text { detail: format!("archive i/o: {e}") })
        };
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic).map_err(io)?;
        if &magic != ARCHIVE_MAGIC {
            return Err(X2wError::Bcm(PbioError::BadMagic { found: [magic[0], magic[1]] }));
        }
        let mut version = [0u8; 1];
        source.read_exact(&mut version).map_err(io)?;
        if version[0] != ARCHIVE_VERSION {
            return Err(X2wError::Bcm(PbioError::UnsupportedVersion { version: version[0] }));
        }
        let mut len4 = [0u8; 4];
        source.read_exact(&mut len4).map_err(io)?;
        let schema_count = u32::from_le_bytes(len4);
        if schema_count > MAX_SCHEMAS {
            return Err(X2wError::Bcm(PbioError::Text {
                detail: format!("implausible schema count {schema_count}"),
            }));
        }
        let session = Xml2Wire::builder().build();
        for _ in 0..schema_count {
            source.read_exact(&mut len4).map_err(io)?;
            let len = u32::from_le_bytes(len4);
            if len > MAX_SCHEMA {
                return Err(X2wError::Bcm(PbioError::Text {
                    detail: format!("embedded schema of {len} bytes exceeds the limit"),
                }));
            }
            // Read through a `take` so a forged length allocates no more
            // than the bytes actually present, then verify the claim.
            let mut doc = Vec::new();
            let got = source
                .by_ref()
                .take(u64::from(len))
                .read_to_end(&mut doc)
                .map_err(io)?;
            if got != len as usize {
                return Err(X2wError::Bcm(PbioError::Truncated {
                    need: len as usize,
                    have: got,
                }));
            }
            let text = String::from_utf8(doc).map_err(|_| {
                X2wError::Bcm(PbioError::Text {
                    detail: "embedded schema is not UTF-8".to_owned(),
                })
            })?;
            session.register_schema_str(&text)?;
        }
        let inner = RecordReader::open(source).map_err(X2wError::Bcm)?;
        Ok(ArchiveReader { session, inner })
    }

    /// Format names discovered from the embedded metadata.
    pub fn format_names(&self) -> Vec<String> {
        self.session.registry().names()
    }

    /// Reads the next record; `None` at end of archive.
    ///
    /// # Errors
    ///
    /// Truncation or decode failures.
    pub fn next_record(
        &mut self,
    ) -> Result<Option<(String, Record)>, X2wError> {
        match self.inner.next_record(self.session.registry()).map_err(X2wError::Bcm)? {
            None => Ok(None),
            Some((format, record)) => Ok(Some((format.name().to_owned(), record))),
        }
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
/// Yields `Err` once at the first failure, then `None` (decoding past a
/// corrupt record would produce garbage framing).
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

    fn write_archive(arch: Architecture) -> Vec<u8> {
        let session = std::sync::Arc::new(Xml2Wire::builder().arch(arch).build());
        session.register_schema_str(FLIGHT).unwrap();
        session.register_schema_str(WEATHER).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        writer.declare_format("Weather").unwrap();
        for i in 0..10 {
            writer.append(&flight(i), "Flight").unwrap();
        }
        writer
            .append(&Record::new().with("station", "KATL").with("tempC", 28.5f64), "Weather")
            .unwrap();
        writer.finish().unwrap()
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
        let session = std::sync::Arc::new(Xml2Wire::builder().build());
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

    /// Where the embedded recfile starts: just past the schema dictionary.
    fn recfile_offset(archive: &[u8]) -> usize {
        let u32_at = |at: usize| u32::from_le_bytes(archive[at..at + 4].try_into().unwrap());
        let mut at = ARCHIVE_MAGIC.len() + 1;
        let schemas = u32_at(at);
        at += 4;
        for _ in 0..schemas {
            at += 4 + u32_at(at) as usize;
        }
        at
    }

    #[test]
    fn records_in_a_format_the_dictionary_lacks_fail_clearly() {
        // No writer produces this any more; a reader can still meet it
        // in a damaged or foreign file. Splice a Flight-only dictionary
        // onto records that include a Weather one.
        let session = std::sync::Arc::new(Xml2Wire::builder().build());
        session.register_schema_str(FLIGHT).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        let flight_only = writer.finish().unwrap();
        let full = write_archive(Architecture::host());
        let mut bytes = flight_only[..recfile_offset(&flight_only)].to_vec();
        bytes.extend_from_slice(&full[recfile_offset(&full)..]);

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
        let session = std::sync::Arc::new(Xml2Wire::builder().build());
        session.register_schema_str(FLIGHT).unwrap();
        session.register_schema_str(WEATHER).unwrap();
        let mut writer = ArchiveWriter::create(Vec::new(), session);
        writer.declare_format("Flight").unwrap();
        writer.append(&flight(1), "Flight").unwrap();
        assert!(writer.declare_format("Weather").is_err());
    }

    #[test]
    fn empty_archive_round_trips() {
        let session = std::sync::Arc::new(Xml2Wire::builder().build());
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
        assert!(ArchiveReader::open(&b"WRONGMAG\x01"[..]).is_err());
        for cut in [0usize, 5, 9, 12, 40] {
            let _ = ArchiveReader::open(&bytes[..cut.min(bytes.len())]);
        }
        // Flip a byte inside the schema dictionary length.
        let mut broken = bytes.clone();
        broken[9] = 0xFF;
        broken[10] = 0xFF;
        assert!(ArchiveReader::open(&broken[..]).is_err());
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
    fn forged_schema_length_does_not_allocate_the_claim() {
        // Header claims one schema of MAX_SCHEMA bytes but carries four:
        // the reader must report truncation after the bytes actually
        // present, not trust the claim.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(ARCHIVE_MAGIC);
        bytes.push(ARCHIVE_VERSION);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&MAX_SCHEMA.to_le_bytes());
        bytes.extend_from_slice(b"tiny");
        let err = ArchiveReader::open(&bytes[..]).unwrap_err();
        assert!(matches!(err, X2wError::Bcm(PbioError::Truncated { .. })), "{err}");

        // And a claim over the limit is rejected before any read at all.
        let mut over = Vec::new();
        over.extend_from_slice(ARCHIVE_MAGIC);
        over.push(ARCHIVE_VERSION);
        over.extend_from_slice(&1u32.to_le_bytes());
        over.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = ArchiveReader::open(&over[..]).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn forged_schema_count_is_clamped() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(ARCHIVE_MAGIC);
        bytes.push(ARCHIVE_VERSION);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = ArchiveReader::open(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("schema count"), "{err}");
    }

    #[test]
    fn bit_flips_error_or_alter_but_never_panic() {
        let bytes = write_archive(Architecture::host());
        // Flip one bit at a spread of offsets across header, schema
        // dictionary, and record region; open+iterate must stay sound.
        for pos in (0..bytes.len()).step_by(7) {
            let mut broken = bytes.clone();
            broken[pos] ^= 0x04;
            if let Ok(mut reader) = ArchiveReader::open(&broken[..]) {
                for entry in reader.records() {
                    if entry.is_err() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn forged_record_length_is_clamped() {
        let bytes = write_archive(Architecture::host());
        // Find the embedded recfile magic, then forge the first record's
        // length prefix to u32::MAX.
        let rec_off = (0..bytes.len() - 8)
            .find(|&i| &bytes[i..i + 8] == b"PBIOFILE")
            .expect("embedded recfile magic");
        let len_off = rec_off + 9;
        let mut broken = bytes.clone();
        broken[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = ArchiveReader::open(&broken[..]).unwrap();
        let err = reader
            .records()
            .find_map(Result::err)
            .expect("forged record length must not decode");
        assert!(err.to_string().contains("limit"), "{err}");
    }
}
