//! Integration tests for the `x2w` command-line tool.

use std::process::Command;

fn x2w() -> Command {
    Command::new(env!("CARGO_BIN_EXE_x2w"))
}

/// A directory of demo files of the calling test's own: tests run in
/// parallel, and a file being rewritten by one must not be read by the
/// `x2w` process of another.
fn demo_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("x2w-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("flight.xsd"),
        r#"<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Flight">
    <xsd:element name="arln" type="xsd:string"/>
    <xsd:element name="fltNum" type="xsd:integer"/>
    <xsd:element name="eta" type="xsd:unsigned-long" maxOccurs="*"/>
  </xsd:complexType>
</xsd:schema>"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("good.xml"),
        "<Flight><arln>DL</arln><fltNum>1202</fltNum><eta>5</eta></Flight>",
    )
    .unwrap();
    std::fs::write(
        dir.join("bad.xml"),
        "<Flight><arln>DL</arln><fltNum>twelve</fltNum></Flight>",
    )
    .unwrap();
    dir
}

#[test]
fn inspect_prints_field_tables() {
    let dir = demo_dir("inspect_prints_field_tables");
    let out = x2w()
        .args(["inspect", dir.join("flight.xsd").to_str().unwrap(), "--arch", "sparc32"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("16 bytes fixed part"), "{stdout}");
    assert!(stdout.contains("unsigned integer[eta_count]"), "{stdout}");
}

#[test]
fn sizes_covers_every_architecture() {
    let dir = demo_dir("sizes_covers_every_architecture");
    let out =
        x2w().args(["sizes", dir.join("flight.xsd").to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for arch in ["x86_64", "i386", "sparc32", "sparc64", "arm32", "power64"] {
        assert!(stdout.contains(arch), "{stdout}");
    }
}

#[test]
fn validate_passes_good_and_fails_bad() {
    let dir = demo_dir("validate_passes_good_and_fails_bad");
    let schema = dir.join("flight.xsd");
    let ok = x2w()
        .args(["validate", schema.to_str().unwrap(), dir.join("good.xml").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));

    let bad = x2w()
        .args(["validate", schema.to_str().unwrap(), dir.join("bad.xml").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("fltNum"), "{stdout}");
}

#[test]
fn match_classifies_instances() {
    let dir = demo_dir("match_classifies_instances");
    let out = x2w()
        .args([
            "match",
            dir.join("flight.xsd").to_str().unwrap(),
            dir.join("good.xml").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("best match: Flight"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = x2w().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = x2w().args(["inspect", "/nonexistent/x.xsd"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("x2w:"));
}

#[test]
fn cat_dumps_archives() {
    use std::sync::Arc;
    use openmeta::prelude::*;
    let dir = demo_dir("cat_dumps_archives");
    let archive_path = dir.join("flights.x2w");

    let session = Arc::new(Xml2Wire::builder().build());
    session
        .register_schema_str(&std::fs::read_to_string(dir.join("flight.xsd")).unwrap())
        .unwrap();
    let file = std::fs::File::create(&archive_path).unwrap();
    let mut writer = xml2wire::ArchiveWriter::create(file, session);
    writer.declare_format("Flight").unwrap();
    for i in 0..3 {
        writer
            .append(
                &Record::new().with("arln", "DL").with("fltNum", i as i64).with("eta", vec![1u64]),
                "Flight",
            )
            .unwrap();
    }
    writer.finish().unwrap();

    let out = x2w().args(["cat", archive_path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# formats: Flight"), "{stdout}");
    assert!(stdout.contains("# 3 record(s)"), "{stdout}");
    assert!(stdout.contains("fltNum: 2"), "{stdout}");
}
