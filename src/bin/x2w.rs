//! `x2w` — command-line companion for the xml2wire metadata toolkit.
//!
//! ```text
//! x2w inspect <schema.xsd> [--arch NAME]   field tables, offsets, sizes
//! x2w sizes <schema.xsd>                   record sizes across all ABIs
//! x2w validate <schema.xsd> <instance.xml> schema-check a live message
//! x2w match <schema.xsd> <instance.xml>    best-fit format classification
//! x2w cat <archive.x2w>                    dump a self-contained archive
//! x2w serve <dir> [--addr HOST:PORT]       metadata server over a directory
//! ```

use std::process::ExitCode;

use openmeta::prelude::*;
use xml2wire::ArchiveReader;
use xmlparse::{Element, ErrorKind, Position, XmlError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => inspect(&args[1..]),
        Some("sizes") => sizes(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("match") => classify(&args[1..]),
        Some("cat") => cat(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("x2w: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: x2w <command> [args]

  inspect <schema.xsd> [--arch NAME]    show bound field tables and sizes
  sizes <schema.xsd>                    record sizes across all architectures
  validate <schema.xsd> <instance.xml>  validate a message against its schema
  match <schema.xsd> <instance.xml>     find the format a message best fits
  cat <archive.x2w>                     dump records from a self-contained archive
  serve <dir> [--addr HOST:PORT]        serve *.xsd files from a directory

architectures: x86_64 i386 sparc32 sparc64 arm32 power64
";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn load_schema(path: &str) -> Result<Schema, String> {
    Schema::parse_file(path).map_err(|e| format!("{path}: {e}"))
}

fn parse_arch(name: Option<&str>) -> Result<Architecture, String> {
    match name {
        None => Ok(Architecture::host()),
        Some(name) => Architecture::by_name(name)
            .ok_or_else(|| format!("unknown architecture {name:?} (try x86_64, sparc32, …)")),
    }
}

fn bind_all(schema: &Schema, arch: Architecture) -> Result<Vec<std::sync::Arc<pbio::Format>>, String> {
    let session = Xml2Wire::builder().arch(arch).build();
    session.register_schema(schema).map_err(|e| e.to_string())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("inspect needs a schema file")?;
    let arch = parse_arch(flag_value(args, "--arch"))?;
    let schema = load_schema(path)?;
    let formats = bind_all(&schema, arch)?;
    println!("{path}: {} complex type(s), bound for {arch}", formats.len());
    for format in formats {
        println!("\nformat {} — {} bytes fixed part", format.name(), format.record_size());
        println!("  {:<16} {:>28} {:>6} {:>7}", "field", "type", "size", "offset");
        for row in format.field_table() {
            println!(
                "  {:<16} {:>28} {:>6} {:>7}",
                row.name, row.type_string, row.size, row.offset
            );
        }
    }
    for simple in &schema.simple_types {
        println!(
            "\nsimple type {} (base xsd:{}, {} facet(s))",
            simple.name,
            simple.base.canonical_name(),
            simple.facets.len()
        );
    }
    Ok(())
}

fn sizes(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("sizes needs a schema file")?;
    let schema = load_schema(path)?;
    let names: Vec<String> = schema.complex_types.iter().map(|t| t.name.clone()).collect();
    print!("{:<24}", "format");
    for arch in Architecture::ALL {
        print!("{:>10}", arch.name);
    }
    println!();
    for name in names {
        print!("{name:<24}");
        for arch in Architecture::ALL {
            let formats = bind_all(&schema, arch)?;
            let size = formats
                .iter()
                .find(|f| f.name() == name)
                .map(|f| f.record_size())
                .unwrap_or(0);
            print!("{size:>10}");
        }
        println!();
    }
    Ok(())
}

/// Reads an instance document; an unreadable or non-UTF-8 file is
/// reported as an XML error at its start, like any other bad document.
fn read_instance(path: &str) -> Result<String, String> {
    std::fs::read(path)
        .map_err(|e| XmlError::custom(format!("cannot read {path}: {e}"), Position::start()))
        .and_then(|bytes| {
            String::from_utf8(bytes)
                .map_err(|_| XmlError::new(ErrorKind::InvalidUtf8, Position::start()))
        })
        .map_err(|e| format!("{path}: {e}"))
}

fn parse_instance<'a>(path: &str, text: &'a str) -> Result<Element<'a>, String> {
    Element::parse(text).map_err(|e| format!("{path}: {e}"))
}

fn validate(args: &[String]) -> Result<(), String> {
    let [schema_path, instance_path] = args else {
        return Err("validate needs <schema.xsd> <instance.xml>".to_owned());
    };
    let schema = load_schema(schema_path)?;
    let text = read_instance(instance_path)?;
    let instance = parse_instance(instance_path, &text)?;
    let type_name = instance.local_name();
    let issues = xsdlite::validate_instance(&instance, type_name, &schema);
    if issues.is_empty() {
        println!("{instance_path}: valid {type_name}");
        Ok(())
    } else {
        for issue in &issues {
            println!("{issue}");
        }
        Err(format!("{} issue(s)", issues.len()))
    }
}

fn classify(args: &[String]) -> Result<(), String> {
    let [schema_path, instance_path] = args else {
        return Err("match needs <schema.xsd> <instance.xml>".to_owned());
    };
    let schema = load_schema(schema_path)?;
    let text = read_instance(instance_path)?;
    let instance = parse_instance(instance_path, &text)?;
    for ty in &schema.complex_types {
        println!(
            "{:<24} {:>6.1}%",
            ty.name,
            100.0 * xsdlite::match_score(&instance, &ty.name, &schema)
        );
    }
    match xsdlite::best_match(&instance, &schema) {
        Some((ty, score)) => {
            println!("best match: {} ({:.1}%)", ty.name, score * 100.0);
            Ok(())
        }
        None => Err("schema defines no complex types".to_owned()),
    }
}

fn cat(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("cat needs an archive file")?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut reader = ArchiveReader::open(file).map_err(|e| e.to_string())?;
    println!("# formats: {}", reader.format_names().join(", "));
    let mut n = 0u64;
    while let Some((format, record)) = reader.next_record().map_err(|e| e.to_string())? {
        println!("[{format}] {record}");
        n += 1;
    }
    println!("# {n} record(s)");
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let dir = args.first().ok_or("serve needs a directory")?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:8474");
    let server = MetadataServer::bind(addr).map_err(|e| e.to_string())?;
    let mut published = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "xsd") {
            let content =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            // Only publish well-formed schemas; warn on the rest.
            if let Err(e) = Schema::parse_str(&content) {
                eprintln!("skipping {}: {e}", path.display());
                continue;
            }
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            server.publish(&format!("/schemas/{name}"), content);
            published += 1;
        }
    }
    println!("serving {published} schema(s) from {dir} at http://{}", server.local_addr());
    for path in server.published_paths() {
        println!("  {}", server.url_for(&path));
    }
    println!("POST new documents to any path; Ctrl-C to stop.");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
