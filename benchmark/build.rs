//! Records the compiler version for the provenance fields of every
//! record line (`rustc` cannot be asked at run time without starting a
//! process).
fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=OMF_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
