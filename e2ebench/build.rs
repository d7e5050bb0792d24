//! Records which compiler built the benchmark, for the result records.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string());
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
