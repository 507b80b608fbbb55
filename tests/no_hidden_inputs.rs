//! The simulator has no hidden inputs: no library source of the
//! simulator crates reads the process environment, so a variable
//! exported in the shell cannot change what a run computes. Every plane
//! is an explicit argument instead.
//!
//! The scan covers each `.rs` file under `crates/<crate>/src` up to its
//! first `#[cfg(test)]` (unit tests may read the environment). The one
//! allowed read is `sim::check`'s property-loop case count, which only
//! tests use. The bench layer (`apenet-bench`) is out of scope: its
//! deployment knobs (results directory, sweep threads, iteration counts)
//! belong to the binaries that drive it.

use std::path::{Path, PathBuf};

const CRATES: [&str; 9] = [
    "sim", "obs", "core", "gpu", "pcie", "rdma", "ib", "cluster", "apps",
];

/// Files allowed to read the environment, relative to `crates/`.
const ALLOWED: [&str; 1] = ["sim/src/check.rs"];

const FORBIDDEN: [&str; 2] = ["std::env", "env::var"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn simulator_crates_read_no_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut scanned = 0;
    let mut hits = Vec::new();
    for krate in CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        assert!(!files.is_empty(), "crates/{krate}/src has sources");
        for path in files {
            let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
            let rel = rel.replace('\\', "/");
            if ALLOWED.contains(&rel.as_str()) {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("source file");
            let lib = src.split("#[cfg(test)]").next().unwrap_or("");
            scanned += 1;
            for (i, line) in lib.lines().enumerate() {
                if FORBIDDEN.iter().any(|f| line.contains(f)) {
                    hits.push(format!("crates/{rel}:{}: {}", i + 1, line.trim()));
                }
            }
        }
    }
    assert!(scanned > 50, "only {scanned} files scanned");
    assert!(
        hits.is_empty(),
        "library code reads the environment; pass the value in explicitly:\n{}",
        hits.join("\n")
    );
}
