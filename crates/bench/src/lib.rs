//! # rh-bench
//!
//! Experiment runners regenerating every table and figure of the Graphene
//! paper (MICRO 2020). Each `exp_*` module exposes a `run(fast: bool)`
//! function and has a matching thin binary (`cargo run --release -p rh-bench
//! --bin exp-table4`). `run-all` executes every experiment in order and is
//! the source of `EXPERIMENTS.md`.
//!
//! `fast` mode shrinks simulation lengths for smoke-testing; the recorded
//! numbers in `EXPERIMENTS.md` come from full (`fast = false`) runs. Set
//! `RH_FAST=1` in the environment (or pass `--fast`) to select it.

pub mod exp_ablation;
pub mod exp_fig6;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_nonadjacent;
pub mod exp_security;
pub mod exp_sensitivity;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_table4;
pub mod exp_table5;
pub mod exp_trr;
pub mod generation_matrix;
pub mod resilience_report;
pub mod telemetry_report;
pub mod tracker_arena;

use std::io;
use std::path::Path;

use rh_analysis::export::output_dir;

/// Parses the shared `--fast` / `RH_FAST` switch for the experiment bins.
pub fn fast_mode() -> bool {
    std::env::args().any(|a| a == "--fast") || std::env::var_os("RH_FAST").is_some()
}

/// Parses the shared `--audit` / `RH_AUDIT` switch: run every simulation
/// under the invariant audit layer (audited defenses, end-of-run stats and
/// ground-truth checks). Slower; numbers are bit-identical to unaudited
/// runs, so use it to *validate* a configuration, not to record it.
pub fn audit_mode() -> bool {
    std::env::args().any(|a| a == "--audit") || std::env::var_os("RH_AUDIT").is_some()
}

/// Propagates [`audit_mode`] to every simulation in this process: the
/// runner checks `RH_AUDIT` when a `SimConfig` doesn't opt in itself, so
/// exporting the variable audits each experiment without threading a flag
/// through every `exp_*` signature.
pub fn propagate_audit_mode() {
    if audit_mode() {
        // Single-threaded setup phase; simulations only read it later.
        std::env::set_var("RH_AUDIT", "1");
    }
}

/// Writes `contents` to `relative` under [`output_dir`], creating its
/// directory, and prints the path written or the error. Every CSV and JSONL
/// export of the experiment runners goes through here.
pub fn write_output(relative: impl AsRef<Path>, contents: &str) {
    let path = output_dir().join(relative);
    match write_creating_dirs(&path, contents) {
        Ok(()) => println!("[written to {}]", path.display()),
        Err(e) => println!("[could not write {}: {e}]", path.display()),
    }
}

/// Writes `contents` to `path`, creating its missing parent directories.
fn write_creating_dirs(path: &Path, contents: &str) -> io::Result<()> {
    path.parent().map_or(Ok(()), std::fs::create_dir_all)?;
    std::fs::write(path, contents)
}

/// Prints the standard experiment header.
pub fn banner(title: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_file_creating_directories() {
        let root = std::env::temp_dir().join(format!("rh_bench_write_{}", std::process::id()));
        let path = root.join("nested").join("deeper").join("t.csv");
        let written = write_creating_dirs(&path, "x\n7\n");
        let content = std::fs::read_to_string(&path);
        std::fs::remove_dir_all(&root).ok();
        written.unwrap();
        assert_eq!(content.unwrap(), "x\n7\n");
    }

    #[test]
    fn fails_when_a_parent_is_a_file() {
        let root = std::env::temp_dir().join(format!("rh_bench_unwritable_{}", std::process::id()));
        std::fs::write(&root, "a file, not a directory").unwrap();
        let written = write_creating_dirs(&root.join("t.csv"), "x\n");
        std::fs::remove_file(&root).ok();
        assert!(written.is_err(), "a file cannot be a parent directory");
    }
}
