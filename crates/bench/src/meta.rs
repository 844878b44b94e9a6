//! Provenance metadata for benchmark reports.
//!
//! Every `BENCH_*.json` records which commit, compiler and host produced its
//! numbers, so a change surfaced later can be traced to the build that
//! introduced it.

use crate::json::Obj;
use std::process::Command;

/// The `rustc --version` string the benchmark binary was compiled with
/// (captured by the build script, not probed at run time).
pub fn rustc_version() -> &'static str {
    env!("PTM_RUSTC_VERSION")
}

/// The short git revision of the working tree, with `-dirty` appended when
/// uncommitted changes are present; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let Some(rev) = rev else {
        return "unknown".to_string();
    };
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// Number of host cores visible to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Writes the common provenance keys into a report object.
pub fn provenance(o: &mut Obj) {
    o.field("git_rev", git_rev())
        .field("rustc", rustc_version())
        .field("host_cores", host_cores());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_writes_every_key_and_the_baked_in_rustc() {
        let f = crate::json::object(provenance);
        assert!(f.contains("\"git_rev\": \""));
        assert!(f.contains("\"rustc\": \"rustc"));
        assert!(f.contains("\"host_cores\": "));
    }
}
