//! R9 fixture: a pipeline library file. The self-test lints it as
//! `crates/geo/src/r9_unread_pub.rs` next to a source file and a test
//! file of another crate and a stand-in for the end-to-end benchmark.

/// Flagged: only this file's unit tests call it.
pub fn only_own_tests() -> u32 {
    1
}

/// Flagged: only another crate's `tests/` call it.
pub fn only_other_tests() -> u32 {
    2
}

/// Flagged: another crate names it only in a `pub use`.
pub fn only_reexported() -> u32 {
    3
}

/// Flagged (narrow): only this file's code reads it.
pub const LOCAL_LIMIT: u32 = 4;

/// Flagged: only its own `impl` blocks name it.
pub struct SelfNamedOnly;

impl Default for SelfNamedOnly {
    fn default() -> Self {
        SelfNamedOnly
    }
}

/// Clean: another crate's source calls it.
pub fn read_from_src() -> Result<u32, SignatureOnly> {
    Ok(LOCAL_LIMIT)
}

/// Clean: callers reach it through `read_from_src`'s signature.
#[derive(Debug)]
pub struct SignatureOnly;

/// Clean: only the end-to-end benchmark calls it.
pub fn read_by_perfbench() -> u32 {
    5
}

/// Clean, the documented false negative: nothing calls this `build`, but
/// another crate's live `build` shares the name.
pub fn build() -> u32 {
    6
}

// lint:allow(unread-pub): the oracle that the other crate's tests hold its kernel to
pub fn oracle() -> u32 {
    7
}

/// Not checked: restricted visibility.
pub(crate) fn restricted() -> u32 {
    8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Not checked: test code.
    pub fn helper() -> u32 {
        only_own_tests() + restricted()
    }
}
