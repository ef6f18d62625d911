//! Self-cleaning temporary directories for tests and benches.
//!
//! A tiny substitute for the `tempfile` crate (kept out of the dependency
//! set; see DESIGN.md §6). Directories are created under the OS temp dir
//! with a process-unique, monotonic name and removed on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory removed (best-effort) when the value is dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory, e.g. `/tmp/ariesim-12345-7-mylabel`.
    #[expect(
        clippy::expect_used,
        reason = "test-support only; tmpdir creation failure is unrecoverable environment breakage"
    )]
    pub fn new(label: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed); // ordering: unique-id counter; only uniqueness matters, not order
        let path = std::env::temp_dir().join(format!(
            "ariesim-{}-{}-{}",
            std::process::id(),
            n,
            label
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_cleans_up() {
        let kept;
        {
            let d = TempDir::new("t");
            kept = d.path().to_path_buf();
            std::fs::write(d.file("x"), b"hi").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists());
    }

    #[test]
    fn two_dirs_are_distinct() {
        let a = TempDir::new("same");
        let b = TempDir::new("same");
        assert_ne!(a.path(), b.path());
    }
}
