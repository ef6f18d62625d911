//! Scratch directories under `benchmark/out/`, removed on drop.
//!
//! The benchmark reads and writes only inside its checkout, so database
//! files live here and not in the system's temporary directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// `benchmark/out`: traces, reports and scratch databases.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        // ordering: unique-id counter; only uniqueness matters
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("work")
            .join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
