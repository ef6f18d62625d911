//! Shared fixtures for the cross-crate scenario tests: `ariesim_bench`'s
//! bare-index [`Rig`] (an engine core plus one B+-tree) at the size these
//! tests use, and helpers for making keys. The figure-numbered tests in this
//! directory reproduce the paper's scenarios one-for-one; see EXPERIMENTS.md
//! for the index.

use ariesim::btree::LockProtocol;
use ariesim::common::{IndexKey, PageId, Rid};
use ariesim::obs::Obs;
pub use ariesim_bench::{rig, Rig};

/// Pool frames of every scenario rig.
pub const FRAMES: usize = 512;

#[allow(dead_code)]
pub fn fix(protocol: LockProtocol, unique: bool) -> Rig {
    rig(protocol, unique, FRAMES, Obs::disabled())
}

pub fn rid(n: u32) -> Rid {
    Rid::new(PageId(1_000_000 + n / 100), (n % 100) as u16)
}

pub fn key(v: impl AsRef<[u8]>, n: u32) -> IndexKey {
    IndexKey::new(v.as_ref().to_vec(), rid(n))
}

#[allow(dead_code)]
pub fn nkey(n: u32) -> IndexKey {
    key(format!("key-{n:08}"), n)
}
