//! Shared fixture: a full engine stack (log, pool, locks, transaction
//! manager, resource managers) plus one B+-tree.

use ariesim_btree::{BTree, IndexRm, LockProtocol};
use ariesim_common::tmp::TempDir;
use ariesim_common::{IndexId, IndexKey, PageId, Rid};
use ariesim_obs::Obs;
use ariesim_txn::Core;
use ariesim_wal::LogOptions;
use std::sync::Arc;

/// The engine core (`f.tm`, `f.pool`, `f.stats`, ... through `Deref`) plus
/// the one tree built over it.
#[allow(dead_code)]
pub struct Fix {
    pub _dir: TempDir,
    pub core: Arc<Core>,
    pub tree: Arc<BTree>,
    pub index_rm: Arc<IndexRm>,
}

impl std::ops::Deref for Fix {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

pub fn fix_with(unique: bool, protocol: LockProtocol, frames: usize) -> Fix {
    let dir = TempDir::new("btree-it");
    let core = Core::open(dir.path(), frames, LogOptions::default(), Obs::disabled()).unwrap();
    let index_rm = IndexRm::new(&core);
    let txn = core.tm.begin();
    let root = BTree::create(&core, &txn, IndexId(1)).unwrap();
    core.tm.commit(&txn).unwrap();
    let tree = BTree::open(&core, IndexId(1), root, unique, protocol, false);
    index_rm.register_tree(tree.clone());
    Fix {
        _dir: dir,
        core,
        tree,
        index_rm,
    }
}

#[allow(dead_code)]
pub fn fix() -> Fix {
    fix_with(false, LockProtocol::DataOnly, 256)
}

/// Deterministic fake RID for test keys (no record manager in these tests;
/// data-only locking just needs distinct names).
pub fn rid(n: u32) -> Rid {
    Rid::new(PageId(1_000_000 + n / 100), (n % 100) as u16)
}

pub fn key(v: impl AsRef<[u8]>, n: u32) -> IndexKey {
    IndexKey::new(v.as_ref().to_vec(), rid(n))
}

/// Zero-padded sortable numeric key.
#[allow(dead_code)]
pub fn nkey(n: u32) -> IndexKey {
    key(format!("key-{n:08}"), n)
}
