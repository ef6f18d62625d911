//! Whole-database verification: the oracle the crash-recovery experiments
//! check against.
//!
//! [`Db::verify_consistency`] asserts, for every table:
//!
//! * each index passes the B+-tree structural checker;
//! * index contents and heap contents agree exactly (every row's indexed
//!   value appears once under its RID; no dangling index keys);
//!
//! and is used after restart to demonstrate the paper's recovery guarantees:
//! committed effects present, loser effects gone, structure intact.

use crate::catalog::OpenIndex;
use crate::{Db, Row};
use ariesim_common::{Error, IndexKey, Result};
use std::collections::BTreeSet;

/// Summary of a consistent database.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DbReport {
    pub tables: usize,
    pub rows: usize,
    pub indexes: usize,
    pub index_keys: usize,
}

impl Db {
    /// Full consistency check; call quiesced (no running transactions).
    pub fn verify_consistency(&self) -> Result<DbReport> {
        let cat = &self.catalog;
        let mut report = DbReport {
            tables: cat.tables().count(),
            indexes: cat.indexes().count(),
            ..Default::default()
        };
        for t in cat.tables() {
            let rows = self.heap.scan_all(t.first_page)?;
            report.rows += rows.len();
            for OpenIndex { def: ix, tree } in cat.indexes_on(t.id) {
                tree.check_structure()?;
                let keys = tree.scan_all_unlocked()?;
                report.index_keys += keys.len();
                // Heap → index: every row's value under its RID, exactly once.
                let key_set: BTreeSet<IndexKey> = keys.iter().cloned().collect();
                if key_set.len() != keys.len() {
                    return Err(Error::Internal(format!(
                        "index {}: duplicate full keys",
                        ix.name
                    )));
                }
                let mut expected = BTreeSet::new();
                for (rid, bytes) in &rows {
                    let row = Row::decode(bytes)?;
                    expected.insert(IndexKey::new(
                        row.field(ix.column as usize)?.to_vec(),
                        *rid,
                    ));
                }
                if expected != key_set {
                    let missing: Vec<_> = expected.difference(&key_set).take(3).collect();
                    let dangling: Vec<_> = key_set.difference(&expected).take(3).collect();
                    return Err(Error::Internal(format!(
                        "index {} out of sync with heap: missing {:?}, dangling {:?}",
                        ix.name, missing, dangling
                    )));
                }
            }
        }
        Ok(report)
    }
}
