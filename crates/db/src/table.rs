//! Row encoding and table-level DML: heap + index maintenance in one place,
//! following the paper's data-only-locking division of labour (§2.1):
//!
//! * the record manager's commit X lock on the RID *is* the index key lock
//!   for inserts and deletes — the index manager takes no current-key lock
//!   (only next-key locks);
//! * an index fetch's commit S lock on the key (= the RID) means the record
//!   read that follows takes no lock of its own.

use crate::catalog::TableDef;
use crate::{Db, FetchCond};
use ariesim_btree::fetch::FetchResult;
use ariesim_btree::BTree;
use ariesim_common::codec::{Reader, Writer};
use ariesim_common::{Error, IndexKey, Result, Rid};
use ariesim_txn::TxnHandle;
use std::sync::Arc;

/// A row: a list of byte-string fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub fields: Vec<Vec<u8>>,
}

impl Row {
    pub fn new(fields: Vec<Vec<u8>>) -> Row {
        Row { fields }
    }

    pub fn from_strs(fields: &[&str]) -> Row {
        Row {
            fields: fields.iter().map(|s| s.as_bytes().to_vec()).collect(),
        }
    }

    pub fn field(&self, i: usize) -> Result<&[u8]> {
        self.fields
            .get(i)
            .map(|f| f.as_slice())
            .ok_or_else(|| Error::Internal(format!("row has no field {i}")))
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(self.fields.len() as u16);
        for f in &self.fields {
            w.bytes(f);
        }
        w.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<Row> {
        let mut r = Reader::new(buf);
        let n = r.u16()?;
        let fields = (0..n)
            .map(|_| Ok(r.bytes()?.to_vec()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Row { fields })
    }
}

/// The indexed column and the open tree of each index on a table, in id
/// order.
type OpenIndexes = Vec<(usize, Arc<BTree>)>;

impl Db {
    /// What a row operation needs from the catalog, read in one critical
    /// section: the table and its open indexes.
    fn resolve(&self, table: &str) -> Result<(TableDef, OpenIndexes)> {
        let cat = self.catalog.lock();
        let tdef = cat
            .table(table)
            .ok_or_else(|| Error::Internal(format!("no table {table}")))?
            .clone();
        let indexes = cat
            .indexes_on(tdef.id)
            .into_iter()
            .map(|ix| {
                let tree = cat
                    .tree(ix.id)
                    .ok_or_else(|| Error::Internal(format!("index {} not open", ix.name)))?;
                Ok((ix.column as usize, tree))
            })
            .collect::<Result<_>>()?;
        Ok((tdef, indexes))
    }

    /// Insert a row: heap insert (which takes the commit X record lock),
    /// then one key insert per index on the table. Returns the RID.
    pub fn insert_row(&self, txn: &TxnHandle, table: &str, row: &Row) -> Result<Rid> {
        let (tdef, indexes) = self.resolve(table)?;
        if row.fields.len() != tdef.columns as usize {
            return Err(Error::Internal(format!(
                "row has {} fields, table {table} has {}",
                row.fields.len(),
                tdef.columns
            )));
        }
        let rid = self
            .heap
            .insert(txn, tdef.id, tdef.first_page, &row.encode())?;
        for (column, tree) in indexes {
            let key = IndexKey::new(row.field(column)?.to_vec(), rid);
            tree.insert(txn, &key)?;
        }
        Ok(rid)
    }

    /// Delete the row at `rid`: heap delete (commit X record lock), then one
    /// key delete per index.
    pub fn delete_row(&self, txn: &TxnHandle, table: &str, rid: Rid) -> Result<Row> {
        let (tdef, indexes) = self.resolve(table)?;
        let old = self.heap.delete(txn, tdef.id, rid)?;
        let row = Row::decode(&old)?;
        for (column, tree) in indexes {
            let key = IndexKey::new(row.field(column)?.to_vec(), rid);
            tree.delete(txn, &key)?;
        }
        Ok(row)
    }

    /// Update the row at `rid` in place: heap update (commit X record lock,
    /// which under data-only locking covers the index keys too), then a key
    /// delete + insert on every index whose column actually changed.
    pub fn update_row(&self, txn: &TxnHandle, table: &str, rid: Rid, new: &Row) -> Result<()> {
        let (tdef, indexes) = self.resolve(table)?;
        if new.fields.len() != tdef.columns as usize {
            return Err(Error::Internal(format!(
                "row has {} fields, table {table} has {}",
                new.fields.len(),
                tdef.columns
            )));
        }
        let old = Row::decode(&self.heap.update(txn, tdef.id, rid, &new.encode())?)?;
        for (column, tree) in indexes {
            let (ov, nv) = (old.field(column)?, new.field(column)?);
            if ov == nv {
                continue;
            }
            tree.delete(txn, &IndexKey::new(ov.to_vec(), rid))?;
            tree.insert(txn, &IndexKey::new(nv.to_vec(), rid))?;
        }
        Ok(())
    }

    /// Fetch the first row whose indexed value satisfies (`value`, `cond`),
    /// via the named index. Under data-only locking the index's key lock is
    /// the record lock, so the heap read is lock-free (§2.1).
    pub fn fetch_via(
        &self,
        txn: &TxnHandle,
        index: &str,
        value: &[u8],
        cond: FetchCond,
    ) -> Result<Option<(Rid, Row)>> {
        let tree = self.tree_by_name(index)?;
        match tree.fetch(txn, value, cond)? {
            FetchResult::Found(key) => {
                let already_locked =
                    tree.protocol == ariesim_btree::LockProtocol::DataOnly;
                if !already_locked {
                    // Index-specific locking: the record manager locks too.
                }
                let bytes = self.heap.fetch(txn, key.rid, already_locked)?;
                Ok(Some((key.rid, Row::decode(&bytes)?)))
            }
            FetchResult::NotFound => Ok(None),
        }
    }

    /// Range scan via an index: rows with indexed value in
    /// [`from`, `to`) — RR-correct (the terminating key gets locked too).
    pub fn scan_range(
        &self,
        txn: &TxnHandle,
        index: &str,
        from: &[u8],
        to: &[u8],
    ) -> Result<Vec<(Rid, Row)>> {
        let tree = self.tree_by_name(index)?;
        let already_locked = tree.protocol == ariesim_btree::LockProtocol::DataOnly;
        let mut out = Vec::new();
        let (first, cursor) = tree.open_scan(txn, from, FetchCond::Ge)?;
        let Some(mut key) = first else {
            return Ok(out);
        };
        let mut cursor = cursor.ok_or_else(|| Error::Internal("key without a cursor".into()))?;
        loop {
            if key.value.as_slice() >= to {
                break; // the stop key is locked: the range edge is protected
            }
            let bytes = self.heap.fetch(txn, key.rid, already_locked)?;
            out.push((key.rid, Row::decode(&bytes)?));
            match tree.fetch_next(txn, &mut cursor)? {
                Some(k) => key = k,
                None => break, // EOF lock taken by fetch_next
            }
        }
        Ok(out)
    }

    /// Look up an opened tree handle by index name.
    pub fn tree_by_name(&self, index: &str) -> Result<Arc<BTree>> {
        let cat = self.catalog.lock();
        let def = cat
            .index(index)
            .ok_or_else(|| Error::Internal(format!("no index {index}")))?;
        cat.tree(def.id)
            .ok_or_else(|| Error::Internal(format!("index {index} not open")))
    }

    /// First heap page of a table (verification helpers).
    pub fn table_first_page(&self, table: &str) -> Result<ariesim_common::PageId> {
        let cat = self.catalog.lock();
        Ok(cat
            .table(table)
            .ok_or_else(|| Error::Internal(format!("no table {table}")))?
            .first_page)
    }
}
