//! Row encoding and table-level DML: heap + index maintenance in one place,
//! following the paper's data-only-locking division of labour (§2.1):
//!
//! * the record manager's commit X lock on the RID *is* the index key lock
//!   for inserts and deletes — the index manager takes no current-key lock
//!   (only next-key locks);
//! * an index fetch's commit S lock on the key (= the RID) means the record
//!   read that follows takes no lock of its own.

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

    /// The row's stored image. Panics if a field is longer than
    /// `u16::MAX` bytes; the engine encodes through
    /// [`try_encode`](Self::try_encode).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(self.fields.len() as u16);
        for f in &self.fields {
            w.bytes(f);
        }
        w.into_vec()
    }

    /// The row's stored image, or [`Error::TooLarge`] when the field count
    /// or a field's length does not fit the image's u16 length prefix.
    pub fn try_encode(&self) -> Result<Vec<u8>> {
        let max = usize::from(u16::MAX);
        let mut lens = std::iter::once(self.fields.len()).chain(self.fields.iter().map(Vec::len));
        match lens.find(|&len| len > max) {
            Some(len) => Err(Error::TooLarge { len, max }),
            None => Ok(self.encode()),
        }
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

impl Db {
    /// Insert a row: heap insert (which takes the commit X record lock),
    /// then one key insert per index on the table. Returns the RID.
    pub fn insert_row(&self, txn: &TxnHandle, table: &str, row: &Row) -> Result<Rid> {
        let tdef = self.catalog.table(table)?;
        if row.fields.len() != tdef.columns as usize {
            return Err(Error::Internal(format!(
                "row has {} fields, table {table} has {}",
                row.fields.len(),
                tdef.columns
            )));
        }
        let rid = self
            .heap
            .insert(txn, tdef.id, tdef.first_page, &row.try_encode()?)?;
        for ix in self.catalog.indexes_on(tdef.id) {
            let key = IndexKey::new(row.field(ix.def.column as usize)?.to_vec(), rid);
            ix.tree.insert(txn, &key)?;
        }
        Ok(rid)
    }

    /// Delete the row at `rid`: heap delete (commit X record lock), then one
    /// key delete per index.
    pub fn delete_row(&self, txn: &TxnHandle, table: &str, rid: Rid) -> Result<Row> {
        let tdef = self.catalog.table(table)?;
        let old = self.heap.delete(txn, tdef.id, rid)?;
        let row = Row::decode(&old)?;
        for ix in self.catalog.indexes_on(tdef.id) {
            let key = IndexKey::new(row.field(ix.def.column as usize)?.to_vec(), rid);
            ix.tree.delete(txn, &key)?;
        }
        Ok(row)
    }

    /// Update the row at `rid` in place: heap update (commit X record lock,
    /// which under data-only locking covers the index keys too), then a key
    /// delete + insert on every index whose column actually changed.
    pub fn update_row(&self, txn: &TxnHandle, table: &str, rid: Rid, new: &Row) -> Result<()> {
        let tdef = self.catalog.table(table)?;
        if new.fields.len() != tdef.columns as usize {
            return Err(Error::Internal(format!(
                "row has {} fields, table {table} has {}",
                new.fields.len(),
                tdef.columns
            )));
        }
        let image = new.try_encode()?;
        let old = Row::decode(&self.heap.update(txn, tdef.id, rid, &image)?)?;
        for ix in self.catalog.indexes_on(tdef.id) {
            let column = ix.def.column as usize;
            let (ov, nv) = (old.field(column)?, new.field(column)?);
            if ov == nv {
                continue;
            }
            ix.tree.delete(txn, &IndexKey::new(ov.to_vec(), rid))?;
            ix.tree.insert(txn, &IndexKey::new(nv.to_vec(), rid))?;
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
        let tree = &self.catalog.index(index)?.tree;
        let FetchResult::Found(key) = tree.fetch(txn, value, cond)? else {
            return Ok(None);
        };
        let mut rows = Vec::with_capacity(1);
        self.read_rows(txn, tree, &[key.rid], &mut rows)?;
        Ok(rows.pop())
    }

    /// Range scan via an index: rows with indexed value in
    /// [`from`, `to`) — RR-correct (the terminating key gets locked too).
    ///
    /// The scan alternates two batched steps with no latch held between
    /// them: lock a run of keys along one leaf under its S latch (§2.3),
    /// then read the rows of the keys below `to`, one fix per heap page.
    pub fn scan_range(
        &self,
        txn: &TxnHandle,
        index: &str,
        from: &[u8],
        to: &[u8],
    ) -> Result<Vec<(Rid, Row)>> {
        let tree = &self.catalog.index(index)?.tree;
        let mut out = Vec::new();
        let mut run = Vec::new();
        let Some(mut cursor) = tree.open_run(txn, from, to, &mut run)? else {
            return Ok(out); // EOF locked
        };
        let mut rids = Vec::new();
        loop {
            let below = run.partition_point(|k| k.value.as_slice() < to);
            rids.clear();
            rids.extend(run[..below].iter().map(|k| k.rid));
            self.read_rows(txn, tree, &rids, &mut out)?;
            if below < run.len() {
                break; // the stop key is locked: the range edge is protected
            }
            run.clear();
            if !tree.fetch_next_run(txn, &mut cursor, to, &mut run)? {
                break; // EOF locked
            }
        }
        Ok(out)
    }

    /// Append the rows at `rids`, found through `tree`, to `out`, each
    /// decoded in place on its heap page. Under data-only locking the
    /// tree's key locks are the record locks (§2.1); otherwise the record
    /// manager locks the records first.
    fn read_rows(
        &self,
        txn: &TxnHandle,
        tree: &BTree,
        rids: &[Rid],
        out: &mut Vec<(Rid, Row)>,
    ) -> Result<()> {
        let already_locked = tree.protocol == ariesim_btree::LockProtocol::DataOnly;
        self.heap.fetch_run(txn, rids, already_locked, |rid, cell| {
            out.push((rid, Row::decode(cell)?));
            Ok(())
        })
    }

    /// Look up an opened tree handle by index name.
    pub fn tree_by_name(&self, index: &str) -> Result<Arc<BTree>> {
        Ok(self.catalog.index(index)?.tree.clone())
    }

    /// First heap page of a table (verification helpers).
    pub fn table_first_page(&self, table: &str) -> Result<ariesim_common::PageId> {
        Ok(self.catalog.table(table)?.first_page)
    }
}
