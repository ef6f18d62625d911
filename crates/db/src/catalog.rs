//! The catalog: table and index definitions, persisted in the catalog page.
//!
//! DDL is rare and setup-time in this reproduction, so catalog changes are
//! force-written rather than logged (DESIGN.md §4): `persist` rewrites the
//! catalog page's cells and the caller flushes. The page-level *effects* of
//! DDL (page allocation, root formatting) are fully logged as usual.

use ariesim_btree::BTree;
use ariesim_common::codec::{Reader, Writer};
use ariesim_common::page::PageType;
use ariesim_common::{Error, IndexId, Lsn, PageId, Result, TableId};
use ariesim_storage::BufferPool;
use std::collections::HashMap;
use std::sync::Arc;

/// Page 2 holds the catalog (page 0 is the NULL sentinel, page 1 the space
/// map).
pub const CATALOG_PAGE: PageId = PageId(2);

#[derive(Clone, Debug)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub first_page: PageId,
    pub columns: u16,
}

#[derive(Clone, Debug)]
pub struct IndexDef {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub root: PageId,
    pub column: u16,
    pub unique: bool,
}

/// In-memory catalog plus the opened B+-tree handles.
pub struct Catalog {
    tables: HashMap<String, TableDef>,
    indexes: HashMap<String, IndexDef>,
    trees: HashMap<IndexId, Arc<BTree>>,
    next_table: u32,
    next_index: u32,
}

impl Catalog {
    /// Load the catalog from its page. A database that has seen no DDL yet
    /// has never written the page ([`Catalog::persist`] formats it on every
    /// write); it reads as zeroes, which is a page with no cells — the empty
    /// catalog.
    pub fn load(pool: &Arc<BufferPool>) -> Result<Catalog> {
        let g = pool.fix_s(CATALOG_PAGE)?;
        let mut cat = Catalog {
            tables: HashMap::new(),
            indexes: HashMap::new(),
            trees: HashMap::new(),
            next_table: 1,
            next_index: 1,
        };
        for i in 0..g.slot_count() {
            let Some(cell) = g.cell(i) else { continue };
            let mut r = Reader::new(cell);
            match r.u8()? {
                1 => {
                    let id = r.table_id()?;
                    let first_page = r.page_id()?;
                    let columns = r.u16()?;
                    let name = String::from_utf8_lossy(r.bytes()?).into_owned();
                    cat.next_table = cat.next_table.max(id.0 + 1);
                    cat.tables.insert(
                        name.clone(),
                        TableDef {
                            id,
                            name,
                            first_page,
                            columns,
                        },
                    );
                }
                2 => {
                    let id = r.index_id()?;
                    let table = r.table_id()?;
                    let root = r.page_id()?;
                    let column = r.u16()?;
                    let unique = r.u8()? != 0;
                    let name = String::from_utf8_lossy(r.bytes()?).into_owned();
                    cat.next_index = cat.next_index.max(id.0 + 1);
                    cat.indexes.insert(
                        name.clone(),
                        IndexDef {
                            id,
                            name,
                            table,
                            root,
                            column,
                            unique,
                        },
                    );
                }
                other => {
                    return Err(Error::CorruptPage {
                        page: CATALOG_PAGE,
                        reason: format!("bad catalog entry tag {other}"),
                    })
                }
            }
        }
        Ok(cat)
    }

    /// Rewrite the catalog page with the current definitions (force-written by caller).
    pub fn persist(&self, pool: &Arc<BufferPool>) -> Result<()> {
        let mut g = pool.fix_x(CATALOG_PAGE)?;
        g.format(CATALOG_PAGE, PageType::Header, 0, 0);
        let mut slot = 0u16;
        for t in self.tables.values() {
            let mut w = Writer::new();
            w.u8(1)
                .table_id(t.id)
                .page_id(t.first_page)
                .u16(t.columns)
                .bytes(t.name.as_bytes());
            g.insert_cell_at(slot, &w.into_vec())?;
            slot += 1;
        }
        for ix in self.indexes.values() {
            let mut w = Writer::new();
            w.u8(2)
                .index_id(ix.id)
                .table_id(ix.table)
                .page_id(ix.root)
                .u16(ix.column)
                .u8(ix.unique as u8)
                .bytes(ix.name.as_bytes());
            g.insert_cell_at(slot, &w.into_vec())?;
            slot += 1;
        }
        g.mark_dirty_raw(Lsn::FIRST);
        Ok(())
    }

    pub fn next_table_id(&mut self) -> TableId {
        let id = TableId(self.next_table);
        self.next_table += 1;
        id
    }

    pub fn next_index_id(&mut self) -> IndexId {
        let id = IndexId(self.next_index);
        self.next_index += 1;
        id
    }

    pub fn add_table(&mut self, def: TableDef) {
        self.tables.insert(def.name.clone(), def);
    }

    pub fn add_index(&mut self, def: IndexDef, tree: Arc<BTree>) {
        self.trees.insert(def.id, tree);
        self.indexes.insert(def.name.clone(), def);
    }

    pub fn attach_tree(&mut self, tree: Arc<BTree>) {
        self.trees.insert(tree.index_id, tree);
    }

    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name)
    }

    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.get(name)
    }

    pub fn tree(&self, id: IndexId) -> Option<Arc<BTree>> {
        self.trees.get(&id).cloned()
    }

    pub fn tables(&self) -> Vec<TableDef> {
        let mut v: Vec<TableDef> = self.tables.values().cloned().collect();
        v.sort_by_key(|t| t.id);
        v
    }

    pub fn indexes(&self) -> Vec<IndexDef> {
        let mut v: Vec<IndexDef> = self.indexes.values().cloned().collect();
        v.sort_by_key(|i| i.id);
        v
    }

    /// Indexes defined on a table, in id order.
    pub fn indexes_on(&self, table: TableId) -> Vec<IndexDef> {
        let mut v: Vec<IndexDef> = self
            .indexes
            .values()
            .filter(|i| i.table == table)
            .cloned()
            .collect();
        v.sort_by_key(|i| i.id);
        v
    }
}
