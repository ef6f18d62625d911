//! The catalog: table and index definitions, persisted in the catalog page.
//!
//! DDL is rare and setup-time in this reproduction, so catalog changes are
//! force-written rather than logged (DESIGN.md §4): `persist` rewrites the
//! catalog page's cells and the caller flushes. The page-level *effects* of
//! DDL (page allocation, root formatting) are fully logged as usual.

use ariesim_btree::BTree;
use ariesim_common::codec::{Reader, Writer};
use ariesim_common::page::{PageType, PAGE_SIZE};
use ariesim_common::slotted::SLOT_LEN;
use ariesim_common::{Error, IndexId, Lsn, PageId, Result, TableId};
use ariesim_storage::BufferPool;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

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

/// An index definition and its open tree.
pub struct OpenIndex {
    pub def: IndexDef,
    pub tree: Arc<BTree>,
}

/// The most entries of one kind the catalog page can hold: an entry takes
/// at least 13 bytes (a table's, with an empty name) and a slot.
const CAPACITY: usize = PAGE_SIZE / (SLOT_LEN + 13);

/// Write-once slots, filled in order and read with no lock: the catalog only
/// grows (there is no DROP), so a published entry never changes, and the
/// filled slots are a prefix.
struct Slots<T>(Box<[OnceLock<T>]>);

impl<T> Slots<T> {
    fn new() -> Slots<T> {
        Slots((0..CAPACITY).map(|_| OnceLock::new()).collect())
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map_while(OnceLock::get)
    }

    /// Publish `entry` in the first free slot. Callers are serialised by
    /// [`Catalog::ddl`].
    fn push(&self, entry: T) -> Result<()> {
        match self.0.iter().find(|slot| slot.get().is_none()) {
            Some(slot) if slot.set(entry).is_ok() => Ok(()),
            _ => Err(Error::Internal(format!(
                "the catalog holds at most {CAPACITY} entries of a kind"
            ))),
        }
    }
}

/// The next table and index ids.
pub(crate) struct NextIds {
    table: u32,
    index: u32,
}

impl NextIds {
    pub(crate) fn table(&mut self) -> TableId {
        let id = TableId(self.table);
        self.table += 1;
        id
    }

    pub(crate) fn index(&mut self) -> IndexId {
        let id = IndexId(self.index);
        self.index += 1;
        id
    }
}

/// The catalog: published table definitions and open indexes, which row
/// operations read with no mutex, no `RwLock` and no `Arc` clone, each
/// being a write to a cache line every client shares. DDL holds
/// [`Catalog::ddl`] from its name check to its publish.
pub struct Catalog {
    tables: Slots<TableDef>,
    indexes: Slots<OpenIndex>,
    pub(crate) ddl: Mutex<NextIds>,
}

impl Catalog {
    /// Load the catalog from its page, opening each index with `open`. A
    /// database that has seen no DDL yet has never written the page
    /// ([`Catalog::persist`] formats it on every write); it reads as zeroes,
    /// which is a page with no cells — the empty catalog.
    pub fn load(
        pool: &Arc<BufferPool>,
        mut open: impl FnMut(&IndexDef) -> Arc<BTree>,
    ) -> Result<Catalog> {
        let g = pool.fix_s(CATALOG_PAGE)?;
        let cat = Catalog {
            tables: Slots::new(),
            indexes: Slots::new(),
            ddl: Mutex::new(NextIds { table: 1, index: 1 }),
        };
        let mut next = cat.ddl.lock();
        for i in 0..g.slot_count() {
            let Some(cell) = g.cell(i) else { continue };
            let mut r = Reader::new(cell);
            match r.u8()? {
                1 => {
                    let id = r.table_id()?;
                    let first_page = r.page_id()?;
                    let columns = r.u16()?;
                    let name = String::from_utf8_lossy(r.bytes()?).into_owned();
                    next.table = next.table.max(id.0 + 1);
                    cat.tables.push(TableDef {
                        id,
                        name,
                        first_page,
                        columns,
                    })?;
                }
                2 => {
                    let id = r.index_id()?;
                    let table = r.table_id()?;
                    let root = r.page_id()?;
                    let column = r.u16()?;
                    let unique = r.u8()? != 0;
                    let name = String::from_utf8_lossy(r.bytes()?).into_owned();
                    next.index = next.index.max(id.0 + 1);
                    let def = IndexDef {
                        id,
                        name,
                        table,
                        root,
                        column,
                        unique,
                    };
                    let tree = open(&def);
                    cat.indexes.push(OpenIndex { def, tree })?;
                }
                other => {
                    return Err(Error::CorruptPage {
                        page: CATALOG_PAGE,
                        reason: format!("bad catalog entry tag {other}"),
                    })
                }
            }
        }
        drop(next);
        Ok(cat)
    }

    /// Rewrite the catalog page with the current definitions (force-written by caller).
    pub fn persist(&self, pool: &Arc<BufferPool>) -> Result<()> {
        let mut g = pool.fix_x(CATALOG_PAGE)?;
        g.format(CATALOG_PAGE, PageType::Header, 0, 0);
        let mut slot = 0u16;
        for t in self.tables.iter() {
            let mut w = Writer::new();
            w.u8(1)
                .table_id(t.id)
                .page_id(t.first_page)
                .u16(t.columns)
                .bytes(t.name.as_bytes());
            g.insert_cell_at(slot, &w.into_vec())?;
            slot += 1;
        }
        for OpenIndex { def: ix, .. } in self.indexes.iter() {
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

    /// Publish a table. The caller holds [`Catalog::ddl`].
    pub fn add_table(&self, def: TableDef) -> Result<()> {
        self.tables.push(def)
    }

    /// Publish an index and its open tree. The caller holds
    /// [`Catalog::ddl`].
    pub fn add_index(&self, def: IndexDef, tree: Arc<BTree>) -> Result<()> {
        self.indexes.push(OpenIndex { def, tree })
    }

    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| Error::Internal(format!("no table {name}")))
    }

    pub fn index(&self, name: &str) -> Result<&OpenIndex> {
        self.indexes
            .iter()
            .find(|ix| ix.def.name == name)
            .ok_or_else(|| Error::Internal(format!("no index {name}")))
    }

    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.iter()
    }

    pub fn indexes(&self) -> impl Iterator<Item = &OpenIndex> {
        self.indexes.iter()
    }

    /// Indexes defined on a table.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &OpenIndex> {
        self.indexes.iter().filter(move |ix| ix.def.table == table)
    }
}
