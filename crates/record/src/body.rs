//! Log-record bodies owned by the heap resource manager.

use ariesim_common::codec::{Reader, Writer};
use ariesim_common::ids::SlotNo;
use ariesim_common::{Error, PageId, Result, TableId};

/// A heap log-record body. The affected page is in the record envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeapBody {
    /// Record inserted at `slot` with `data`. Undo: delete it.
    Insert {
        table: TableId,
        slot: SlotNo,
        data: Vec<u8>,
    },
    /// Record at `slot` deleted; `data` is the before-image. Undo: re-insert.
    Delete {
        table: TableId,
        slot: SlotNo,
        data: Vec<u8>,
    },
    /// Record at `slot` replaced. Only the changed range is logged: the
    /// before- and after-images share their first `head` bytes and, after
    /// those, their last `tail` bytes; `old` and `new` are the two middles.
    /// Redo splices `new` into the before-image, undo splices `old` into
    /// the after-image (see [`splice`]).
    Update {
        table: TableId,
        slot: SlotNo,
        head: u16,
        tail: u16,
        old: Vec<u8>,
        new: Vec<u8>,
    },
    /// Page formatted as a fresh heap page for `table` (file extension NTA).
    Format { table: TableId },
    /// `next` chain pointer of this page changed (file extension NTA).
    ChainNext { old: PageId, new: PageId },
    /// CLR filler with no page effect (compensation for Format).
    Noop,
}

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_UPDATE: u8 = 3;
const OP_FORMAT: u8 = 4;
const OP_CHAIN: u8 = 5;
const OP_NOOP: u8 = 6;

impl HeapBody {
    /// The update body that turns `before` into `after`: `head` is their
    /// common prefix, `tail` the common suffix of what follows it, so the
    /// two never overlap (`abab` → `ab` has head 2, tail 0).
    pub fn update(table: TableId, slot: SlotNo, before: &[u8], after: &[u8]) -> HeapBody {
        let head = common_len(before.iter(), after.iter());
        let (b, a) = (&before[head..], &after[head..]);
        let tail = common_len(b.iter().rev(), a.iter().rev());
        HeapBody::Update {
            table,
            slot,
            head: head as u16,
            tail: tail as u16,
            old: b[..b.len() - tail].to_vec(),
            new: a[..a.len() - tail].to_vec(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            HeapBody::Insert { table, slot, data } => {
                w.u8(OP_INSERT).table_id(*table).u16(slot.0).bytes(data);
            }
            HeapBody::Delete { table, slot, data } => {
                w.u8(OP_DELETE).table_id(*table).u16(slot.0).bytes(data);
            }
            HeapBody::Update {
                table,
                slot,
                head,
                tail,
                old,
                new,
            } => {
                w.u8(OP_UPDATE)
                    .table_id(*table)
                    .u16(slot.0)
                    .u16(*head)
                    .u16(*tail)
                    .bytes(old)
                    .bytes(new);
            }
            HeapBody::Format { table } => {
                w.u8(OP_FORMAT).table_id(*table);
            }
            HeapBody::ChainNext { old, new } => {
                w.u8(OP_CHAIN).page_id(*old).page_id(*new);
            }
            HeapBody::Noop => {
                w.u8(OP_NOOP);
            }
        }
        w.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<HeapBody> {
        let mut r = Reader::new(buf);
        let op = r.u8()?;
        Ok(match op {
            OP_INSERT => HeapBody::Insert {
                table: r.table_id()?,
                slot: SlotNo(r.u16()?),
                data: r.bytes()?.to_vec(),
            },
            OP_DELETE => HeapBody::Delete {
                table: r.table_id()?,
                slot: SlotNo(r.u16()?),
                data: r.bytes()?.to_vec(),
            },
            OP_UPDATE => HeapBody::Update {
                table: r.table_id()?,
                slot: SlotNo(r.u16()?),
                head: r.u16()?,
                tail: r.u16()?,
                old: r.bytes()?.to_vec(),
                new: r.bytes()?.to_vec(),
            },
            OP_FORMAT => HeapBody::Format {
                table: r.table_id()?,
            },
            OP_CHAIN => HeapBody::ChainNext {
                old: r.page_id()?,
                new: r.page_id()?,
            },
            OP_NOOP => HeapBody::Noop,
            other => {
                return Err(Error::Internal(format!("bad heap body op {other}")));
            }
        })
    }
}

/// Length of the common prefix of two byte sequences.
fn common_len<'a>(a: impl Iterator<Item = &'a u8>, b: impl Iterator<Item = &'a u8>) -> usize {
    a.zip(b).take_while(|(x, y)| x == y).count()
}

/// `cell` with its middle `out` — the bytes between its first `head` and
/// its last `tail` — replaced by `into`. An `Err` when `cell` cannot hold
/// `head`, `out` and `tail`: the page is not the image the record changed.
pub fn splice(cell: &[u8], head: u16, tail: u16, out: &[u8], into: &[u8]) -> Result<Vec<u8>> {
    let (head, tail) = (usize::from(head), usize::from(tail));
    if head + out.len() + tail != cell.len() {
        return Err(Error::Internal(format!(
            "heap update of head {head}, middle {}, tail {tail} on a {}-byte cell",
            out.len(),
            cell.len()
        )));
    }
    let mut image = Vec::with_capacity(head + into.len() + tail);
    image.extend_from_slice(&cell[..head]);
    image.extend_from_slice(into);
    image.extend_from_slice(&cell[cell.len() - tail..]);
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let cases = vec![
            HeapBody::Insert {
                table: TableId(1),
                slot: SlotNo(3),
                data: b"rec".to_vec(),
            },
            HeapBody::Delete {
                table: TableId(1),
                slot: SlotNo(3),
                data: b"rec".to_vec(),
            },
            HeapBody::Update {
                table: TableId(2),
                slot: SlotNo(0),
                head: 3,
                tail: 1,
                old: b"a".to_vec(),
                new: b"bb".to_vec(),
            },
            HeapBody::Format { table: TableId(9) },
            HeapBody::ChainNext {
                old: PageId::NULL,
                new: PageId(7),
            },
            HeapBody::Noop,
        ];
        for c in cases {
            assert_eq!(HeapBody::decode(&c.encode()).unwrap(), c);
        }
    }

    /// Every case a prefix/suffix split has an edge at: the update body
    /// splices `before` into `after` and back, and logs only the middles.
    #[test]
    fn update_logs_the_changed_range_and_splices_both_ways() {
        let cases: [(&[u8], &[u8], u16, u16); 7] = [
            (b"key=1;val=aaaa;end", b"key=1;val=bbbb;end", 10, 4),
            (b"abc", b"abXYc", 2, 1),
            (b"abXYc", b"abc", 2, 1),
            (b"abc", b"xyz", 0, 0),
            (b"same", b"same", 4, 0),
            (b"prefix-and-more", b"prefix", 6, 0),
            (b"abab", b"ab", 2, 0),
        ];
        for (before, after, head, tail) in cases {
            let (h, t) = (usize::from(head), usize::from(tail));
            let old = &before[h..before.len() - t];
            let new = &after[h..after.len() - t];
            let body = HeapBody::update(TableId(1), SlotNo(2), before, after);
            let want = HeapBody::Update {
                table: TableId(1),
                slot: SlotNo(2),
                head,
                tail,
                old: old.to_vec(),
                new: new.to_vec(),
            };
            assert_eq!(body, want, "{before:?} -> {after:?}");
            assert_eq!(splice(before, head, tail, old, new).unwrap(), after);
            assert_eq!(splice(after, head, tail, new, old).unwrap(), before);
        }
    }

    #[test]
    fn splice_on_a_cell_of_the_wrong_length_is_error() {
        assert!(splice(b"abc", 2, 2, b"", b"x").is_err());
        assert!(splice(b"abc", 0, 0, b"ab", b"x").is_err());
        assert!(splice(b"", u16::MAX, u16::MAX, b"", b"").is_err());
    }

    #[test]
    fn bad_op_is_error() {
        assert!(HeapBody::decode(&[99]).is_err());
        assert!(HeapBody::decode(&[]).is_err());
    }
}
