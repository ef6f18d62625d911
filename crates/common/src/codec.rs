//! Little-endian byte codecs with explicit framing.
//!
//! The log and page formats are hand-serialized (see DESIGN.md §6): recovery
//! must cope with a log whose tail was torn by a crash, so every frame is
//! length-prefixed and checksummed at the layer above, and decoding is
//! explicit about how many bytes it consumed.

use crate::error::{Error, Result};
use crate::ids::{IndexId, Lsn, PageId, Rid, TableId, TxnId};

/// Append-only byte writer used to build log-record and page payloads.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn lsn(&mut self, v: Lsn) -> &mut Self {
        self.u64(v.0)
    }

    pub fn page_id(&mut self, v: PageId) -> &mut Self {
        self.u32(v.0)
    }

    pub fn txn_id(&mut self, v: TxnId) -> &mut Self {
        self.u64(v.0)
    }

    pub fn index_id(&mut self, v: IndexId) -> &mut Self {
        self.u32(v.0)
    }

    pub fn table_id(&mut self, v: TableId) -> &mut Self {
        self.u32(v.0)
    }

    pub fn rid(&mut self, v: Rid) -> &mut Self {
        v.encode_into(&mut self.buf);
        self
    }

    /// Length-prefixed (u16) byte string. Panics if longer than u16::MAX,
    /// which page-capacity checks make impossible for legitimate payloads.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= u16::MAX as usize, "bytes field too long");
        self.u16(v.len() as u16);
        self.buf.extend_from_slice(v);
        self
    }

    /// Raw bytes with no prefix (caller knows the length from elsewhere).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }
}

/// Cursor-style reader matching [`Writer`]. Every method returns
/// `Error::CorruptLog`-shaped failures via [`Error::Internal`]-free paths:
/// the caller wraps short reads in its own context.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Internal(format!(
                "decode underrun: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Bounds-checked fixed-size read: the length check lives in [`take`], so
    /// the array conversion cannot fail and no `unwrap` is needed.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_n()?))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    pub fn lsn(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.u64()?))
    }

    pub fn page_id(&mut self) -> Result<PageId> {
        Ok(PageId(self.u32()?))
    }

    pub fn txn_id(&mut self) -> Result<TxnId> {
        Ok(TxnId(self.u64()?))
    }

    pub fn index_id(&mut self) -> Result<IndexId> {
        Ok(IndexId(self.u32()?))
    }

    pub fn table_id(&mut self) -> Result<TableId> {
        Ok(TableId(self.u32()?))
    }

    pub fn rid(&mut self) -> Result<Rid> {
        let s = self.take(Rid::WIRE_LEN)?;
        Rid::decode(s).ok_or_else(|| Error::Internal("rid decode".into()))
    }

    /// Length-prefixed byte string written by [`Writer::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u16()? as usize;
        self.take(len)
    }

    /// All remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

/// Copy `N` little-endian bytes at `off` into an array. Indexing panics on an
/// out-of-range offset exactly like a slice would — the point is that the
/// array conversion itself is infallible, so callers reading fixed header
/// offsets need no `unwrap`/`expect` on the parse.
fn le_at<const N: usize>(b: &[u8], off: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&b[off..off + N]);
    a
}

/// `u16` at a fixed offset (page headers, frame headers).
pub fn u16_at(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(le_at(b, off))
}

/// `u32` at a fixed offset.
pub fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(le_at(b, off))
}

/// `u64` at a fixed offset.
pub fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(le_at(b, off))
}

/// Reflected CRC-32C (Castagnoli) polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC step of one byte `b`,
/// and `CRC_TABLES[k][b]` is that byte's contribution `k` bytes further back,
/// so eight table lookups consume eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC32C_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32C of `data`. It frames every log record, so that restart can tell
/// "end of log" from a torn tail, and every log read and restart pass runs it
/// over each frame, so it must run at memory speed: it uses the SSE4.2
/// `crc32` instruction where the CPU has it, and slicing-by-8 tables
/// elsewhere. Both give the same checksum.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extend `crc`, the CRC-32C of some bytes `a`, to the CRC-32C of `a`
/// followed by `data`: `crc32c_append(crc32c(a), b) == crc32c(a ++ b)`, and
/// `crc32c_append(0, b) == crc32c(b)`. This checksums a record's envelope
/// and body without concatenating them.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` requires SSE4.2, which the CPU was just
        // found to have.
        return unsafe { crc32c_sse42(crc, data) };
    }
    crc32c_tables(crc, data)
}

/// [`crc32c_append`] on the SSE4.2 `crc32` instruction, eight bytes a step.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u64::from(!crc);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        c = _mm_crc32_u64(c, word);
    }
    // The instruction leaves the upper half zero: the state is 32 bits.
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// [`crc32c_append`] on the slicing-by-8 tables, for any CPU.
fn crc32c_tables(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotNo;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .lsn(Lsn(42))
            .page_id(PageId(9))
            .txn_id(TxnId(3))
            .index_id(IndexId(1))
            .table_id(TableId(2))
            .rid(Rid::new(PageId(5), 6))
            .bytes(b"hello")
            .raw(b"tail");
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.lsn().unwrap(), Lsn(42));
        assert_eq!(r.page_id().unwrap(), PageId(9));
        assert_eq!(r.txn_id().unwrap(), TxnId(3));
        assert_eq!(r.index_id().unwrap(), IndexId(1));
        assert_eq!(r.table_id().unwrap(), TableId(2));
        let rid = r.rid().unwrap();
        assert_eq!(rid.page, PageId(5));
        assert_eq!(rid.slot, SlotNo(6));
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.rest(), b"tail");
        assert!(r.is_empty());
    }

    #[test]
    fn underrun_is_error_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
    }

    #[test]
    fn bytes_underrun_in_body_is_error() {
        // Prefix claims 10 bytes, only 2 present.
        let mut w = Writer::new();
        w.u16(10).raw(&[1, 2]);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert!(r.bytes().is_err());
    }

    /// The bitwise CRC-32C, one shift/xor step per bit: the test oracle.
    fn crc32c_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32C_POLY & mask);
            }
        }
        !crc
    }

    /// `data`'s CRC-32C by every path this CPU can run, each called
    /// directly: the dispatching entry point, the tables, and SSE4.2.
    fn crc_by_every_path(data: &[u8]) -> Vec<u32> {
        let mut crcs = vec![crc32c(data), crc32c_tables(0, data)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was just detected.
            crcs.push(unsafe { crc32c_sse42(0, data) });
        }
        crcs
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix B.4, then the common check value.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
            (b"", 0),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c_bitwise(data), want, "oracle on {data:?}");
            for got in crc_by_every_path(data) {
                assert_eq!(got, want, "{data:?}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32c_equals_bitwise_oracle(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..9_008),
            start in 0usize..8,
        ) {
            // Unaligned starts: both word loops read 8-byte words from
            // wherever the slice begins.
            let data = &bytes[start.min(bytes.len())..];
            let want = crc32c_bitwise(data);
            for got in crc_by_every_path(data) {
                proptest::prop_assert_eq!(got, want);
            }
        }

        #[test]
        fn crc32c_append_split_anywhere_equals_one_shot(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            cut in 0usize..600,
        ) {
            let (a, b) = bytes.split_at(cut.min(bytes.len()));
            proptest::prop_assert_eq!(crc32c_append(crc32c(a), b), crc32c(&bytes));
            proptest::prop_assert_eq!(crc32c_append(0, &bytes), crc32c(&bytes));
        }
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let mut data = b"some log record payload".to_vec();
        let c1 = crc32c(&data);
        data[3] ^= 0x40;
        assert_ne!(c1, crc32c(&data));
    }
}
