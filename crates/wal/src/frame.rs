//! On-disk log framing.
//!
//! Each record is stored as `[len: u32][crc32c(body): u32][body]`. The CRC
//! lets restart distinguish a *torn tail* (a record that was being written
//! when the system crashed) from a clean end of log: scanning stops at the
//! first frame that is incomplete, zero-length, or fails its checksum, and
//! everything before that point is trusted.
//!
//! The LSN of a record is the byte offset of its frame in the log file, so
//! LSNs are dense, monotonic, and directly seekable.
//!
//! A frame is built in place at the end of the log image: the appender
//! computes its header with [`frame_header`] and pushes header, record
//! envelope and RM body straight onto the image, with no frame buffer of
//! its own.

use ariesim_common::codec::{crc32c, crc32c_append};
use ariesim_common::{Lsn, Result};

/// Bytes of framing overhead per record.
pub const FRAME_HEADER_LEN: usize = 8;

/// Log file magic: identifies the file and its format version.
pub const LOG_MAGIC: &[u8; 16] = b"ARIESIM-LOG-v02\0";

/// First valid LSN: records start right after the file magic. Conveniently
/// nonzero, so [`Lsn::NULL`] never collides with a real record.
pub const FIRST_LSN: Lsn = Lsn(LOG_MAGIC.len() as u64);

/// Header of the frame whose body is `parts` in order: length, then CRC.
pub fn frame_header(parts: &[&[u8]]) -> [u8; FRAME_HEADER_LEN] {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let crc = parts.iter().fold(0, |crc, p| crc32c_append(crc, p));
    (u64::from(crc) << 32 | u64::from(len as u32)).to_le_bytes()
}

/// Total on-disk size of a record with the given body length.
pub fn frame_len(body_len: usize) -> u64 {
    (FRAME_HEADER_LEN + body_len) as u64
}

/// Outcome of attempting to read one frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A valid frame: the body and the LSN of the *next* frame.
    Ok { body: &'a [u8], next: Lsn },
    /// End of the trustworthy log: truncated header/body, zero length, or
    /// checksum mismatch. `at` is where the log effectively ends.
    End { at: Lsn },
}

/// Parse the frame at offset `at` within `buf`, where `buf` is the whole log
/// image and `at` is an absolute LSN.
pub fn read_frame(buf: &[u8], at: Lsn) -> Result<FrameRead<'_>> {
    let off = at.0 as usize;
    if off + FRAME_HEADER_LEN > buf.len() {
        return Ok(FrameRead::End { at });
    }
    let len = ariesim_common::codec::u32_at(buf, off) as usize;
    if len == 0 {
        return Ok(FrameRead::End { at });
    }
    let want_crc = ariesim_common::codec::u32_at(buf, off + 4);
    let body_start = off + FRAME_HEADER_LEN;
    if body_start + len > buf.len() {
        return Ok(FrameRead::End { at });
    }
    let body = &buf[body_start..body_start + len];
    if crc32c(body) != want_crc {
        return Ok(FrameRead::End { at });
    }
    Ok(FrameRead::Ok {
        body,
        next: Lsn(at.0 + frame_len(len)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(bodies: &[&[u8]]) -> Vec<u8> {
        let mut buf = LOG_MAGIC.to_vec();
        for b in bodies {
            buf.extend_from_slice(&frame_header(&[b]));
            buf.extend_from_slice(b);
        }
        buf
    }

    #[test]
    fn sequential_read() {
        let buf = log_with(&[b"first", b"second record"]);
        let FrameRead::Ok { body, next } = read_frame(&buf, FIRST_LSN).unwrap() else {
            panic!("expected frame");
        };
        assert_eq!(body, b"first");
        let FrameRead::Ok { body, next } = read_frame(&buf, next).unwrap() else {
            panic!("expected frame");
        };
        assert_eq!(body, b"second record");
        assert_eq!(read_frame(&buf, next).unwrap(), FrameRead::End { at: next });
    }

    #[test]
    fn torn_tail_header() {
        let mut buf = log_with(&[b"complete"]);
        let end = Lsn(buf.len() as u64);
        buf.extend_from_slice(&[42, 0, 0]); // 3 bytes of a 4-byte length
        assert_eq!(read_frame(&buf, end).unwrap(), FrameRead::End { at: end });
    }

    #[test]
    fn torn_tail_body() {
        let mut buf = log_with(&[b"complete", b"this record was cut short"]);
        let end = Lsn(FIRST_LSN.0 + frame_len(b"complete".len()));
        buf.truncate(buf.len() - 5);
        assert_eq!(read_frame(&buf, end).unwrap(), FrameRead::End { at: end });
    }

    #[test]
    fn corrupt_body_fails_crc() {
        let mut buf = log_with(&[b"will be corrupted"]);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert_eq!(
            read_frame(&buf, FIRST_LSN).unwrap(),
            FrameRead::End { at: FIRST_LSN }
        );
    }

    #[test]
    fn zero_len_is_end() {
        let mut buf = log_with(&[]);
        buf.extend_from_slice(&[0u8; 16]); // preallocated zeroed region
        assert_eq!(
            read_frame(&buf, FIRST_LSN).unwrap(),
            FrameRead::End { at: FIRST_LSN }
        );
    }

    #[test]
    fn lsn_arithmetic_matches_frame_len() {
        let buf = log_with(&[b"abc"]);
        let FrameRead::Ok { next, .. } = read_frame(&buf, FIRST_LSN).unwrap() else {
            panic!()
        };
        assert_eq!(next.0, FIRST_LSN.0 + frame_len(3));
    }
}
