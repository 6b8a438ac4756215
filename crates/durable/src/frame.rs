//! Record framing: `[len: u32 LE][crc32: u32 LE][payload]`.
//!
//! Every record appended to a segment is wrapped in this 8-byte header.
//! The CRC (CRC-32/IEEE, the Ethernet/zip polynomial) covers the payload
//! only; `len` covers the payload length. The writer serializes a record
//! directly behind eight placeholder bytes and [`seal`]s the header in
//! place, so a frame is built in one reused buffer.
//!
//! A reader walks frames from the start of a segment and stops at the
//! first inconsistency — a header that runs past the file, a payload cut
//! short, or a checksum mismatch. Everything before that point is
//! trusted; everything from it on is a *torn tail*: the prefix a crashed
//! writer managed to flush, plus whatever bytes the filesystem happened
//! to persist after it. Recovery truncates the torn tail of the **last**
//! segment (normal crash semantics — the record was never acknowledged)
//! and refuses anything torn in an earlier segment (sealed segments are
//! immutable, so damage there is real corruption, not a crash artifact).

/// Framed-record header length: `len` + `crc32`.
pub(crate) const HEADER: usize = 8;

/// CRC-32/IEEE slice-by-8 lookup tables, generated at compile time (the
/// container vendors no checksum crate). `CRC_TABLES[0]` is the classic
/// one-byte table; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, which lets eight input bytes fold into
/// the state with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte folded into the CRC state — the reference step the sliced
/// loop in [`crc32`] must agree with.
fn crc32_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize]
}

/// CRC-32/IEEE of `bytes` (reflected, init/xorout `0xffff_ffff`), eight
/// bytes per step with a bytewise tail.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = crc32_step(crc, byte);
    }
    !crc
}

/// Seals one frame in place: `frame` is [`HEADER`] placeholder bytes
/// followed by the payload, and the header is overwritten with the
/// payload's length and CRC. Writing the payload straight after the
/// placeholder lets an appender serialize into its frame buffer without
/// an intermediate payload string.
pub(crate) fn seal(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The framed length of a payload of `len` bytes.
pub(crate) fn framed_len(len: usize) -> u64 {
    (HEADER + len) as u64
}

/// Walks `bytes` frame by frame, yielding `(payload, framed_len)` for
/// every intact record and reporting where the clean prefix ends.
#[derive(Debug)]
pub(crate) struct FrameScan<'a> {
    /// Payload slices of the intact records, in file order.
    pub payloads: Vec<(&'a [u8], u64)>,
    /// File offset where the clean prefix ends. Equal to `bytes.len()`
    /// when every byte framed cleanly; anything after it is a torn tail.
    pub clean_len: u64,
}

impl FrameScan<'_> {
    /// True when the scan stopped before the end of the input.
    pub fn torn(&self, total: u64) -> bool {
        self.clean_len < total
    }
}

/// Scans a segment's bytes. Never fails: damage simply ends the clean
/// prefix, and the caller decides whether a torn tail is a crash artifact
/// (last segment) or corruption (sealed segment).
pub(crate) fn scan(bytes: &[u8]) -> FrameScan<'_> {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= HEADER {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let start = offset + HEADER;
        let Some(end) = start.checked_add(len as usize) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break;
        }
        payloads.push((payload, framed_len(len as usize)));
        offset = end;
    }
    FrameScan {
        payloads,
        clean_len: offset as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one framed record to `out` the way `SegmentLog::append`
    /// does: placeholder header, payload, seal.
    fn encode(payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; HEADER]);
        out.extend_from_slice(payload);
        seal(&mut out[start..]);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The sliced loop and its tail agree with one byte at a time at
    /// every length around the 8-byte chunking, on bytes with no
    /// structure the tables could be accidentally right for.
    #[test]
    fn sliced_crc32_equals_the_bytewise_loop_at_every_length() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buffer: Vec<u8> = (0..1024)
            .map(|_| {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for len in 0..=buffer.len() {
            let bytes = &buffer[..len];
            let bytewise = !bytes.iter().fold(0xffff_ffff, |crc, &b| crc32_step(crc, b));
            assert_eq!(crc32(bytes), bytewise, "length {len}");
        }
    }

    #[test]
    fn encode_then_scan_round_trips() {
        let mut buf = Vec::new();
        encode(b"alpha", &mut buf);
        encode(b"", &mut buf);
        encode(b"gamma-delta", &mut buf);
        let scan = scan(&buf);
        let got: Vec<&[u8]> = scan.payloads.iter().map(|(p, _)| *p).collect();
        assert_eq!(got, vec![&b"alpha"[..], &b""[..], &b"gamma-delta"[..]]);
        assert_eq!(scan.clean_len, buf.len() as u64);
        assert!(!scan.torn(buf.len() as u64));
    }

    #[test]
    fn torn_tail_ends_the_clean_prefix() {
        let mut buf = Vec::new();
        encode(b"kept", &mut buf);
        let clean = buf.len() as u64;

        // A record cut mid-payload.
        let mut cut = buf.clone();
        encode(b"lost-in-the-crash", &mut cut);
        cut.truncate(buf.len() + HEADER + 4);
        let s = scan(&cut);
        assert_eq!(s.payloads.len(), 1);
        assert_eq!(s.clean_len, clean);
        assert!(s.torn(cut.len() as u64));

        // A record with a corrupted byte fails its checksum.
        let mut flipped = buf.clone();
        encode(b"bit-rotted", &mut flipped);
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let s = scan(&flipped);
        assert_eq!(s.payloads.len(), 1);
        assert_eq!(s.clean_len, clean);

        // A header whose length field runs past the file.
        let mut overlong = buf.clone();
        overlong.extend_from_slice(&u32::MAX.to_le_bytes());
        overlong.extend_from_slice(&[0, 0, 0, 0]);
        let s = scan(&overlong);
        assert_eq!(s.clean_len, clean);

        // Fewer than HEADER bytes of garbage.
        let mut stub = buf;
        stub.extend_from_slice(&[1, 2, 3]);
        let s = scan(&stub);
        assert_eq!(s.clean_len, clean);
        assert!(s.torn(stub.len() as u64));
    }
}
