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

use std::io::{self, BufReader, Read};

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
/// an intermediate payload string. Returns the framed length, or `None`
/// — writing nothing — when it does not fit the header's `u32`.
pub(crate) fn seal(frame: &mut [u8]) -> Option<u32> {
    let framed = framed_len(frame.len().checked_sub(HEADER)?)?;
    let (header, payload) = frame.split_at_mut(HEADER);
    header[..4].copy_from_slice(&(framed - HEADER as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Some(framed)
}

/// The framed length of a payload of `len` bytes, if it fits a `u32`.
/// Every length the log keeps is one, so a record that does not fit is
/// refused rather than wrapped.
pub(crate) fn framed_len(len: usize) -> Option<u32> {
    u32::try_from(len.checked_add(HEADER)?).ok()
}

/// Read-buffer size of a [`Frames`] walker: one `read` serves hundreds
/// of records, and no segment sits in memory whole.
const READ_BUF: usize = 64 * 1024;

/// Walks one segment's frames through a fixed read buffer, yielding
/// every intact payload in file order. Never fails on damage: the first
/// inconsistency — a header that runs past the remaining bytes, a
/// payload cut short, or a checksum mismatch — ends the clean prefix,
/// and the caller decides whether a torn tail is a crash artifact (last
/// segment) or corruption (sealed segment). Only the reader's own I/O
/// errors are errors.
#[derive(Debug)]
pub(crate) struct Frames<R> {
    reader: BufReader<R>,
    /// Bytes of input the walker was told of.
    len: u64,
    /// Bytes of input consumed so far.
    read: u64,
    /// Where the clean prefix ends so far.
    clean_len: u64,
    /// The latest payload, in a buffer reused across records.
    payload: Vec<u8>,
}

impl<R: Read> Frames<R> {
    /// A walker over `len` bytes of `reader`.
    pub fn new(reader: R, len: u64) -> Self {
        Frames {
            reader: BufReader::with_capacity(READ_BUF, reader),
            len,
            read: 0,
            clean_len: 0,
            payload: Vec::new(),
        }
    }

    /// The next intact frame — its payload and framed length — or
    /// `None` once the clean prefix has ended (and at every call after).
    pub fn next_frame(&mut self) -> io::Result<Option<(&[u8], u32)>> {
        if self.read != self.clean_len || self.len - self.read < HEADER as u64 {
            return Ok(None);
        }
        let mut header = [0; HEADER];
        if !self.fill(&mut header)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let Some(framed) = framed_len(len as usize) else {
            return Ok(None);
        };
        if u64::from(len) > self.len - self.read {
            return Ok(None);
        }
        let mut payload = std::mem::take(&mut self.payload);
        payload.resize(len as usize, 0);
        let intact = self.fill(&mut payload)? && crc32(&payload) == crc;
        self.payload = payload;
        if !intact {
            return Ok(None);
        }
        self.clean_len = self.read;
        Ok(Some((&self.payload, framed)))
    }

    /// Reads exactly `out.len()` bytes, or answers `false` when the
    /// input ends first.
    fn fill(&mut self, out: &mut [u8]) -> io::Result<bool> {
        match self.reader.read_exact(out) {
            Ok(()) => {
                self.read += out.len() as u64;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.read = self.len;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Where the clean prefix ends: the input's length when every byte
    /// so far framed cleanly; anything after it is a torn tail.
    pub fn clean_len(&self) -> u64 {
        self.clean_len
    }

    /// Bytes of input the walker was told of.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the walk has stopped before the end of the input (read
    /// once [`next_frame`](Frames::next_frame) has answered `None`).
    pub fn torn(&self) -> bool {
        self.clean_len < self.len
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

    /// The intact payloads of a walk with their framed lengths, and the
    /// walker that stopped.
    type Walked<'a> = (Vec<(Vec<u8>, u32)>, Frames<&'a [u8]>);

    /// Walks `bytes` to the end of their clean prefix.
    fn walk(bytes: &[u8]) -> Walked<'_> {
        let mut frames = Frames::new(bytes, bytes.len() as u64);
        let mut payloads = Vec::new();
        while let Some((payload, len)) = frames.next_frame().expect("a slice reads") {
            payloads.push((payload.to_vec(), len));
        }
        (payloads, frames)
    }

    #[test]
    fn encode_then_walk_round_trips() {
        let mut buf = Vec::new();
        encode(b"alpha", &mut buf);
        encode(b"", &mut buf);
        encode(b"gamma-delta", &mut buf);
        let (payloads, frames) = walk(&buf);
        let got: Vec<&[u8]> = payloads.iter().map(|(p, _)| &p[..]).collect();
        assert_eq!(got, vec![&b"alpha"[..], &b""[..], &b"gamma-delta"[..]]);
        let lens: Vec<u32> = payloads.iter().map(|&(_, len)| len).collect();
        assert_eq!(lens, vec![13, 8, 19]);
        assert_eq!(frames.clean_len(), buf.len() as u64);
        assert!(!frames.torn());
    }

    /// A payload longer than the read buffer crosses several refills
    /// and still arrives whole.
    #[test]
    fn a_frame_longer_than_the_read_buffer_walks_whole() {
        let long: Vec<u8> = (0..3 * READ_BUF + 5).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        encode(b"head", &mut buf);
        encode(&long, &mut buf);
        encode(b"tail", &mut buf);
        let (payloads, frames) = walk(&buf);
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads[1].0, long);
        assert_eq!(&payloads[2].0[..], b"tail");
        assert!(!frames.torn());
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
        let (payloads, frames) = walk(&cut);
        assert_eq!(payloads.len(), 1);
        assert_eq!(frames.clean_len(), clean);
        assert!(frames.torn());

        // A record with a corrupted byte fails its checksum.
        let mut flipped = buf.clone();
        encode(b"bit-rotted", &mut flipped);
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let (payloads, frames) = walk(&flipped);
        assert_eq!(payloads.len(), 1);
        assert_eq!(frames.clean_len(), clean);

        // A header whose length field runs past the file; the walker
        // stops at the header and allocates nothing for the payload.
        let mut overlong = buf.clone();
        overlong.extend_from_slice(&u32::MAX.to_le_bytes());
        overlong.extend_from_slice(&[0, 0, 0, 0]);
        let (payloads, frames) = walk(&overlong);
        assert_eq!(frames.clean_len(), clean);
        assert_eq!(payloads.len(), 1);
        assert!(
            frames.payload.capacity() < 64,
            "an overlong header allocated"
        );

        // Fewer than HEADER bytes of garbage.
        let mut stub = buf;
        stub.extend_from_slice(&[1, 2, 3]);
        let (_, frames) = walk(&stub);
        assert_eq!(frames.clean_len(), clean);
        assert!(frames.torn());
    }

    /// A frame's length must fit the header's `u32`, and so the
    /// index's: one byte past it is refused, not wrapped.
    #[test]
    fn a_frame_that_does_not_fit_a_u32_is_refused() {
        let limit = u32::MAX as usize - HEADER;
        assert_eq!(framed_len(0), Some(HEADER as u32));
        assert_eq!(framed_len(limit), Some(u32::MAX));
        assert_eq!(framed_len(limit + 1), None);
        assert_eq!(framed_len(u32::MAX as usize + 1), None);
        assert_eq!(framed_len(usize::MAX), None);
        assert_eq!(seal(&mut [0; HEADER - 1]), None);
    }

    /// Every cut of a frame walks to the same clean prefix: the frames
    /// wholly before the cut.
    #[test]
    fn every_cut_ends_at_the_last_whole_frame() {
        let mut buf = Vec::new();
        let mut ends = vec![0];
        for payload in [&b"one"[..], b"", b"three-three"] {
            encode(payload, &mut buf);
            ends.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
            let (payloads, frames) = walk(&buf[..cut]);
            assert_eq!(payloads.len(), whole, "cut {cut}");
            assert_eq!(frames.clean_len(), ends[whole] as u64, "cut {cut}");
            assert_eq!(frames.torn(), cut != ends[whole], "cut {cut}");
        }
    }
}
