//! Length-prefixed framed encoding of [`Payload`]s for the TCP mesh.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +----------+----------+------------------------------+
//! | u32 len  | u32 crc  |  body (len bytes)            |
//! +----------+----------+------------------------------+
//! body = [u8 frame kind] [rest]
//!   kind 0 (MSG): rest = [u64 tag] [payload]
//!   kind 1 (FIN): rest is empty (graceful shutdown marker)
//! payload = [u8 payload kind] [fields...]
//!   0 Tensor : [u32 ndim][u32 dim]*ndim [f32 data]*prod(dims)
//!   1 Slices : [u64 dense_rows][u32 count][u64 index]*count [tensor]
//!   2 Floats : [u32 len][f32]*len
//!   3 Words  : [u32 len][u16]*len
//!   4 Packed : [u64 dense_rows][u32 count][u32 ib_len][u8 ib]*ib_len [tensor]
//!   5 Ids    : [u32 len][u64]*len
//!   6 Control: [u64]
//!   7 Packet : [u64 header][payload]        (nested, depth-capped)
//! ```
//!
//! The `comm::wire` encodings travel *unchanged*: a `Words` payload
//! carries the same f16/bf16 words, a `Packed` payload the same
//! varint index bytes, that the in-process router moves by `Arc` — so
//! `Payload::byte_size`, and with it all three byte ledgers, is
//! identical on both sides of the socket. The frame header (9 bytes +
//! tag) is transport envelope, not payload, and is deliberately *not*
//! charged: the ledgers account payload bytes, exactly as in-process.
//!
//! Decoding treats the bytes as untrusted: every length is validated
//! against both the [`MAX_FRAME_BODY`] cap and the bytes actually
//! present before any allocation, and every failure is a typed
//! [`FrameError`] — never a panic, never an allocation larger than the
//! (capped, already-read) body.

use std::io::{Read, Write};
use std::sync::Arc;

use parallax_comm::wire::PackedSlices;
use parallax_comm::Payload;
use parallax_tensor::{crc32, IndexedSlices, Tensor};

use crate::error::FrameError;

/// Hard cap on a frame body. Far above any payload the tiny presets
/// move (the largest is a full embedding tensor, well under a MiB) yet
/// small enough that a corrupted length field cannot drive an
/// unbounded allocation.
pub const MAX_FRAME_BODY: u64 = 64 * 1024 * 1024;

/// Packet payloads nest through `Box<Payload>`; protocol layers use one
/// level. Anything deeper is corruption.
const MAX_DEPTH: u8 = 4;

const KIND_MSG: u8 = 0;
const KIND_FIN: u8 = 1;

const PAYLOAD_TENSOR: u8 = 0;
const PAYLOAD_SLICES: u8 = 1;
const PAYLOAD_FLOATS: u8 = 2;
const PAYLOAD_WORDS: u8 = 3;
const PAYLOAD_PACKED: u8 = 4;
const PAYLOAD_IDS: u8 = 5;
const PAYLOAD_CONTROL: u8 = 6;
const PAYLOAD_PACKET: u8 = 7;

/// A decoded frame.
#[derive(Debug)]
pub enum Frame {
    /// A routed message.
    Msg {
        /// Message tag.
        tag: u64,
        /// The payload.
        payload: Payload,
    },
    /// The peer's graceful-shutdown marker: no further frames follow.
    Fin,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let dims = t.shape().dims();
    put_u32(out, dims.len() as u32);
    for &d in dims {
        put_u32(out, d as u32);
    }
    for &x in t.data() {
        put_u32(out, x.to_bits());
    }
}

/// Encodes a payload into `out` (appends). Depth is pre-validated by
/// the caller; encoding our own payloads cannot fail.
fn put_payload(out: &mut Vec<u8>, p: &Payload) {
    match p {
        Payload::Tensor(t) => {
            out.push(PAYLOAD_TENSOR);
            put_tensor(out, t);
        }
        Payload::Slices(s) => {
            out.push(PAYLOAD_SLICES);
            put_u64(out, s.dense_rows() as u64);
            put_u32(out, s.indices().len() as u32);
            for &i in s.indices() {
                put_u64(out, i as u64);
            }
            put_tensor(out, s.values());
        }
        Payload::Floats(fs) => {
            out.push(PAYLOAD_FLOATS);
            put_u32(out, fs.len() as u32);
            for &x in fs.iter() {
                put_u32(out, x.to_bits());
            }
        }
        Payload::Words(ws) => {
            out.push(PAYLOAD_WORDS);
            put_u32(out, ws.len() as u32);
            for &w in ws.iter() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        Payload::Packed(ps) => {
            out.push(PAYLOAD_PACKED);
            put_u64(out, ps.dense_rows() as u64);
            put_u32(out, ps.count() as u32);
            put_u32(out, ps.index_bytes().len() as u32);
            out.extend_from_slice(ps.index_bytes());
            put_tensor(out, ps.values());
        }
        Payload::Ids(ids) => {
            out.push(PAYLOAD_IDS);
            put_u32(out, ids.len() as u32);
            for &i in ids {
                put_u64(out, i as u64);
            }
        }
        Payload::Control(c) => {
            out.push(PAYLOAD_CONTROL);
            put_u64(out, *c);
        }
        Payload::Packet { header, body } => {
            out.push(PAYLOAD_PACKET);
            put_u64(out, *header);
            put_payload(out, body);
        }
    }
}

/// Encodes one message frame (header + body) into a fresh buffer.
pub fn encode_msg(tag: u64, payload: &Payload) -> Vec<u8> {
    let mut body = Vec::with_capacity(payload.byte_size() as usize + 16);
    body.push(KIND_MSG);
    put_u64(&mut body, tag);
    put_payload(&mut body, payload);
    finish(body)
}

/// Encodes the FIN frame.
pub fn encode_fin() -> Vec<u8> {
    finish(vec![KIND_FIN])
}

fn finish(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    put_u32(&mut out, body.len() as u32);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `count`-element array of `elem_bytes`-wide elements,
    /// checking the bytes are actually present *before* allocating —
    /// the declared count can never drive an allocation larger than
    /// the (already capped) body.
    fn checked_len(&self, count: usize, elem_bytes: usize) -> Result<usize, FrameError> {
        let total = count
            .checked_mul(elem_bytes)
            .ok_or(FrameError::Malformed("length overflow"))?;
        if self.remaining() < total {
            return Err(FrameError::Truncated);
        }
        Ok(total)
    }

    fn f32_vec(&mut self, count: usize) -> Result<Vec<f32>, FrameError> {
        self.checked_len(count, 4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(f32::from_bits(self.u32()?));
        }
        Ok(out)
    }

    fn usize_vec(&mut self, count: usize) -> Result<Vec<usize>, FrameError> {
        self.checked_len(count, 8)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let v = self.u64()?;
            if v > usize::MAX as u64 {
                return Err(FrameError::Malformed("index exceeds usize"));
            }
            out.push(v as usize);
        }
        Ok(out)
    }

    fn tensor(&mut self) -> Result<Tensor, FrameError> {
        let ndim = self.u32()? as usize;
        if ndim > 8 {
            return Err(FrameError::Malformed("tensor rank above 8"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut elems: usize = 1;
        for _ in 0..ndim {
            let d = self.u32()? as usize;
            elems = elems
                .checked_mul(d)
                .ok_or(FrameError::Malformed("tensor element-count overflow"))?;
            dims.push(d);
        }
        let data = self.f32_vec(elems)?;
        Tensor::new(dims, data).map_err(|_| FrameError::Malformed("tensor shape/data mismatch"))
    }
}

fn decode_payload(c: &mut Cursor<'_>, depth: u8) -> Result<Payload, FrameError> {
    if depth > MAX_DEPTH {
        return Err(FrameError::DepthExceeded);
    }
    let kind = c.u8()?;
    let p = match kind {
        PAYLOAD_TENSOR => Payload::Tensor(Arc::new(c.tensor()?)),
        PAYLOAD_SLICES => {
            let dense_rows = c.u64()? as usize;
            let count = c.u32()? as usize;
            let indices = c.usize_vec(count)?;
            let values = c.tensor()?;
            let slices = IndexedSlices::new(indices, values, dense_rows)
                .map_err(|_| FrameError::Malformed("slices indices/values mismatch"))?;
            Payload::Slices(Arc::new(slices))
        }
        PAYLOAD_FLOATS => {
            let len = c.u32()? as usize;
            Payload::Floats(Arc::new(c.f32_vec(len)?))
        }
        PAYLOAD_WORDS => {
            let len = c.u32()? as usize;
            c.checked_len(len, 2)?;
            let mut ws = Vec::with_capacity(len);
            for _ in 0..len {
                let b = c.take(2)?;
                ws.push(u16::from_le_bytes([b[0], b[1]]));
            }
            Payload::Words(Arc::new(ws))
        }
        PAYLOAD_PACKED => {
            let dense_rows = c.u64()? as usize;
            let count = c.u32()? as usize;
            let ib_len = c.u32()? as usize;
            let index_bytes = c.take(ib_len)?.to_vec();
            let values = c.tensor()?;
            let packed = PackedSlices::from_wire(values, index_bytes, count, dense_rows)
                .map_err(|_| FrameError::Malformed("packed slices failed validation"))?;
            Payload::Packed(Arc::new(packed))
        }
        PAYLOAD_IDS => {
            let len = c.u32()? as usize;
            Payload::Ids(c.usize_vec(len)?)
        }
        PAYLOAD_CONTROL => Payload::Control(c.u64()?),
        PAYLOAD_PACKET => {
            let header = c.u64()?;
            let body = decode_payload(c, depth + 1)?;
            Payload::Packet {
                header,
                body: Box::new(body),
            }
        }
        other => return Err(FrameError::BadKind(other)),
    };
    Ok(p)
}

/// Decodes one frame *body* (the bytes after the 8-byte header, whose
/// length and checksum have already been validated).
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor::new(body);
    match c.u8()? {
        KIND_FIN => {
            if c.remaining() != 0 {
                return Err(FrameError::Malformed("trailing bytes after FIN"));
            }
            Ok(Frame::Fin)
        }
        KIND_MSG => {
            let tag = c.u64()?;
            let payload = decode_payload(&mut c, 0)?;
            if c.remaining() != 0 {
                return Err(FrameError::Malformed("trailing bytes after payload"));
            }
            Ok(Frame::Msg { tag, payload })
        }
        other => Err(FrameError::BadKind(other)),
    }
}

/// Decodes one whole frame (header + body) from a byte slice — the
/// codec's pure entry point, shared by the stream reader and the
/// property tests.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::Truncated);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as u64;
    let expected = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if len > MAX_FRAME_BODY {
        return Err(FrameError::Oversize {
            len,
            max: MAX_FRAME_BODY,
        });
    }
    let body = bytes
        .get(8..8 + len as usize)
        .ok_or(FrameError::Truncated)?;
    let actual = crc32(body);
    if actual != expected {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    decode_body(body)
}

/// Writes one already-encoded frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame from a stream. `Ok(None)` is a clean EOF *between*
/// frames (the peer closed without FIN — a crash, which the caller
/// reports as peer death); EOF *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Result<Option<Frame>, FrameError>> {
    let mut header = [0u8; 8];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(Ok(None)),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_BODY {
        return Ok(Err(FrameError::Oversize {
            len,
            max: MAX_FRAME_BODY,
        }));
    }
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Ok(Err(FrameError::Truncated))
        }
        Err(e) => return Err(e),
    }
    let actual = crc32(&body);
    if actual != expected {
        return Ok(Err(FrameError::CrcMismatch { expected, actual }));
    }
    Ok(decode_body(&body).map(Some))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &Payload) -> Payload {
        let bytes = encode_msg(0x1234, p);
        match decode_frame(&bytes).expect("decodes") {
            Frame::Msg { tag, payload } => {
                assert_eq!(tag, 0x1234);
                payload
            }
            Frame::Fin => panic!("expected msg"),
        }
    }

    #[test]
    fn every_payload_kind_roundtrips_with_exact_byte_size() {
        let slices = IndexedSlices::new(vec![1, 5, 6], Tensor::zeros([3, 2]), 10).unwrap();
        let packed = PackedSlices::pack(&slices);
        let cases: Vec<Payload> = vec![
            Payload::Tensor(Arc::new(
                Tensor::new([2, 3], vec![1.0, -2.5, 0.0, f32::MIN, f32::MAX, -0.0]).unwrap(),
            )),
            Payload::Slices(Arc::new(slices)),
            Payload::Floats(Arc::new(vec![1.5, -2.25, 3.0])),
            Payload::Words(Arc::new(vec![0x3C00, 0x7FFF, 0])),
            Payload::Packed(Arc::new(packed)),
            Payload::Ids(vec![0, 7, 12345]),
            Payload::Control(0xDEAD_BEEF),
            Payload::Packet {
                header: 42,
                body: Box::new(Payload::Floats(Arc::new(vec![9.0]))),
            },
        ];
        for p in &cases {
            let back = roundtrip(p);
            // The accounted size must survive the wire exactly — this is
            // what keeps in-process and socket ledgers byte-identical.
            assert_eq!(back.byte_size(), p.byte_size(), "{p:?}");
            assert_eq!(format!("{back:?}"), format!("{p:?}"));
        }
    }

    #[test]
    fn fin_roundtrips() {
        let bytes = encode_fin();
        assert!(matches!(decode_frame(&bytes), Ok(Frame::Fin)));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_msg(7, &Payload::Floats(Arc::new(vec![1.0; 8])));
        for cut in [0, 4, 8, bytes.len() - 1] {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bit_flip_is_crc_mismatch() {
        let mut bytes = encode_msg(7, &Payload::Control(1));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn oversize_length_rejected_before_allocation() {
        let mut bytes = vec![0u8; 16];
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Oversize { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, MAX_FRAME_BODY);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn stream_reader_distinguishes_eof_between_and_inside_frames() {
        let bytes = encode_msg(1, &Payload::Control(2));
        // Clean EOF between frames.
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(Ok(None))));
        // EOF mid-frame.
        let mut cut: &[u8] = &bytes[..bytes.len() - 2];
        assert!(matches!(
            read_frame(&mut cut),
            Ok(Err(FrameError::Truncated))
        ));
        // Whole frame.
        let mut whole: &[u8] = &bytes;
        assert!(matches!(
            read_frame(&mut whole),
            Ok(Ok(Some(Frame::Msg { tag: 1, .. })))
        ));
    }
}
