//! Message envelopes.
//!
//! Every Converse message is an envelope — destination PE, handler id,
//! payload — serialized to a flat byte buffer before it enters a machine
//! layer, exactly as Charm++ messages are contiguous buffers the runtime
//! owns. The machine layers move [`bytes::Bytes`]; this module is the only
//! place that knows the wire layout.

use bytes::Bytes;

/// Processing element (core) index within the job.
pub type PeId = u32;

/// Converse handler index, assigned by [`crate::cluster::Cluster::register_handler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub u16);

/// Fixed envelope header size on the wire (bytes). Matches the order of
/// magnitude of Converse's envelope; what matters for the experiments is
/// that small application payloads still pay a realistic header.
pub const HEADER_BYTES: usize = 32;

const MAGIC: u16 = 0xC4A7;

/// Longest payload [`Envelope::encode`] copies into the wire block when
/// the envelope is its only owner; the copy is assembled in a stack array
/// of this size. It covers the AM layer's default batch (1 KiB), whose
/// pooled vector comes back only if it was copied. A longer payload is
/// shared whoever owns it, so no `memcpy` grows with the message.
const INLINE_WIRE: usize = 1024;

/// Longest payload [`Envelope::encode`] always copies: no larger than what
/// a chain stores in the block in its place (the payload's handle, the
/// lazy flatten, the head's length), so the copy costs no memory. Derived
/// from the chain's layout, not tuned.
const COPY_MAX: usize = bytes::CHAIN_BOOKKEEPING;

const _: () = assert!(HEADER_BYTES <= bytes::CHAIN_HEAD);

/// Default message priority (midpoint; smaller values run first, as in
/// Charm++'s prioritized execution).
pub(crate) const DEFAULT_PRIO: u16 = u16::MAX / 2;

/// A runtime message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub src_pe: PeId,
    pub(crate) dst_pe: PeId,
    pub handler: HandlerId,
    /// Scheduling priority: smaller runs first; FIFO within a priority.
    pub(crate) priority: u16,
    /// Membership epoch the message was sent in. Rolls forward on every
    /// crash recovery; the driver discards messages from earlier epochs so
    /// rollback-replay stays exactly-once. Always 0 when fault tolerance is
    /// off — the wire bytes are then identical to the pre-epoch format
    /// (this field occupies previously zero-padded header bytes).
    pub(crate) epoch: u32,
    pub payload: Bytes,
}

impl Envelope {
    pub fn new(src_pe: PeId, dst_pe: PeId, handler: HandlerId, payload: Bytes) -> Self {
        Envelope {
            src_pe,
            dst_pe,
            handler,
            priority: DEFAULT_PRIO,
            epoch: 0,
            payload,
        }
    }

    pub(crate) fn with_priority(mut self, priority: u16) -> Self {
        self.priority = priority;
        self
    }

    pub(crate) fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// Serialize to the wire format: one heap block either way, and the
    /// wire *contents* are the same either way.
    ///
    /// The payload is **copied** behind the header, from a stack array
    /// into one block that also holds the reference counts
    /// ([`Bytes::copy_from_slice`]), when the copy costs no memory: the
    /// payload is no longer than `COPY_MAX` (72 B on a 64-bit target), or
    /// it is at most `INLINE_WIRE` (1 KiB) and this envelope is its only
    /// owner ([`Bytes::is_unique`]), so the original is freed with the
    /// envelope (and an AM batch vector goes back to its pool). Otherwise
    /// the payload is **shared**: the sender still holds it (kNeighbor's
    /// one buffer, a multicast), or it is longer than `INLINE_WIRE`.
    /// [`Bytes::chained`] puts the header inline in one block with the
    /// counts and the payload's handle, so the wire buffer aliases the
    /// sender's allocation and the machine layers move it without ever
    /// copying the payload host-side. Either way a cold header read is
    /// one miss.
    pub fn encode(&self) -> Bytes {
        let n = self.payload.len();
        if n <= COPY_MAX || (n <= INLINE_WIRE && self.payload.is_unique()) {
            let mut wire = [0u8; HEADER_BYTES + INLINE_WIRE];
            wire[..HEADER_BYTES].copy_from_slice(&self.header());
            wire[HEADER_BYTES..HEADER_BYTES + n].copy_from_slice(&self.payload);
            return Bytes::copy_from_slice(&wire[..HEADER_BYTES + n]);
        }
        Bytes::chained(&self.header(), self.payload.clone())
    }

    /// The fixed header of this envelope's wire format: magic, then every
    /// field but the payload, big-endian, zero-padded to [`HEADER_BYTES`].
    pub(crate) fn header(&self) -> [u8; HEADER_BYTES] {
        let mut h = [0u8; HEADER_BYTES];
        h[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        h[2..4].copy_from_slice(&self.handler.0.to_be_bytes());
        h[4..8].copy_from_slice(&self.src_pe.to_be_bytes());
        h[8..12].copy_from_slice(&self.dst_pe.to_be_bytes());
        h[12..16].copy_from_slice(&(self.payload.len() as u32).to_be_bytes());
        h[16..18].copy_from_slice(&self.priority.to_be_bytes());
        h[18..22].copy_from_slice(&self.epoch.to_be_bytes());
        h
    }

    /// Deserialize from the wire format, consuming the buffer: the payload
    /// is the same handle narrowed past the header, so a contiguous
    /// message costs no reference-count traffic and a chained one keeps
    /// aliasing the sender's payload allocation. Panics on a malformed
    /// buffer — that is always a machine-layer bug, not an input condition.
    pub fn from_wire(mut buf: Bytes) -> Envelope {
        let h = Self::peek(&buf);
        buf.advance(HEADER_BYTES);
        Envelope {
            src_pe: h.src_pe,
            dst_pe: h.dst_pe,
            handler: h.handler,
            priority: h.priority,
            epoch: h.epoch,
            payload: buf,
        }
    }

    /// [`Envelope::from_wire`] for a caller that keeps its buffer.
    pub fn decode(buf: &Bytes) -> Envelope {
        Self::from_wire(buf.clone())
    }

    /// Read and validate the header of an encoded envelope in place (the
    /// scheduler gates a delivery on this without decoding it). Panics on
    /// a malformed buffer, like [`Envelope::from_wire`].
    #[inline]
    pub(crate) fn peek(buf: &Bytes) -> Header {
        Header::read(buf).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The fixed header of an encoded envelope: every [`Envelope`] field but
/// the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) src_pe: PeId,
    pub(crate) dst_pe: PeId,
    pub(crate) handler: HandlerId,
    pub(crate) priority: u16,
    pub(crate) epoch: u32,
}

/// Why a wire buffer is not an encoded envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Malformed {
    Short(usize),
    Magic(u16),
    Length { wire: usize, header: usize },
}

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Malformed::Short(len) => write!(f, "short envelope: {len}"),
            Malformed::Magic(magic) => write!(f, "corrupt envelope magic {magic:#x}"),
            Malformed::Length { wire, header } => {
                write!(
                    f,
                    "envelope length mismatch: wire {wire} vs header {header}"
                )
            }
        }
    }
}

impl Header {
    /// The one header read: in place (a chained wire buffer is never
    /// flattened for it) and validated — length, magic, and the payload
    /// length the header announces against the buffer's.
    #[inline]
    pub(crate) fn read(buf: &Bytes) -> Result<Header, Malformed> {
        let Some(h) = buf.first_chunk::<HEADER_BYTES>() else {
            return Err(Malformed::Short(buf.len()));
        };
        let u16_at = |i: usize| u16::from_be_bytes([h[i], h[i + 1]]);
        let u32_at = |i: usize| u32::from_be_bytes([h[i], h[i + 1], h[i + 2], h[i + 3]]);
        if u16_at(0) != MAGIC {
            return Err(Malformed::Magic(u16_at(0)));
        }
        let header = HEADER_BYTES + u32_at(12) as usize;
        if buf.len() != header {
            let wire = buf.len();
            return Err(Malformed::Length { wire, header });
        }
        Ok(Header {
            src_pe: u32_at(4),
            dst_pe: u32_at(8),
            handler: HandlerId(u16_at(2)),
            priority: u16_at(16),
            epoch: u32_at(18),
        })
    }
}

/// Little-endian helpers for app payloads: the apps in this workspace pack
/// small plain-old-data structs into payload bytes with these.
pub mod wire {
    use bytes::{BufMut, Bytes, BytesMut};

    pub fn pack_u64s(vals: &[u64]) -> Bytes {
        let mut b = BytesMut::with_capacity(vals.len() * 8);
        for v in vals {
            b.put_u64_le(*v);
        }
        b.freeze()
    }

    pub fn unpack_u64(buf: &[u8], idx: usize) -> u64 {
        let o = idx * 8;
        u64::from_le_bytes(buf[o..o + 8].try_into().expect("short payload"))
    }

    pub fn unpack_f64(buf: &[u8], idx: usize) -> f64 {
        let o = idx * 8;
        f64::from_le_bytes(buf[o..o + 8].try_into().expect("short payload"))
    }

    pub fn f64_count(buf: &[u8]) -> usize {
        buf.len() / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let e = Envelope::new(3, 17, HandlerId(9), Bytes::from_static(b"payload!"));
        let wire = e.encode();
        assert_eq!(wire.len(), HEADER_BYTES + e.payload.len());
        let d = Envelope::decode(&wire);
        assert_eq!(d, e);
    }

    #[test]
    fn large_payload_round_trips_zero_copy() {
        let payload = Bytes::from(vec![7u8; 4 * INLINE_WIRE]);
        let e = Envelope::new(1, 2, HandlerId(3), payload.clone());
        let wire = e.encode();
        assert_eq!(wire.len(), HEADER_BYTES + e.payload.len());
        let d = Envelope::decode(&wire);
        assert_eq!(d, e);
        // The decoded payload aliases the sender's allocation: encode
        // chained it behind the header and decode sliced it back out.
        assert_eq!(d.payload.as_ptr(), payload.as_ptr());
        // A flattened view of the whole wire buffer still reads correctly.
        assert_eq!(&wire[HEADER_BYTES..HEADER_BYTES + 4], &[7, 7, 7, 7]);
    }

    #[test]
    fn empty_payload_round_trip() {
        let e = Envelope::new(0, 0, HandlerId(0), Bytes::new());
        let d = Envelope::decode(&e.encode());
        assert_eq!(d, e);
    }

    #[test]
    fn priority_survives_the_wire() {
        let e = Envelope::new(1, 2, HandlerId(3), Bytes::from_static(b"p")).with_priority(7);
        let d = Envelope::decode(&e.encode());
        assert_eq!(d.priority, 7);
        assert_eq!(d, e);
    }

    #[test]
    fn epoch_survives_the_wire_and_zero_matches_legacy_padding() {
        let e = Envelope::new(1, 2, HandlerId(3), Bytes::from_static(b"p")).with_epoch(5);
        let d = Envelope::decode(&e.encode());
        assert_eq!(d.epoch, 5);
        assert_eq!(d, e);
        // Epoch 0 occupies bytes that used to be header zero-padding: the
        // encoded buffer of a non-FT message is byte-identical to the
        // pre-epoch wire format.
        let legacy = Envelope::new(1, 2, HandlerId(3), Bytes::from_static(b"p"));
        let wire = legacy.encode();
        assert!(wire[18..HEADER_BYTES].iter().all(|&b| b == 0));
    }

    #[test]
    fn wire_layout_is_pinned() {
        // Magic 0xC4A7, big-endian fields, ten bytes of zero pad, payload.
        let e = Envelope::new(
            0x0102_0304,
            0x0506_0708,
            HandlerId(0x090A),
            Bytes::from_static(b"xyz"),
        )
        .with_priority(0x0B0C)
        .with_epoch(0x0D0E_0F10);
        #[rustfmt::skip]
        let golden: [u8; HEADER_BYTES + 3] = [
            0xC4, 0xA7,             // magic
            0x09, 0x0A,             // handler
            0x01, 0x02, 0x03, 0x04, // src_pe
            0x05, 0x06, 0x07, 0x08, // dst_pe
            0x00, 0x00, 0x00, 0x03, // payload length
            0x0B, 0x0C,             // priority
            0x0D, 0x0E, 0x0F, 0x10, // epoch
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            b'x', b'y', b'z',
        ];
        assert_eq!(&e.encode()[..], &golden);
        assert_eq!(e.header(), golden[..HEADER_BYTES]);
        // Above the inline limit the same header writer fills the chain's
        // inline head, in front of the payload; only the length differs.
        let big = Envelope {
            payload: Bytes::from(vec![b'x'; 0x0501]),
            ..e
        };
        let mut want = golden;
        want[12..16].copy_from_slice(&[0x00, 0x00, 0x05, 0x01]);
        let wire = big.encode();
        let head: &[u8; HEADER_BYTES] = wire.first_chunk().expect("a header");
        assert_eq!(head[..], want[..HEADER_BYTES]);
        assert_eq!(wire.len(), HEADER_BYTES + 0x0501);
    }

    #[test]
    fn peek_reads_the_header_in_place_and_from_wire_moves_the_buffer() {
        let payload = Bytes::from(vec![7u8; 4 * INLINE_WIRE]);
        let e = Envelope::new(1, 42, HandlerId(2), payload.clone())
            .with_priority(9)
            .with_epoch(4);
        let want = Header {
            src_pe: 1,
            dst_pe: 42,
            handler: HandlerId(2),
            priority: 9,
            epoch: 4,
        };
        // Chained: the payload is still the sender's allocation.
        let wire = e.encode();
        assert_eq!(Envelope::peek(&wire), want);
        let d = Envelope::from_wire(wire);
        assert_eq!(d, e);
        assert_eq!(d.payload.as_ptr(), payload.as_ptr());
        // Contiguous — an adopted vector, or the one block a small payload
        // is encoded into: the same handle, narrowed, so the payload sits
        // where it sat in the wire buffer.
        let small = Envelope {
            payload: Bytes::from_static(b"small"),
            ..e.clone()
        };
        for (e, wire) in [
            (&e, Bytes::from(e.encode().to_vec())),
            (&small, small.encode()),
        ] {
            assert_eq!(Envelope::peek(&wire), want);
            let body = wire[HEADER_BYTES..].as_ptr();
            let d = Envelope::from_wire(wire);
            assert_eq!(&d, e);
            assert_eq!(d.payload.as_ptr(), body);
        }
    }

    #[test]
    fn a_malformed_buffer_is_an_error_before_it_is_a_panic() {
        let e = Envelope::new(0, 0, HandlerId(0), Bytes::from_static(b"abcdef"));
        let wire = e.encode();
        assert_eq!(Header::read(&wire.slice(..10)), Err(Malformed::Short(10)));
        let want = Malformed::Length {
            wire: HEADER_BYTES + 4,
            header: HEADER_BYTES + 6,
        };
        assert_eq!(Header::read(&wire.slice(..wire.len() - 2)), Err(want));
        let mut bad = e.encode().to_vec();
        bad[1] = 0;
        assert_eq!(Header::read(&bad.into()), Err(Malformed::Magic(0xC400)));
    }

    #[test]
    #[should_panic(expected = "corrupt envelope magic")]
    fn corrupt_magic_panics() {
        let e = Envelope::new(0, 0, HandlerId(0), Bytes::new());
        let mut wire = e.encode().to_vec();
        wire[0] = 0;
        Envelope::decode(&wire.into());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn truncated_payload_panics() {
        let e = Envelope::new(0, 0, HandlerId(0), Bytes::from_static(b"abcdef"));
        let wire = e.encode();
        let cut = wire.slice(..wire.len() - 2);
        Envelope::decode(&cut);
    }

    #[test]
    fn wire_helpers_round_trip() {
        let b = wire::pack_u64s(&[5, 10, u64::MAX]);
        assert_eq!(wire::unpack_u64(&b, 0), 5);
        assert_eq!(wire::unpack_u64(&b, 2), u64::MAX);
        let f: Vec<u8> = [1.5f64, -2.25]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(wire::unpack_f64(&f, 1), -2.25);
        assert_eq!(wire::f64_count(&f), 2);
    }
}
