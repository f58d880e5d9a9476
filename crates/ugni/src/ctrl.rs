//! What the machine layers built on uGNI share beneath their payloads:
//! the control frames of the rendezvous and persistent protocols (paper
//! Fig. 5 and 7a) and the pace at which a failed transaction is tried
//! again.
//!
//! A frame is the SMSG tag byte followed by big-endian `u64` words; the
//! tag travels in the frame as well as in the SMSG header, so a frame's
//! size is what the fabric model charges for.

use bytes::Bytes;
use gemini_net::{Addr, MemHandle};
use sim_core::Time;

/// First delay after a fabric transaction error, virtual ns.
const RETRY_BACKOFF0: Time = 1_000;
/// The backoff's cap: keeps the retry cadence bounded under long outages.
const RETRY_BACKOFF_MAX: Time = 65_536;

/// The delay before the next attempt, given the one before the last
/// (`0` before the first failure): 1 µs, then doubling up to 65,536 ns.
pub fn next_backoff(b: Time) -> Time {
    if b == 0 {
        RETRY_BACKOFF0
    } else {
        (b * 2).min(RETRY_BACKOFF_MAX)
    }
}

/// A rendezvous announcement (`INIT_TAG` of Fig. 5; MPI's RTS): the
/// sender's registered buffer, for the receiver to GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdvFrame {
    pub xid: u64,
    pub bytes: u64,
    pub handle: MemHandle,
    pub addr: Addr,
}

impl RdvFrame {
    /// Tag byte and four words.
    pub const LEN: usize = 33;

    pub fn encode(&self, tag: u8) -> Bytes {
        frame::<{ Self::LEN }>(tag, &[self.xid, self.bytes, self.handle.0, self.addr.0])
    }

    /// `None` when `frame` is not [`RdvFrame::LEN`] bytes.
    pub fn decode(frame: &[u8]) -> Option<Self> {
        let [xid, bytes, handle, addr] = words(frame)?;
        Some(RdvFrame {
            xid,
            bytes,
            handle: MemHandle(handle),
            addr: Addr(addr),
        })
    }
}

/// A frame that names one transfer by its id: the rendezvous ACK (DONE
/// in MPI), the persistent-PUT notification and MPI's eager-PUT notify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XidFrame {
    pub xid: u64,
}

impl XidFrame {
    /// Tag byte and one word.
    pub const LEN: usize = 9;

    pub fn encode(&self, tag: u8) -> Bytes {
        frame::<{ Self::LEN }>(tag, &[self.xid])
    }

    /// `None` when `frame` is not [`XidFrame::LEN`] bytes.
    pub fn decode(frame: &[u8]) -> Option<Self> {
        let [xid] = words(frame)?;
        Some(XidFrame { xid })
    }
}

/// `tag` then `words`, big-endian, in one `L`-byte block.
fn frame<const L: usize>(tag: u8, words: &[u64]) -> Bytes {
    let mut b = [0; L];
    b[0] = tag;
    for (dst, w) in b[1..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_be_bytes());
    }
    Bytes::copy_from_slice(&b)
}

/// The `N` words after a frame's tag byte; `None` unless the frame holds
/// exactly that.
fn words<const N: usize>(frame: &[u8]) -> Option<[u64; N]> {
    let mut rest = frame.get(1..).filter(|r| r.len() == 8 * N)?;
    let mut w = [0; N];
    for x in &mut w {
        let (head, tail) = rest.split_first_chunk()?;
        *x = u64::from_be_bytes(*head);
        rest = tail;
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_at_their_wire_sizes() {
        let rdv = RdvFrame {
            xid: 7,
            bytes: 1 << 20,
            handle: MemHandle(u64::MAX - 1),
            addr: Addr(0x0123_4567_89ab_cdef),
        };
        let wire = rdv.encode(1);
        assert_eq!(wire.len(), 33);
        assert_eq!(wire[0], 1);
        assert_eq!(&wire[1..9], &7u64.to_be_bytes(), "xid first, big-endian");
        assert_eq!(&wire[25..], &0x0123_4567_89ab_cdefu64.to_be_bytes());
        assert_eq!(RdvFrame::decode(&wire), Some(rdv));

        let ack = XidFrame { xid: u64::MAX };
        let wire = ack.encode(2);
        assert_eq!(wire.len(), 9);
        assert_eq!(wire[0], 2);
        assert_eq!(XidFrame::decode(&wire), Some(ack));

        // A frame of the other kind, or cut short, is refused.
        assert_eq!(RdvFrame::decode(&wire), None);
        assert_eq!(XidFrame::decode(&rdv.encode(1)), None);
        assert_eq!(XidFrame::decode(&[]), None);
    }

    #[test]
    fn backoff_doubles_from_one_microsecond_to_its_cap() {
        let seq: Vec<Time> = std::iter::successors(Some(0), |&b| Some(next_backoff(b)))
            .skip(1)
            .take(9)
            .collect();
        assert_eq!(
            seq,
            [1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 65_536, 65_536]
        );
    }
}
