//! The packet value sender and receiver exchange.

use bytes::Bytes;
use fec_sched::PacketRef;

/// One encoding packet: a symbol and its address. On a network it travels
/// inside a FLUTE/ALC datagram (`fec-flute`), which is the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source block number.
    pub block: u32,
    /// Encoding symbol ID within the block.
    pub esi: u32,
    /// Symbol payload (exactly the session symbol size).
    pub payload: Bytes,
}

impl Packet {
    /// Creates a packet from its parts.
    pub fn new(block: u32, esi: u32, payload: Bytes) -> Packet {
        Packet {
            block,
            esi,
            payload,
        }
    }

    /// The `(block, esi)` pair as a scheduling reference.
    pub fn packet_ref(&self) -> PacketRef {
        PacketRef {
            block: self.block,
            esi: self.esi,
        }
    }
}
