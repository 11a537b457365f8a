//! fec-audit: deny(panic)
//!
//! Complete ALC/LCT datagrams (RFC 3450 shape).
//!
//! An ALC packet is an LCT header (whose codepoint carries the FEC
//! Encoding ID), followed by the FEC Payload ID, followed by exactly one
//! encoding symbol:
//!
//! ```text
//! +----------------------------+
//! | LCT header (+ extensions)  |
//! +----------------------------+
//! | FEC Payload ID (SBN, ESI)  |
//! +----------------------------+
//! | Encoding symbol            |
//! +----------------------------+
//! ```
//!
//! FDT instance packets (TOI 0) are the one exception: their payload is the
//! FDT XML document itself and they carry no FEC Payload ID — this
//! implementation sends the FDT unencoded in a single datagram (documented
//! deviation; real stacks may FEC-encode large FDTs like any other object).

use crate::lct::{
    HeaderExtension, LctHeader, LctView, FLAGS_AT, FLAG_CLOSE_OBJECT, FLAG_CLOSE_SESSION, HET_FDT,
    HET_FTI, HET_SEQ,
};
use crate::payload_id::{FecPayloadId, PayloadIdFormat, PAYLOAD_ID_LEN};
use crate::{FluteError, FDT_TOI};

/// A parsed ALC datagram.
#[derive(Debug, Clone, PartialEq)]
pub struct AlcPacket {
    /// The LCT header (TSI, TOI, flags, extensions).
    pub header: LctHeader,
    /// The FEC payload ID — `None` exactly for FDT (TOI 0) packets.
    pub payload_id: Option<FecPayloadId>,
    /// The encoding symbol (data packets) or FDT XML bytes (TOI 0).
    pub payload: Vec<u8>,
}

impl AlcPacket {
    /// Builds a data packet carrying one encoding symbol. `codepoint` is
    /// the object's FEC Encoding ID (see
    /// [`fti_for_code`](crate::fti::fti_for_code)).
    pub fn data(tsi: u32, toi: u32, codepoint: u8, id: FecPayloadId, symbol: Vec<u8>) -> AlcPacket {
        debug_assert_ne!(toi, FDT_TOI, "TOI 0 is reserved for the FDT");
        AlcPacket {
            header: LctHeader::new(tsi, toi, codepoint),
            payload_id: Some(id),
            payload: symbol,
        }
    }

    /// Builds an FDT instance packet (TOI 0, EXT_FDT attached, codepoint 0:
    /// the FDT travels without FEC).
    pub fn fdt(tsi: u32, instance_id: u32, xml: Vec<u8>) -> AlcPacket {
        AlcPacket {
            header: LctHeader::new(tsi, FDT_TOI, 0)
                .with_extension(HeaderExtension::fdt(1, instance_id)),
            payload_id: None,
            payload: xml,
        }
    }

    /// Attaches an EXT_FTI carrying the given OTI blob (builder style).
    pub fn with_fti(mut self, oti_blob: Vec<u8>) -> AlcPacket {
        self.header = self.header.with_extension(HeaderExtension::fti(oti_blob));
        self
    }

    /// Attaches an EXT_SEQ session transmission sequence number (builder
    /// style). See [`HeaderExtension::seq`].
    pub fn with_sequence(mut self, seq: u32) -> AlcPacket {
        self.header = self.header.with_extension(HeaderExtension::seq(seq));
        self
    }

    /// The EXT_SEQ transmission sequence number, if present.
    pub fn sequence(&self) -> Option<u32> {
        self.header
            .find_extension(HET_SEQ)
            .and_then(HeaderExtension::as_seq)
    }

    /// Marks this as the session's final packet (`A` flag).
    pub fn closing_session(mut self) -> AlcPacket {
        self.header.close_session = true;
        self
    }

    /// Marks this as the object's final packet (`B` flag).
    pub fn closing_object(mut self) -> AlcPacket {
        self.header.close_object = true;
        self
    }

    /// The FDT instance ID, if this is an FDT packet with EXT_FDT.
    pub fn fdt_instance_id(&self) -> Option<u32> {
        self.header
            .find_extension(HET_FDT)
            .and_then(HeaderExtension::as_fdt)
            .map(|(_, id)| id)
    }

    /// The raw EXT_FTI content (possibly padded), if present.
    pub fn fti_blob(&self) -> Option<&[u8]> {
        match self.header.find_extension(HET_FTI)? {
            HeaderExtension::Variable { data, .. } => Some(data),
            HeaderExtension::Fixed { .. } => None,
        }
    }

    /// Serialises the datagram into one buffer of exactly its wire size.
    pub fn to_bytes(&self) -> Result<Vec<u8>, FluteError> {
        let id_len = self.payload_id.map_or(0, |_| PAYLOAD_ID_LEN);
        let mut out = Vec::with_capacity(self.header.wire_len() + id_len + self.payload.len());
        self.header.write_into(&mut out)?;
        if self.header.toi == FDT_TOI {
            if self.payload_id.is_some() {
                return Err(FluteError::Malformed {
                    reason: "FDT packets carry no FEC payload ID".into(),
                });
            }
        } else {
            let id = self.payload_id.ok_or_else(|| FluteError::Malformed {
                reason: "data packets need a FEC payload ID".into(),
            })?;
            let format = PayloadIdFormat::for_fti(self.header.codepoint)?;
            out.extend_from_slice(&id.to_bytes(format)?);
        }
        out.extend_from_slice(&self.payload);
        Ok(out)
    }

    /// Parses a datagram: the walk the receive path runs in place
    /// (`LctView::walk`, `split_symbol`) with every piece copied out.
    pub fn from_bytes(data: &[u8]) -> Result<AlcPacket, FluteError> {
        let LctView { header, body, .. } = LctView::walk(data, true)?;
        let (payload_id, payload) = if header.toi == FDT_TOI {
            (None, body)
        } else {
            let format = PayloadIdFormat::for_fti(header.codepoint)?;
            let (id, symbol) = split_symbol(body, format)?;
            (Some(id), symbol)
        };
        Ok(AlcPacket {
            header,
            payload_id,
            payload: payload.to_vec(),
        })
    }
}

/// Splits a data datagram's body (what follows the LCT header) into its
/// payload ID, read in the object's `format`, and the encoding symbol.
pub(crate) fn split_symbol(
    body: &[u8],
    format: PayloadIdFormat,
) -> Result<(FecPayloadId, &[u8]), FluteError> {
    let (id, id_len) = FecPayloadId::from_bytes(body, format)?;
    Ok((id, body.get(id_len..).unwrap_or_default()))
}

/// The serialised header of one object's data datagrams, built once, with
/// the positions of the fields that differ from datagram to datagram: the
/// `A`/`B` flags, the EXT_SEQ sequence number and the FEC payload ID.
///
/// The bytes come from [`AlcPacket::to_bytes`] on a prototype packet, so
/// every check that function makes (extension ranges, the `HDR_LEN`
/// budget, the codepoint's registry entry) still runs — once per object
/// instead of once per datagram.
#[derive(Clone)]
pub(crate) struct DataFrame {
    /// LCT header, extensions and payload-ID slot, per-datagram fields 0.
    bytes: Vec<u8>,
    /// Offset of the three EXT_SEQ content bytes, when sequenced.
    seq_at: Option<usize>,
    /// Offset of the payload-ID slot (the header length).
    id_at: usize,
    format: PayloadIdFormat,
}

impl DataFrame {
    /// The template for `toi`'s data datagrams: EXT_FTI carrying `fti`
    /// when given, then EXT_SEQ when `sequenced`.
    pub(crate) fn new(
        tsi: u32,
        toi: u32,
        codepoint: u8,
        fti: Option<Vec<u8>>,
        sequenced: bool,
    ) -> Result<DataFrame, FluteError> {
        let mut prototype =
            AlcPacket::data(tsi, toi, codepoint, FecPayloadId::new(0, 0), Vec::new());
        if let Some(blob) = fti {
            prototype = prototype.with_fti(blob);
        }
        // EXT_SEQ goes last: its content follows its HET byte.
        let seq_at = sequenced.then(|| prototype.header.wire_len() + 1);
        if sequenced {
            prototype = prototype.with_sequence(0);
        }
        Ok(DataFrame {
            bytes: prototype.to_bytes()?,
            seq_at,
            id_at: prototype.header.wire_len(),
            format: PayloadIdFormat::for_fti(codepoint)?,
        })
    }

    /// One wire datagram: the template with its per-datagram fields
    /// patched in, then the symbol — one allocation of the exact size,
    /// one copy of the symbol. An unsequenced template ignores `seq`.
    pub(crate) fn datagram(
        &self,
        id: FecPayloadId,
        (close_object, close_session): (bool, bool),
        seq: Option<u32>,
        symbol: &[u8],
    ) -> Result<Vec<u8>, FluteError> {
        let id = id.to_bytes(self.format)?;
        let flags = (u8::from(close_object) * FLAG_CLOSE_OBJECT)
            | (u8::from(close_session) * FLAG_CLOSE_SESSION);
        let mut out = Vec::with_capacity(self.bytes.len() + symbol.len());
        out.extend_from_slice(&self.bytes);
        patch(&mut out, FLAGS_AT, &[flags]);
        if let (Some(at), Some(seq)) = (self.seq_at, seq) {
            debug_assert!(seq < (1 << 24), "EXT_SEQ carries 24 bits");
            let [_, seq @ ..] = seq.to_be_bytes();
            patch(&mut out, at, &seq);
        }
        patch(&mut out, self.id_at, &id);
        out.extend_from_slice(symbol);
        Ok(out)
    }
}

/// ORs `field` into the frame bytes at `at`: the prototype left every
/// per-datagram field zero.
fn patch(frame: &mut [u8], at: usize, field: &[u8]) {
    for (byte, bits) in frame.iter_mut().skip(at).zip(field) {
        *byte |= bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::SEQ_MODULUS;
    use proptest::prelude::*;

    #[test]
    fn data_packet_roundtrip() {
        let p = AlcPacket::data(
            9,
            1,
            3,
            FecPayloadId::new(0, 1234),
            b"symbol bytes".to_vec(),
        );
        let wire = p.to_bytes().unwrap();
        let back = AlcPacket::from_bytes(&wire).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.payload_id.unwrap().esi, 1234);
    }

    #[test]
    fn fdt_packet_roundtrip() {
        let p = AlcPacket::fdt(9, 77, b"<FDT-Instance/>".to_vec());
        let wire = p.to_bytes().unwrap();
        let back = AlcPacket::from_bytes(&wire).unwrap();
        assert_eq!(back.fdt_instance_id(), Some(77));
        assert!(back.payload_id.is_none());
        assert_eq!(&back.payload[..], b"<FDT-Instance/>");
    }

    #[test]
    fn fti_extension_is_recoverable() {
        let blob = vec![1, 2, 3, 4, 5, 6, 7];
        let p =
            AlcPacket::data(1, 2, 129, FecPayloadId::new(3, 4), Vec::new()).with_fti(blob.clone());
        let back = AlcPacket::from_bytes(&p.to_bytes().unwrap()).unwrap();
        assert_eq!(&back.fti_blob().unwrap()[..blob.len()], &blob[..]);
    }

    #[test]
    fn flags_survive() {
        let p = AlcPacket::data(1, 2, 4, FecPayloadId::new(0, 0), Vec::new())
            .closing_object()
            .closing_session();
        let back = AlcPacket::from_bytes(&p.to_bytes().unwrap()).unwrap();
        assert!(back.header.close_object && back.header.close_session);
    }

    #[test]
    fn data_packet_requires_payload_id() {
        let mut p = AlcPacket::data(1, 2, 3, FecPayloadId::new(0, 0), Vec::new());
        p.payload_id = None;
        assert!(p.to_bytes().is_err());
    }

    #[test]
    fn unknown_codepoint_rejected_on_parse() {
        let mut p = AlcPacket::data(1, 2, 3, FecPayloadId::new(0, 0), Vec::new());
        p.header.codepoint = 200;
        // Build fails (codepoint drives the payload-ID layout)…
        assert!(p.to_bytes().is_err());
        // …and a forged wire packet fails on parse.
        let mut wire = AlcPacket::data(1, 2, 3, FecPayloadId::new(0, 0), Vec::new())
            .to_bytes()
            .unwrap();
        wire[3] = 200;
        assert!(AlcPacket::from_bytes(&wire).is_err());
    }

    #[test]
    fn empty_symbol_allowed() {
        let p = AlcPacket::data(1, 2, 3, FecPayloadId::new(0, 5), Vec::new());
        let back = AlcPacket::from_bytes(&p.to_bytes().unwrap()).unwrap();
        assert_eq!(back.payload.len(), 0);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            tsi in any::<u32>(),
            toi in 1u32..,
            esi in 0u32..(1 << 20),
            sbn in 0u32..(1 << 12),
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            close in any::<bool>(),
        ) {
            let mut p = AlcPacket::data(
                tsi,
                toi,
                4,
                FecPayloadId::new(sbn, esi),
                payload,
            );
            p.header.close_object = close;
            let back = AlcPacket::from_bytes(&p.to_bytes().unwrap()).unwrap();
            prop_assert_eq!(back, p);
        }

        /// Parsing arbitrary bytes never panics.
        #[test]
        fn fuzz_parse_no_panic(data in proptest::collection::vec(any::<u8>(), 0..120)) {
            let _ = AlcPacket::from_bytes(&data);
        }

        /// Framing from the template is `AlcPacket::to_bytes`: the same
        /// bytes, or the same error when the payload ID does not fit the
        /// codepoint's layout.
        #[test]
        fn template_framing_equals_to_bytes(
            tsi in any::<u32>(),
            toi in 1u32..,
            codepoint in prop_oneof![Just(3u8), Just(4u8), Just(129u8)],
            sbn in prop_oneof![0u32..(1 << 12), 0u32..(1 << 17)],
            esi in prop_oneof![0u32..(1 << 16), 0u32..(1 << 21), Just(0xFFFFu32), Just(0xF_FFFFu32)],
            close_object in any::<bool>(),
            close_session in any::<bool>(),
            // Any sequence number, and the last one before the wrap.
            seq in prop_oneof![0u32..SEQ_MODULUS, Just(SEQ_MODULUS - 1)],
            fti in maybe(proptest::collection::vec(any::<u8>(), 0..40)),
            sequenced in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..=1500),
        ) {
            let frame = DataFrame::new(tsi, toi, codepoint, fti.clone(), sequenced).unwrap();
            // Two consecutive datagrams, so the template is seen to be
            // reusable and the sequence space to wrap.
            for (seq, esi) in [(seq, esi), ((seq + 1) % SEQ_MODULUS, esi / 2)] {
                let id = FecPayloadId::new(sbn, esi);
                let mut packet =
                    AlcPacket::data(tsi, toi, codepoint, id, payload.clone());
                if let Some(blob) = fti.clone() {
                    packet = packet.with_fti(blob);
                }
                if sequenced {
                    packet = packet.with_sequence(seq);
                }
                packet.header.close_object = close_object;
                packet.header.close_session = close_session;
                let framed = frame.datagram(id, (close_object, close_session), Some(seq), &payload);
                prop_assert_eq!(&framed, &packet.to_bytes());
                if let Ok(framed) = framed {
                    prop_assert_eq!(framed.capacity(), framed.len(), "one exact allocation");
                }
            }
        }

        /// The borrowed view and `from_bytes` are one parser: on a valid
        /// datagram, on every truncation of it and with any single bit
        /// flipped they agree on `Ok`/`Err` and on every field.
        #[test]
        fn view_equals_from_bytes(
            fdt in any::<bool>(),
            codepoint in prop_oneof![Just(3u8), Just(4u8), Just(129u8)],
            tsi in any::<u32>(),
            toi in 1u32..,
            id in (0u32..(1 << 12), 0u32..(1 << 16)),
            flags in (any::<bool>(), any::<bool>()),
            fti in maybe(proptest::collection::vec(any::<u8>(), 0..30)),
            seq in maybe(0u32..SEQ_MODULUS),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            flips in proptest::collection::vec(any::<usize>(), 24),
        ) {
            let mut packet = if fdt {
                AlcPacket::fdt(tsi, toi % (1 << 20), payload)
            } else {
                AlcPacket::data(tsi, toi, codepoint, FecPayloadId::new(id.0, id.1), payload)
            };
            if let Some(blob) = fti {
                packet = packet.with_fti(blob);
            }
            if let Some(seq) = seq {
                packet = packet.with_sequence(seq);
            }
            (packet.header.close_object, packet.header.close_session) = flags;
            let wire = packet.to_bytes().unwrap();
            assert_view_matches_owned(&wire);
            for cut in 0..wire.len() {
                assert_view_matches_owned(&wire[..cut]);
            }
            for flip in flips {
                let mut damaged = wire.clone();
                let bit = flip % (wire.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
                assert_view_matches_owned(&damaged);
            }
        }
    }

    /// `strategy`'s values half the time, `None` the other half.
    fn maybe<S: Strategy>(strategy: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), strategy).prop_map(|(on, value)| on.then_some(value))
    }

    /// Reads `data` in place the way [`AlcPacket::from_bytes`] reads it
    /// and checks both reach the same verdict and the same fields.
    fn assert_view_matches_owned(data: &[u8]) {
        let viewed = LctView::walk(data, false).and_then(|view| {
            if view.header.toi == FDT_TOI {
                return Ok((None, view.body, view));
            }
            let format = PayloadIdFormat::for_fti(view.header.codepoint)?;
            let (id, symbol) = split_symbol(view.body, format)?;
            Ok((Some(id), symbol, view))
        });
        match (viewed, AlcPacket::from_bytes(data)) {
            (Err(viewed), Err(owned)) => assert_eq!(viewed, owned),
            (Ok((id, payload, mut view)), Ok(owned)) => {
                assert!(view.header.extensions.is_empty(), "nothing copied out");
                view.header.extensions = owned.header.extensions.clone();
                assert_eq!(view.header, owned.header);
                assert_eq!(view.len, owned.header.wire_len());
                assert_eq!(view.seq, owned.sequence());
                assert_eq!(view.fti, owned.fti_blob());
                assert_eq!(view.fdt_instance, owned.fdt_instance_id());
                assert_eq!(id, owned.payload_id);
                assert_eq!(payload, &owned.payload[..]);
            }
            (viewed, owned) => panic!("view {viewed:?} but from_bytes {owned:?}"),
        }
    }
}
