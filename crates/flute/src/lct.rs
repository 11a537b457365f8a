//! fec-audit: deny(panic)
//!
//! LCT header building blocks (RFC 3451 shape).
//!
//! Every ALC packet starts with an LCT header:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |   V   | C |PSI|S| O |H|Res|A|B|   HDR_LEN     | Codepoint (CP)|
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | Congestion Control Information (CCI)                          |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | Transport Session Identifier (TSI, 32 bits here)              |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | Transport Object Identifier (TOI, 32 bits here)               |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | Header Extensions (optional, 32-bit aligned)                  |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! This implementation pins the variable-size knobs to one well-formed
//! shape — `C = 0` (32-bit CCI, value 0: no congestion control on a
//! provisioned broadcast channel), `S = 1, H = 0` (32-bit TSI) and
//! `O = 1, H = 0` (32-bit TOI) — and **rejects** other shapes loudly
//! instead of guessing. `HDR_LEN` is counted in 32-bit words, as in the
//! RFC, so the fixed part is 4 words.

use crate::reader::Reader;
use crate::FluteError;

/// Protocol version carried in the `V` field.
const LCT_VERSION: u8 = 1;

/// Fixed LCT header size in bytes for this implementation's shape
/// (flags word + CCI + TSI + TOI).
const FIXED_LEN: usize = 16;

/// Maximum header length in bytes representable by the 8-bit `HDR_LEN`
/// word count.
const MAX_HEADER_LEN: usize = 255 * 4;

/// Header-extension type for EXT_FTI (FEC Object Transmission Information).
pub const HET_FTI: u8 = 64;
/// Header-extension type for FLUTE's EXT_FDT (RFC 3926 §3.4.1).
pub const HET_FDT: u8 = 192;
/// Header-extension type for this implementation's EXT_SEQ: a session-wide
/// 24-bit transmission sequence number on every datagram, so receivers can
/// observe the *loss process* (which packets vanished, in what runs) and
/// feed it back for online channel estimation (see
/// `fec_flute::feedback`). Not an IANA-assigned extension — it lives in
/// the reserved fixed-format range, and receivers that do not know it
/// skip it per RFC 3451 rules.
pub const HET_SEQ: u8 = 193;

/// Offset of the header byte that carries the `A` and `B` flags.
pub(crate) const FLAGS_AT: usize = 1;
/// Close-session flag (`A`) within the byte at [`FLAGS_AT`].
pub(crate) const FLAG_CLOSE_SESSION: u8 = 1 << 1;
/// Close-object flag (`B`) within the byte at [`FLAGS_AT`].
pub(crate) const FLAG_CLOSE_OBJECT: u8 = 1;

/// The 24-bit big-endian content of a fixed extension word.
fn word24([b1, b2, b3]: [u8; 3]) -> u32 {
    u32::from_be_bytes([0, b1, b2, b3])
}

/// EXT_FDT content as `(version, instance_id)`.
fn unpack_fdt(data: [u8; 3]) -> (u8, u32) {
    let packed = word24(data);
    ((packed >> 20) as u8, packed & 0xF_FFFF)
}

/// One LCT header extension.
///
/// RFC 3451 defines two encodings: HET < 128 means variable length (HEL
/// byte follows, counting 32-bit words including the HET/HEL bytes);
/// HET >= 128 means one fixed 32-bit word (3 content bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderExtension {
    /// A variable-length extension (HET < 128). `data` is the content
    /// after the HET and HEL bytes; it is padded with zeros to the next
    /// 32-bit boundary on the wire.
    Variable {
        /// Header extension type (must be < 128).
        het: u8,
        /// Content bytes (length ≤ 1021; padded to 4-byte alignment).
        data: Vec<u8>,
    },
    /// A fixed one-word extension (HET >= 128) with exactly 3 content
    /// bytes.
    Fixed {
        /// Header extension type (must be >= 128).
        het: u8,
        /// The 3 content bytes of the word.
        data: [u8; 3],
    },
}

impl HeaderExtension {
    /// EXT_FTI wrapping an encoded FEC OTI blob.
    pub fn fti(data: Vec<u8>) -> HeaderExtension {
        HeaderExtension::Variable { het: HET_FTI, data }
    }

    /// FLUTE's EXT_FDT: FLUTE version (4 bits) + FDT instance ID (20 bits).
    ///
    /// # Panics
    /// Panics if `instance_id` does not fit in 20 bits (caller bug).
    pub fn fdt(version: u8, instance_id: u32) -> HeaderExtension {
        assert!(instance_id < (1 << 20), "FDT instance ID is 20 bits");
        assert!(version < 16, "FLUTE version is 4 bits");
        let packed = ((version as u32) << 20) | instance_id;
        let [_, b1, b2, b3] = packed.to_be_bytes();
        HeaderExtension::Fixed {
            het: HET_FDT,
            data: [b1, b2, b3],
        }
    }

    /// EXT_SEQ carrying a 24-bit session transmission sequence number.
    ///
    /// # Panics
    /// Panics if `seq` does not fit in 24 bits (callers wrap with
    /// [`SEQ_MODULUS`](crate::feedback::SEQ_MODULUS)).
    pub fn seq(seq: u32) -> HeaderExtension {
        assert!(seq < (1 << 24), "EXT_SEQ carries 24 bits");
        let [_, b1, b2, b3] = seq.to_be_bytes();
        HeaderExtension::Fixed {
            het: HET_SEQ,
            data: [b1, b2, b3],
        }
    }

    /// Decodes an EXT_SEQ payload back into the sequence number.
    pub fn as_seq(&self) -> Option<u32> {
        match self {
            HeaderExtension::Fixed { het, data } if *het == HET_SEQ => Some(word24(*data)),
            _ => None,
        }
    }

    /// The extension's HET value.
    fn het(&self) -> u8 {
        match self {
            HeaderExtension::Variable { het, .. } | HeaderExtension::Fixed { het, .. } => *het,
        }
    }

    /// Decodes an EXT_FDT payload back into `(version, instance_id)`.
    pub fn as_fdt(&self) -> Option<(u8, u32)> {
        match self {
            HeaderExtension::Fixed { het, data } if *het == HET_FDT => Some(unpack_fdt(*data)),
            _ => None,
        }
    }

    /// Wire size in bytes (always a multiple of 4).
    pub fn wire_len(&self) -> usize {
        match self {
            HeaderExtension::Variable { data, .. } => (2 + data.len()).div_ceil(4) * 4,
            HeaderExtension::Fixed { .. } => 4,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            HeaderExtension::Variable { het, data } => {
                debug_assert!(*het < 128, "variable extensions use HET < 128");
                let words = (2 + data.len()).div_ceil(4);
                debug_assert!(words <= 255, "extension too long (validated in build)");
                out.push(*het);
                out.push(words as u8);
                out.extend_from_slice(data);
                let pad = words * 4 - 2 - data.len();
                out.resize(out.len() + pad, 0);
            }
            HeaderExtension::Fixed { het, data } => {
                debug_assert!(*het >= 128, "fixed extensions use HET >= 128");
                out.push(*het);
                out.extend_from_slice(data);
            }
        }
    }
}

/// A parsed/buildable LCT header with this implementation's fixed shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LctHeader {
    /// Transport session identifier.
    pub tsi: u32,
    /// Transport object identifier (0 is reserved for the FDT).
    pub toi: u32,
    /// Codepoint: ALC uses it for the FEC Encoding ID.
    pub codepoint: u8,
    /// Close-session flag (`A`): no further packets in this session.
    pub close_session: bool,
    /// Close-object flag (`B`): no further packets for this TOI.
    pub close_object: bool,
    /// Header extensions, in wire order.
    pub extensions: Vec<HeaderExtension>,
}

impl LctHeader {
    /// A data-packet header with no extensions.
    pub fn new(tsi: u32, toi: u32, codepoint: u8) -> LctHeader {
        LctHeader {
            tsi,
            toi,
            codepoint,
            close_session: false,
            close_object: false,
            extensions: Vec::new(),
        }
    }

    /// Adds a header extension (builder style).
    pub fn with_extension(mut self, ext: HeaderExtension) -> LctHeader {
        self.extensions.push(ext);
        self
    }

    /// First extension with the given HET, if any.
    pub fn find_extension(&self, het: u8) -> Option<&HeaderExtension> {
        self.extensions.iter().find(|e| e.het() == het)
    }

    /// Total header size in bytes (fixed part + extensions).
    pub fn wire_len(&self) -> usize {
        FIXED_LEN
            + self
                .extensions
                .iter()
                .map(HeaderExtension::wire_len)
                .sum::<usize>()
    }

    /// Serialises the header.
    ///
    /// Fails if an extension is malformed (variable with HET ≥ 128, fixed
    /// with HET < 128, oversized content) or if the total header exceeds
    /// the 8-bit `HDR_LEN` budget.
    pub fn to_bytes(&self) -> Result<Vec<u8>, FluteError> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_into(&mut out)?;
        Ok(out)
    }

    /// [`to_bytes`](Self::to_bytes) appended to `out`, so a caller that
    /// knows what follows the header can size one buffer for both.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) -> Result<(), FluteError> {
        for ext in &self.extensions {
            match ext {
                HeaderExtension::Variable { het, data } => {
                    if *het >= 128 {
                        return Err(FluteError::Malformed {
                            reason: format!("variable extension with fixed-range HET {het}"),
                        });
                    }
                    if (2 + data.len()).div_ceil(4) > 255 {
                        return Err(FluteError::Malformed {
                            reason: format!("extension content of {} bytes too long", data.len()),
                        });
                    }
                }
                HeaderExtension::Fixed { het, .. } => {
                    if *het < 128 {
                        return Err(FluteError::Malformed {
                            reason: format!("fixed extension with variable-range HET {het}"),
                        });
                    }
                }
            }
        }
        let total = self.wire_len();
        if total > MAX_HEADER_LEN {
            return Err(FluteError::Malformed {
                reason: format!("header of {total} bytes exceeds HDR_LEN budget"),
            });
        }
        debug_assert_eq!(total % 4, 0);

        // V=1 | C=0 | PSI=0 | S=1 | O=01 | H=0 | Res | A | B
        let mut b0 = (LCT_VERSION << 4) & 0xF0;
        b0 |= 0; // C = 0: 32-bit CCI
        let mut b1: u8 = 0;
        b1 |= 1 << 7; // S = 1: 32-bit TSI
        b1 |= 1 << 5; // O = 01: 32-bit TOI
                      // H = 0 (bit 4), reserved bits 3..2 zero
        if self.close_session {
            b1 |= FLAG_CLOSE_SESSION;
        }
        if self.close_object {
            b1 |= FLAG_CLOSE_OBJECT;
        }
        out.push(b0);
        out.push(b1);
        out.push((total / 4) as u8);
        out.push(self.codepoint);
        out.extend_from_slice(&0u32.to_be_bytes()); // CCI
        out.extend_from_slice(&self.tsi.to_be_bytes());
        out.extend_from_slice(&self.toi.to_be_bytes());
        for ext in &self.extensions {
            ext.encode_into(out);
        }
        Ok(())
    }

    /// Parses a header from the front of `data`; returns the header and its
    /// wire length (offset of the payload). This is `LctView::walk` with
    /// every extension copied out.
    pub fn parse(data: &[u8]) -> Result<(LctHeader, usize), FluteError> {
        LctView::walk(data, true).map(|view| (view.header, view.len))
    }
}

/// A datagram read in place: the LCT header's fixed fields, the extensions
/// this crate acts on decoded or borrowed from the caller's buffer, and
/// the bytes after the header. [`LctHeader::parse`] is the same walk with
/// the extensions copied out, so there is one header grammar.
#[derive(Debug)]
pub(crate) struct LctView<'a> {
    /// The fixed fields. `extensions` is filled only on request: left
    /// empty, reading a datagram allocates nothing.
    pub(crate) header: LctHeader,
    /// Header length in bytes.
    pub(crate) len: usize,
    /// What follows the header: payload ID and symbol on a data datagram,
    /// the FDT document on TOI 0.
    pub(crate) body: &'a [u8],
    /// The first EXT_SEQ's sequence number.
    pub(crate) seq: Option<u32>,
    /// The first EXT_FTI's content (possibly zero-padded).
    pub(crate) fti: Option<&'a [u8]>,
    /// The first EXT_FDT's instance ID.
    pub(crate) fdt_instance: Option<u32>,
}

impl<'a> LctView<'a> {
    /// Walks the header at the front of `data`, bounds-checked and total,
    /// copying every extension into `header.extensions` when `owned`.
    pub(crate) fn walk(data: &'a [u8], owned: bool) -> Result<LctView<'a>, FluteError> {
        let mut r = Reader::new(data, "LCT header");
        let b0 = r.u8()?;
        let b1 = r.u8()?;
        let version = b0 >> 4;
        if version != LCT_VERSION {
            return Err(FluteError::Unsupported {
                reason: format!("LCT version {version}"),
            });
        }
        let c = (b0 >> 2) & 0x3;
        if c != 0 {
            return Err(FluteError::Unsupported {
                reason: format!("C = {c} (only 32-bit CCI supported)"),
            });
        }
        let s = (b1 >> 7) & 1;
        let o = (b1 >> 5) & 0x3;
        let h = (b1 >> 4) & 1;
        if s != 1 || o != 1 || h != 0 {
            return Err(FluteError::Unsupported {
                reason: format!("TSI/TOI shape S={s} O={o} H={h} (only 32-bit supported)"),
            });
        }
        let hdr_len = r.u8()? as usize * 4;
        let codepoint = r.u8()?;
        if hdr_len < FIXED_LEN {
            return Err(FluteError::Malformed {
                reason: format!("HDR_LEN {hdr_len} below fixed header size"),
            });
        }
        if data.len() < hdr_len {
            return Err(FluteError::Truncated {
                what: "LCT header extensions",
                needed: hdr_len,
                got: data.len(),
            });
        }
        // CCI must be zero in this implementation's shape.
        let cci = r.u32_be()?;
        if cci != 0 {
            return Err(FluteError::Unsupported {
                reason: format!("nonzero CCI {cci}"),
            });
        }
        let mut header = LctHeader::new(r.u32_be()?, r.u32_be()?, codepoint);
        header.close_session = b1 & FLAG_CLOSE_SESSION != 0;
        header.close_object = b1 & FLAG_CLOSE_OBJECT != 0;
        let mut view = LctView {
            header,
            len: hdr_len,
            body: data.get(hdr_len..).unwrap_or_default(),
            seq: None,
            fti: None,
            fdt_instance: None,
        };

        while r.pos() < hdr_len {
            let het = r.u8()?;
            if het >= 128 {
                if hdr_len - r.pos() < 3 {
                    return Err(FluteError::Malformed {
                        reason: "fixed extension spills past HDR_LEN".into(),
                    });
                }
                let data = r.array::<3>()?;
                match het {
                    HET_SEQ if view.seq.is_none() => view.seq = Some(word24(data)),
                    HET_FDT if view.fdt_instance.is_none() => {
                        view.fdt_instance = Some(unpack_fdt(data).1);
                    }
                    _ => {}
                }
                if owned {
                    let ext = HeaderExtension::Fixed { het, data };
                    view.header.extensions.push(ext);
                }
            } else {
                if hdr_len - r.pos() < 1 {
                    return Err(FluteError::Malformed {
                        reason: "variable extension header spills past HDR_LEN".into(),
                    });
                }
                let words = r.u8()? as usize;
                if words == 0 {
                    return Err(FluteError::Malformed {
                        reason: "variable extension with HEL = 0".into(),
                    });
                }
                let len = words * 4;
                // HET and HEL account for 2 of the extension's `len` bytes.
                if hdr_len - r.pos() < len - 2 {
                    return Err(FluteError::Malformed {
                        reason: format!("extension of {len} bytes spills past HDR_LEN"),
                    });
                }
                let data = r.take(len - 2)?;
                if het == HET_FTI && view.fti.is_none() {
                    view.fti = Some(data);
                }
                if owned {
                    let data = data.to_vec();
                    let ext = HeaderExtension::Variable { het, data };
                    view.header.extensions.push(ext);
                }
            }
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn minimal_header_roundtrip() {
        let h = LctHeader::new(0xDEAD_BEEF, 7, 3);
        let wire = h.to_bytes().unwrap();
        assert_eq!(wire.len(), FIXED_LEN);
        let (back, len) = LctHeader::parse(&wire).unwrap();
        assert_eq!(len, FIXED_LEN);
        assert_eq!(back, h);
    }

    #[test]
    fn flags_roundtrip() {
        let mut h = LctHeader::new(1, 2, 0);
        h.close_session = true;
        h.close_object = true;
        let (back, _) = LctHeader::parse(&h.to_bytes().unwrap()).unwrap();
        assert!(back.close_session && back.close_object);
    }

    #[test]
    fn fdt_extension_roundtrip() {
        let h = LctHeader::new(1, 0, 0).with_extension(HeaderExtension::fdt(1, 0xABCDE));
        let (back, _) = LctHeader::parse(&h.to_bytes().unwrap()).unwrap();
        let ext = back.find_extension(HET_FDT).expect("EXT_FDT present");
        assert_eq!(ext.as_fdt(), Some((1, 0xABCDE)));
    }

    #[test]
    fn fti_extension_roundtrips_with_padding() {
        // 5 content bytes: needs 2 words with 1 pad byte.
        let h = LctHeader::new(1, 2, 3).with_extension(HeaderExtension::fti(vec![9, 8, 7, 6, 5]));
        let wire = h.to_bytes().unwrap();
        assert_eq!(wire.len(), FIXED_LEN + 8);
        let (back, _) = LctHeader::parse(&wire).unwrap();
        // Parsing keeps the pad byte (content length is only known to the
        // FTI codec, which reads what it needs).
        match back.find_extension(HET_FTI).unwrap() {
            HeaderExtension::Variable { data, .. } => {
                assert_eq!(&data[..5], &[9, 8, 7, 6, 5]);
                assert_eq!(data.len(), 6);
            }
            other => panic!("wrong extension shape: {other:?}"),
        }
    }

    #[test]
    fn multiple_extensions_keep_order() {
        let h = LctHeader::new(1, 2, 3)
            .with_extension(HeaderExtension::fti(vec![1, 2]))
            .with_extension(HeaderExtension::fdt(1, 5));
        let (back, _) = LctHeader::parse(&h.to_bytes().unwrap()).unwrap();
        assert_eq!(back.extensions.len(), 2);
        assert_eq!(back.extensions[0].het(), HET_FTI);
        assert_eq!(back.extensions[1].het(), HET_FDT);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut wire = LctHeader::new(1, 2, 3).to_bytes().unwrap();
        wire[0] = 0x20 | (wire[0] & 0x0F); // version 2
        assert!(matches!(
            LctHeader::parse(&wire),
            Err(FluteError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_unsupported_shapes() {
        let mut wire = LctHeader::new(1, 2, 3).to_bytes().unwrap();
        wire[1] &= !(1 << 7); // S = 0: 16-bit TSI, unsupported
        assert!(matches!(
            LctHeader::parse(&wire),
            Err(FluteError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_nonzero_cci() {
        let mut wire = LctHeader::new(1, 2, 3).to_bytes().unwrap();
        wire[5] = 1;
        assert!(matches!(
            LctHeader::parse(&wire),
            Err(FluteError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let wire = LctHeader::new(1, 2, 3)
            .with_extension(HeaderExtension::fti(vec![1, 2, 3, 4, 5, 6]))
            .to_bytes()
            .unwrap();
        for cut in 0..wire.len() {
            assert!(LctHeader::parse(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_hel_zero() {
        let mut wire = LctHeader::new(1, 2, 3)
            .with_extension(HeaderExtension::fti(vec![1, 2]))
            .to_bytes()
            .unwrap();
        wire[FIXED_LEN + 1] = 0; // HEL = 0
        assert!(matches!(
            LctHeader::parse(&wire),
            Err(FluteError::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_extension_spill() {
        let mut wire = LctHeader::new(1, 2, 3)
            .with_extension(HeaderExtension::fti(vec![1, 2]))
            .to_bytes()
            .unwrap();
        wire[FIXED_LEN + 1] = 200; // claims 800 bytes
        assert!(matches!(
            LctHeader::parse(&wire),
            Err(FluteError::Malformed { .. })
        ));
    }

    #[test]
    fn build_rejects_misranged_extensions() {
        let bad_var = LctHeader::new(1, 2, 3).with_extension(HeaderExtension::Variable {
            het: 200,
            data: vec![],
        });
        assert!(bad_var.to_bytes().is_err());
        let bad_fixed = LctHeader::new(1, 2, 3).with_extension(HeaderExtension::Fixed {
            het: 5,
            data: [0; 3],
        });
        assert!(bad_fixed.to_bytes().is_err());
    }

    #[test]
    #[should_panic(expected = "20 bits")]
    fn fdt_instance_id_range_checked() {
        let _ = HeaderExtension::fdt(1, 1 << 20);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            tsi in any::<u32>(),
            toi in any::<u32>(),
            cp in any::<u8>(),
            a in any::<bool>(),
            b in any::<bool>(),
            fti in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let mut h = LctHeader::new(tsi, toi, cp)
                .with_extension(HeaderExtension::fti(fti.clone()));
            h.close_session = a;
            h.close_object = b;
            let wire = h.to_bytes().unwrap();
            let (back, len) = LctHeader::parse(&wire).unwrap();
            prop_assert_eq!(len, wire.len());
            prop_assert_eq!(back.tsi, tsi);
            prop_assert_eq!(back.toi, toi);
            prop_assert_eq!(back.codepoint, cp);
            prop_assert_eq!(back.close_session, a);
            prop_assert_eq!(back.close_object, b);
            // FTI content survives modulo zero padding.
            match back.find_extension(HET_FTI).unwrap() {
                HeaderExtension::Variable { data, .. } => {
                    prop_assert_eq!(&data[..fti.len()], &fti[..]);
                    prop_assert!(data[fti.len()..].iter().all(|&x| x == 0));
                }
                _ => prop_assert!(false, "wrong shape"),
            }
        }

        /// Parsing arbitrary bytes never panics.
        #[test]
        fn fuzz_parse_no_panic(data in proptest::collection::vec(any::<u8>(), 0..80)) {
            let _ = LctHeader::parse(&data);
        }

        /// The borrowed view and the owned header come from one walk: for
        /// any extension list (repeats and unknown types included), any
        /// truncation and any flipped bit they agree on `Ok`/`Err`, and
        /// the view's decoded extensions are the owned header's first of
        /// each type.
        #[test]
        fn view_equals_owned_header(
            fixed in (any::<u32>(), any::<u32>(), any::<u8>(), any::<bool>(), any::<bool>()),
            extensions in proptest::collection::vec(
                (
                    // HET 0 is EXT_NOP (RFC 3451); 250 is unassigned.
                    prop_oneof![Just(HET_FTI), Just(0u8), Just(HET_FDT), Just(HET_SEQ), Just(250u8)],
                    proptest::collection::vec(any::<u8>(), 3..12),
                ),
                0..5,
            ),
            flips in proptest::collection::vec(any::<usize>(), 16),
        ) {
            let mut header = LctHeader::new(fixed.0, fixed.1, fixed.2);
            (header.close_session, header.close_object) = (fixed.3, fixed.4);
            for (het, data) in extensions {
                header = header.with_extension(if het >= 128 {
                    HeaderExtension::Fixed { het, data: [data[0], data[1], data[2]] }
                } else {
                    HeaderExtension::Variable { het, data }
                });
            }
            let wire = header.to_bytes().unwrap();
            let mut inputs: Vec<Vec<u8>> = (0..=wire.len()).map(|cut| wire[..cut].to_vec()).collect();
            for flip in flips {
                let mut damaged = wire.clone();
                let bit = flip % (wire.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
                inputs.push(damaged);
            }
            for data in &inputs {
                match (LctView::walk(data, false), LctHeader::parse(data)) {
                    (Err(viewed), Err(owned)) => prop_assert_eq!(viewed, owned),
                    (Ok(mut view), Ok((owned, len))) => {
                        prop_assert_eq!(view.len, len);
                        prop_assert_eq!(
                            view.seq,
                            owned.find_extension(HET_SEQ).and_then(HeaderExtension::as_seq)
                        );
                        prop_assert_eq!(
                            view.fdt_instance,
                            owned.find_extension(HET_FDT).and_then(HeaderExtension::as_fdt).map(|f| f.1)
                        );
                        let fti = owned.find_extension(HET_FTI).map(|ext| match ext {
                            HeaderExtension::Variable { data, .. } => &data[..],
                            HeaderExtension::Fixed { .. } => unreachable!("HET 64 is variable"),
                        });
                        prop_assert_eq!(view.fti, fti);
                        prop_assert!(view.header.extensions.is_empty());
                        view.header.extensions = owned.extensions.clone();
                        prop_assert_eq!(view.header, owned);
                    }
                    (viewed, owned) => prop_assert!(false, "view {viewed:?} but parse {owned:?}"),
                }
            }
            prop_assert_eq!(LctHeader::parse(&wire).unwrap().1, wire.len());
        }
    }
}
