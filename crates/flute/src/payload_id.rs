//! fec-audit: deny(panic)
//!
//! FEC Payload IDs (RFC 3452 shape, per-codepoint layouts).
//!
//! The FEC Payload ID sits between the LCT header and the encoding symbol
//! and addresses the symbol within its object. Its layout depends on the
//! codec the LCT codepoint resolves to (via the [`fec_codec`] registry):
//!
//! * [`PayloadIdFormat::SmallBlock`] — segmented codes (RSE, FEC Encoding
//!   ID 129): the object is cut into many blocks, so the ID carries a
//!   16-bit source block number (SBN) and a 16-bit encoding symbol ID
//!   (ESI) — 4 bytes.
//! * [`PayloadIdFormat::LargeBlock`] — single-block codes (FEC Encoding
//!   IDs 3 and 4, the RFC 5170 numbers for LDPC-Staircase and
//!   LDPC-Triangle): the SBN shrinks to 12 bits and the ESI grows to
//!   20 bits, packed into one 32-bit word. 2^20 symbols × 1 KiB packets
//!   covers the "several hundreds of megabytes" objects the paper cites
//!   (§2.3.1).
//!
//! Both shapes are 4 bytes on the wire; the codepoint's codec
//! ([`ErasureCode::is_large_block`](fec_codec::ErasureCode::is_large_block))
//! decides the split — so a third-party registered code gets the right
//! layout automatically.

use std::sync::PoisonError;

use fec_codec::{registry, CodecHandle};

use crate::reader::Reader;
use crate::FluteError;

/// Which of the two 4-byte payload-ID layouts a codec uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadIdFormat {
    /// 16-bit SBN + 16-bit ESI (segmented small-block codes).
    SmallBlock,
    /// 12-bit SBN + 20-bit ESI (single large block).
    LargeBlock,
}

impl PayloadIdFormat {
    /// The layout a codec's packets use.
    pub fn for_code(code: &CodecHandle) -> PayloadIdFormat {
        if code.is_large_block() {
            PayloadIdFormat::LargeBlock
        } else {
            PayloadIdFormat::SmallBlock
        }
    }

    /// The layout behind an LCT codepoint (registry-resolved). The one bit
    /// is read under the registry's read lock; no handle leaves it.
    pub fn for_fti(fti: u8) -> Result<PayloadIdFormat, FluteError> {
        // A poisoned lock still guards a valid registry: registration
        // validates first and then only appends.
        let codecs = registry::global()
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let code = codecs.codes().iter().find(|c| c.fti_id() == Some(fti));
        code.map(PayloadIdFormat::for_code)
            .ok_or_else(|| FluteError::Unsupported {
                reason: format!("FEC Encoding ID {fti}"),
            })
    }
}

/// Wire size of every payload-ID shape in this crate.
pub const PAYLOAD_ID_LEN: usize = 4;

/// Maximum ESI in the packed large-block shape (20 bits).
pub const MAX_LARGE_BLOCK_ESI: u32 = (1 << 20) - 1;

/// Maximum SBN in the packed large-block shape (12 bits).
pub const MAX_LARGE_BLOCK_SBN: u32 = (1 << 12) - 1;

/// A decoded FEC Payload ID: which symbol of which block this packet
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FecPayloadId {
    /// Source block number.
    pub sbn: u32,
    /// Encoding symbol ID within the block.
    pub esi: u32,
}

impl FecPayloadId {
    /// Creates an ID (range checks happen at encode time, against the
    /// codepoint-specific layout).
    pub fn new(sbn: u32, esi: u32) -> FecPayloadId {
        FecPayloadId { sbn, esi }
    }

    /// Encodes for the given payload-ID layout.
    pub fn to_bytes(self, format: PayloadIdFormat) -> Result<[u8; PAYLOAD_ID_LEN], FluteError> {
        match format {
            PayloadIdFormat::SmallBlock => {
                let sbn = u16::try_from(self.sbn).map_err(|_| FluteError::Malformed {
                    reason: format!("SBN {} exceeds 16 bits", self.sbn),
                })?;
                let esi = u16::try_from(self.esi).map_err(|_| FluteError::Malformed {
                    reason: format!("ESI {} exceeds 16 bits", self.esi),
                })?;
                let [s0, s1] = sbn.to_be_bytes();
                let [e0, e1] = esi.to_be_bytes();
                Ok([s0, s1, e0, e1])
            }
            PayloadIdFormat::LargeBlock => {
                if self.sbn > MAX_LARGE_BLOCK_SBN {
                    return Err(FluteError::Malformed {
                        reason: format!("SBN {} exceeds 12 bits", self.sbn),
                    });
                }
                if self.esi > MAX_LARGE_BLOCK_ESI {
                    return Err(FluteError::Malformed {
                        reason: format!("ESI {} exceeds 20 bits", self.esi),
                    });
                }
                Ok(((self.sbn << 20) | self.esi).to_be_bytes())
            }
        }
    }

    /// Decodes for the given payload-ID layout.
    pub fn from_bytes(
        data: &[u8],
        format: PayloadIdFormat,
    ) -> Result<(FecPayloadId, usize), FluteError> {
        let word = Reader::new(data, "FEC payload ID").u32_be()?;
        let id = match format {
            PayloadIdFormat::SmallBlock => FecPayloadId {
                sbn: word >> 16,
                esi: word & 0xFFFF,
            },
            PayloadIdFormat::LargeBlock => FecPayloadId {
                sbn: word >> 20,
                esi: word & 0xF_FFFF,
            },
        };
        Ok((id, PAYLOAD_ID_LEN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_block_roundtrip() {
        let id = FecPayloadId::new(0x1234, 0xFEDC);
        let wire = id.to_bytes(PayloadIdFormat::SmallBlock).unwrap();
        assert_eq!(wire, [0x12, 0x34, 0xFE, 0xDC]);
        let (back, n) = FecPayloadId::from_bytes(&wire, PayloadIdFormat::SmallBlock).unwrap();
        assert_eq!((back, n), (id, 4));
    }

    #[test]
    fn large_block_packing() {
        let id = FecPayloadId::new(0, 0xF_FFFF);
        let wire = id.to_bytes(PayloadIdFormat::LargeBlock).unwrap();
        assert_eq!(wire, [0x00, 0x0F, 0xFF, 0xFF]);
        let id2 = FecPayloadId::new(1, 0);
        assert_eq!(
            id2.to_bytes(PayloadIdFormat::LargeBlock).unwrap(),
            [0x00, 0x10, 0x00, 0x00]
        );
    }

    #[test]
    fn range_violations_rejected() {
        assert!(FecPayloadId::new(1 << 16, 0)
            .to_bytes(PayloadIdFormat::SmallBlock)
            .is_err());
        assert!(FecPayloadId::new(0, 1 << 16)
            .to_bytes(PayloadIdFormat::SmallBlock)
            .is_err());
        assert!(FecPayloadId::new(1 << 12, 0)
            .to_bytes(PayloadIdFormat::LargeBlock)
            .is_err());
        assert!(FecPayloadId::new(0, 1 << 20)
            .to_bytes(PayloadIdFormat::LargeBlock)
            .is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(FecPayloadId::from_bytes(&[1, 2, 3], PayloadIdFormat::LargeBlock).is_err());
    }

    proptest! {
        #[test]
        fn small_block_roundtrip_arbitrary(sbn in 0u32..=0xFFFF, esi in 0u32..=0xFFFF) {
            let id = FecPayloadId::new(sbn, esi);
            let wire = id.to_bytes(PayloadIdFormat::SmallBlock).unwrap();
            let (back, _) =
                FecPayloadId::from_bytes(&wire, PayloadIdFormat::SmallBlock).unwrap();
            prop_assert_eq!(back, id);
        }

        #[test]
        fn large_block_roundtrip_arbitrary(
            sbn in 0u32..=MAX_LARGE_BLOCK_SBN,
            esi in 0u32..=MAX_LARGE_BLOCK_ESI,
        ) {
            let id = FecPayloadId::new(sbn, esi);
            let wire = id.to_bytes(PayloadIdFormat::LargeBlock).unwrap();
            let (back, _) = FecPayloadId::from_bytes(&wire, PayloadIdFormat::LargeBlock).unwrap();
            prop_assert_eq!(back, id);
        }
    }
}
