//! fec-audit: deny(panic)
//!
//! The reception-report digest wire format.
//!
//! One digest is a single small UDP datagram (RTCP receiver-report style):
//! cumulative per-TOI received/lost counts, plus a run-length sketch of
//! the loss pattern observed *since the previous digest* — exactly the
//! sufficient statistic an [`OnlineGilbertEstimator`]
//! (`fec_adapt::OnlineGilbertEstimator`) needs, in transmission order.
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | magic = "FBRR"                                                |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | version = 1   | flags         | entry_count (u16)             |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | run_count (u16)               | reserved = 0                  |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | TSI                                                           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | report_seq                                                    |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | highest_seq (0 unless flags bit 1)                            |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | entries: entry_count × 16 bytes                               |
//! |   TOI (u32) | received (u32) | lost (u32) | status | 3 × pad  |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | runs: run_count × 4 bytes                                     |
//! |   bit 31 = lost, bits 30..0 = run length                      |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | nacks: nack_count × (12 + 4·esi_count) bytes (flags bit 3)    |
//! |   TOI (u32) | block (u32) | esi_count (u16) | pad (u16)       |
//! |   missing ESIs: esi_count × u32                               |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! Flags: bit 0 = session complete (every FDT-listed object decoded),
//! bit 1 = `highest_seq` valid, bit 2 = the run sketch overflowed and its
//! oldest runs were dropped (counts stay exact), bit 3 = the digest
//! carries a NACK section (per-block missing-ESI lists; its count lives
//! in the header word that was reserved-zero before the extension, so
//! NACK-free digests are byte-identical to the original format). Entry
//! status: bit 0 = object complete. All integers big-endian. Unknown
//! flag or status bits are rejected loudly — the format is versioned,
//! not sniffed.
//!
//! The layout is hand-rolled (and golden-tested byte for byte) because the
//! digest crosses the wire; the structs also derive `serde` traits so
//! digests can be logged/replayed as JSON in tooling.

use serde::{Deserialize, Serialize};

use crate::reader::Reader;
use crate::FluteError;

/// EXT_SEQ sequence numbers live in 24 bits and wrap at this modulus.
pub const SEQ_MODULUS: u32 = 1 << 24;

/// Magic prefix of every digest datagram.
pub const REPORT_MAGIC: [u8; 4] = *b"FBRR";

/// Digest format version.
pub const REPORT_VERSION: u8 = 1;

/// Fixed header size of a digest, in bytes.
pub const REPORT_HEADER_LEN: usize = 24;

/// Wire size of one per-TOI entry.
pub const REPORT_ENTRY_LEN: usize = 16;

/// Wire size of one loss run.
pub const REPORT_RUN_LEN: usize = 4;

/// Fixed prefix of one NACK entry (TOI, block, esi_count, pad) before its
/// missing-ESI list.
pub const REPORT_NACK_HEADER_LEN: usize = 12;

const FLAG_SESSION_COMPLETE: u8 = 1 << 0;
const FLAG_HAS_HIGHEST_SEQ: u8 = 1 << 1;
const FLAG_TRUNCATED: u8 = 1 << 2;
const FLAG_HAS_NACKS: u8 = 1 << 3;
const STATUS_COMPLETE: u8 = 1 << 0;
const RUN_LOST_BIT: u32 = 1 << 31;

/// Cumulative per-TOI reception counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportEntry {
    /// The object (TOI 0 is the FDT).
    pub toi: u32,
    /// Data datagrams received for this TOI, duplicates included.
    pub received: u32,
    /// Losses attributed to this TOI (sequence gaps closed by one of its
    /// packets — exact per session, approximate per TOI at boundaries).
    pub lost: u32,
    /// Whether the object has fully decoded.
    pub complete: bool,
}

/// One run of consecutive same-fate packets in the loss sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossRun {
    /// `true` = every packet of the run was lost.
    pub lost: bool,
    /// Run length in packets (1 ..= 2³¹−1).
    pub len: u32,
}

/// One block the receiver cannot finish: the ESIs it still needs.
///
/// A NACK names *specific* symbols so the sender can emit targeted
/// repair instead of extending the whole-schedule carousel. For MDS
/// codes any fresh symbols would do, but naming the missing ESIs keeps
/// the request exact (no duplicate risk) and works for every codec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NackEntry {
    /// The object the block belongs to.
    pub toi: u32,
    /// Source block number within the object.
    pub block: u32,
    /// ESIs of symbols still missing from the block, ascending, 1 ..=
    /// 65535 per entry.
    pub esis: Vec<u32>,
}

impl NackEntry {
    /// Wire size of this entry in bytes.
    pub fn wire_len(&self) -> usize {
        REPORT_NACK_HEADER_LEN + self.esis.len() * 4
    }
}

/// A complete reception-report digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceptionReport {
    /// The session being reported on.
    pub tsi: u32,
    /// Monotone digest counter (starts at 1) — the sender's dedup and
    /// reorder guard.
    pub report_seq: u32,
    /// Highest EXT_SEQ value observed, if any datagram carried one.
    pub highest_seq: Option<u32>,
    /// Every FDT-listed object has decoded.
    pub session_complete: bool,
    /// The run sketch overflowed and dropped its oldest runs (the
    /// cumulative counts in `entries` remain exact).
    pub truncated: bool,
    /// Cumulative per-TOI counters, ascending TOI order.
    pub entries: Vec<ReportEntry>,
    /// Loss pattern observed since the previous digest, in transmission
    /// order.
    pub runs: Vec<LossRun>,
    /// Per-block missing-ESI lists (NACK mode): the symbols the receiver
    /// still needs, ascending `(toi, block)` order. Empty unless the
    /// receiver runs with NACKs enabled.
    pub nacks: Vec<NackEntry>,
}

impl ReceptionReport {
    /// Total packets covered by the run sketch.
    pub fn observations(&self) -> u64 {
        self.runs.iter().map(|r| r.len as u64).sum()
    }

    /// The sketch as `(lost, len)` pairs for estimator ingestion.
    pub fn run_pairs(&self) -> impl Iterator<Item = (bool, u64)> + '_ {
        self.runs.iter().map(|r| (r.lost, r.len as u64))
    }

    /// Total symbols requested across the NACK section.
    pub fn nack_symbols(&self) -> u64 {
        self.nacks.iter().map(|n| n.esis.len() as u64).sum()
    }

    /// Wire size of this digest in bytes.
    pub fn wire_len(&self) -> usize {
        REPORT_HEADER_LEN
            + self.entries.len() * REPORT_ENTRY_LEN
            + self.runs.len() * REPORT_RUN_LEN
            + self.nacks.iter().map(NackEntry::wire_len).sum::<usize>()
    }

    /// Serialises the digest.
    pub fn to_bytes(&self) -> Result<Vec<u8>, FluteError> {
        if self.entries.len() > u16::MAX as usize
            || self.runs.len() > u16::MAX as usize
            || self.nacks.len() > u16::MAX as usize
        {
            return Err(FluteError::Malformed {
                reason: format!(
                    "digest with {} entries / {} runs / {} nacks exceeds the u16 counts",
                    self.entries.len(),
                    self.runs.len(),
                    self.nacks.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&REPORT_MAGIC);
        out.push(REPORT_VERSION);
        let mut flags = 0u8;
        if self.session_complete {
            flags |= FLAG_SESSION_COMPLETE;
        }
        if self.highest_seq.is_some() {
            flags |= FLAG_HAS_HIGHEST_SEQ;
        }
        if self.truncated {
            flags |= FLAG_TRUNCATED;
        }
        if !self.nacks.is_empty() {
            flags |= FLAG_HAS_NACKS;
        }
        out.push(flags);
        out.extend_from_slice(&(self.entries.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.runs.len() as u16).to_be_bytes());
        // The pre-NACK format kept this word reserved-zero, so a digest
        // without NACKs still serialises byte-identically.
        out.extend_from_slice(&(self.nacks.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.tsi.to_be_bytes());
        out.extend_from_slice(&self.report_seq.to_be_bytes());
        let highest = match self.highest_seq {
            Some(s) if s >= SEQ_MODULUS => {
                return Err(FluteError::Malformed {
                    reason: format!("highest_seq {s} exceeds the 24-bit EXT_SEQ space"),
                })
            }
            Some(s) => s,
            None => 0,
        };
        out.extend_from_slice(&highest.to_be_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.toi.to_be_bytes());
            out.extend_from_slice(&e.received.to_be_bytes());
            out.extend_from_slice(&e.lost.to_be_bytes());
            out.push(if e.complete { STATUS_COMPLETE } else { 0 });
            out.extend_from_slice(&[0, 0, 0]);
        }
        for r in &self.runs {
            if r.len == 0 || r.len >= RUN_LOST_BIT {
                return Err(FluteError::Malformed {
                    reason: format!("loss run of {} packets is unrepresentable", r.len),
                });
            }
            let word = if r.lost { RUN_LOST_BIT | r.len } else { r.len };
            out.extend_from_slice(&word.to_be_bytes());
        }
        for n in &self.nacks {
            if n.esis.is_empty() || n.esis.len() > u16::MAX as usize {
                return Err(FluteError::Malformed {
                    reason: format!(
                        "NACK for toi {} block {} lists {} ESIs (must be 1..=65535)",
                        n.toi,
                        n.block,
                        n.esis.len()
                    ),
                });
            }
            out.extend_from_slice(&n.toi.to_be_bytes());
            out.extend_from_slice(&n.block.to_be_bytes());
            out.extend_from_slice(&(n.esis.len() as u16).to_be_bytes());
            out.extend_from_slice(&[0, 0]);
            for esi in &n.esis {
                out.extend_from_slice(&esi.to_be_bytes());
            }
        }
        debug_assert_eq!(out.len(), self.wire_len());
        Ok(out)
    }

    /// A report with no entries, runs or NACKs: a parse target.
    pub(crate) const EMPTY: ReceptionReport = ReceptionReport {
        tsi: 0,
        report_seq: 0,
        highest_seq: None,
        session_complete: false,
        truncated: false,
        entries: Vec::new(),
        runs: Vec::new(),
        nacks: Vec::new(),
    };

    /// Parses a digest datagram.
    pub fn from_bytes(data: &[u8]) -> Result<ReceptionReport, FluteError> {
        let mut report = ReceptionReport::EMPTY;
        report.read_from(data)?;
        Ok(report)
    }

    /// Parses a digest datagram into `self`, reusing the capacity of its
    /// entry, run and NACK vectors, so a caller that keeps one report
    /// parses a stream of digests allocating only each NACK's ESI list.
    /// After an error the report's contents are unspecified.
    pub(crate) fn read_from(&mut self, data: &[u8]) -> Result<(), FluteError> {
        let mut r = Reader::new(data, "reception report header");
        if r.array::<4>()? != REPORT_MAGIC {
            return Err(FluteError::Malformed {
                reason: "reception report magic mismatch".into(),
            });
        }
        let version = r.u8()?;
        if version != REPORT_VERSION {
            return Err(FluteError::Unsupported {
                reason: format!("reception report version {version}"),
            });
        }
        let flags = r.u8()?;
        if flags & !(FLAG_SESSION_COMPLETE | FLAG_HAS_HIGHEST_SEQ | FLAG_TRUNCATED | FLAG_HAS_NACKS)
            != 0
        {
            return Err(FluteError::Unsupported {
                reason: format!("reception report flags {flags:#04x}"),
            });
        }
        let entry_count = r.u16_be()? as usize;
        let run_count = r.u16_be()? as usize;
        let nack_count = r.u16_be()? as usize;
        let has_nacks = flags & FLAG_HAS_NACKS != 0;
        if has_nacks != (nack_count > 0) {
            return Err(FluteError::Malformed {
                reason: format!(
                    "NACK flag {} but nack_count {nack_count}",
                    if has_nacks { "set" } else { "clear" }
                ),
            });
        }
        // Without NACKs the digest length is fully determined by the
        // header counts, so demand it exactly; with NACKs each entry
        // carries its own ESI count, so demand at least the fixed parts
        // here and full consumption after the variable tail parses.
        let fixed = REPORT_HEADER_LEN
            + entry_count * REPORT_ENTRY_LEN
            + run_count * REPORT_RUN_LEN
            + nack_count * REPORT_NACK_HEADER_LEN;
        if data.len() < fixed || (!has_nacks && data.len() != fixed) {
            return Err(FluteError::Truncated {
                what: "reception report body",
                needed: fixed,
                got: data.len(),
            });
        }
        // The check above covers the header tail, every entry and every
        // run: read them as whole records; only the NACK tail, whose
        // length the header does not fix, goes field by field.
        let [tsi, report_seq, highest_raw] = be_words(r.take(REPORT_HEADER_LEN - r.pos())?);
        let entries = r.take(entry_count * REPORT_ENTRY_LEN)?;
        let runs = r.take(run_count * REPORT_RUN_LEN)?;
        self.tsi = tsi;
        self.report_seq = report_seq;
        self.highest_seq = if flags & FLAG_HAS_HIGHEST_SEQ != 0 {
            if highest_raw >= SEQ_MODULUS {
                return Err(FluteError::Malformed {
                    reason: format!("highest_seq {highest_raw} exceeds the EXT_SEQ space"),
                });
            }
            Some(highest_raw)
        } else {
            None
        };
        self.session_complete = flags & FLAG_SESSION_COMPLETE != 0;
        self.truncated = flags & FLAG_TRUNCATED != 0;

        self.entries.clear();
        self.entries.reserve(entry_count);
        for entry in entries.as_chunks::<REPORT_ENTRY_LEN>().0 {
            // The status byte leads the last word; its three pad bytes
            // are ignored.
            let [toi, received, lost, status_word] = be_words(entry);
            let status = (status_word >> 24) as u8;
            if status & !STATUS_COMPLETE != 0 {
                return Err(FluteError::Unsupported {
                    reason: format!("reception report entry status {status:#04x}"),
                });
            }
            self.entries.push(ReportEntry {
                toi,
                received,
                lost,
                complete: status & STATUS_COMPLETE != 0,
            });
        }
        self.runs.clear();
        self.runs.reserve(run_count);
        for &run in runs.as_chunks::<REPORT_RUN_LEN>().0 {
            let word = u32::from_be_bytes(run);
            let len = word & !RUN_LOST_BIT;
            if len == 0 {
                return Err(FluteError::Malformed {
                    reason: "zero-length loss run".into(),
                });
            }
            self.runs.push(LossRun {
                lost: word & RUN_LOST_BIT != 0,
                len,
            });
        }
        self.nacks.clear();
        self.nacks.reserve(nack_count);
        for _ in 0..nack_count {
            let toi = r.u32_be()?;
            let block = r.u32_be()?;
            let esi_count = r.u16_be()? as usize;
            let _pad = r.u16_be()?;
            if esi_count == 0 {
                return Err(FluteError::Malformed {
                    reason: format!("empty NACK for toi {toi} block {block}"),
                });
            }
            // Bound the pre-allocation by what the buffer can actually
            // hold so a forged count cannot balloon memory.
            let remaining = data.len().saturating_sub(r.pos()) / 4;
            let mut esis = Vec::with_capacity(esi_count.min(remaining));
            for _ in 0..esi_count {
                esis.push(r.u32_be()?);
            }
            self.nacks.push(NackEntry { toi, block, esis });
        }
        if r.pos() != data.len() {
            return Err(FluteError::Malformed {
                reason: format!(
                    "reception report carries {} trailing bytes",
                    data.len() - r.pos()
                ),
            });
        }
        Ok(())
    }
}

/// The big-endian words in the first `4·N` bytes of a record the length
/// check already covered.
fn be_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    let mut words = [0u32; N];
    for (word, chunk) in words.iter_mut().zip(bytes.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*chunk);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReceptionReport {
        ReceptionReport {
            tsi: 0x0000_0007,
            report_seq: 3,
            highest_seq: Some(0x00AB_CDEF),
            session_complete: false,
            truncated: false,
            entries: vec![
                ReportEntry {
                    toi: 0,
                    received: 2,
                    lost: 1,
                    complete: false,
                },
                ReportEntry {
                    toi: 1,
                    received: 0x0102,
                    lost: 9,
                    complete: true,
                },
            ],
            runs: vec![
                LossRun {
                    lost: false,
                    len: 200,
                },
                LossRun { lost: true, len: 3 },
                LossRun {
                    lost: false,
                    len: 77,
                },
            ],
            nacks: vec![],
        }
    }

    fn sample_with_nacks() -> ReceptionReport {
        let mut r = sample();
        r.nacks = vec![
            NackEntry {
                toi: 1,
                block: 2,
                esis: vec![5, 0x0001_0203],
            },
            NackEntry {
                toi: 3,
                block: 0,
                esis: vec![7],
            },
        ];
        r
    }

    /// The byte layout is a wire contract: golden bytes, not just a
    /// roundtrip.
    #[test]
    fn golden_wire_layout() {
        let wire = sample().to_bytes().unwrap();
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            // magic, version, flags (has_highest_seq), counts, reserved
            b'F', b'B', b'R', b'R', 1, 0x02, 0x00, 0x02, 0x00, 0x03, 0, 0,
            // tsi = 7, report_seq = 3, highest_seq = 0xABCDEF
            0, 0, 0, 7, 0, 0, 0, 3, 0x00, 0xAB, 0xCD, 0xEF,
            // entry: toi 0, received 2, lost 1, incomplete
            0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0x00, 0, 0, 0,
            // entry: toi 1, received 0x102, lost 9, complete
            0, 0, 0, 1, 0, 0, 0x01, 0x02, 0, 0, 0, 9, 0x01, 0, 0, 0,
            // runs: delivered 200, lost 3, delivered 77
            0x00, 0x00, 0x00, 200, 0x80, 0x00, 0x00, 3, 0x00, 0x00, 0x00, 77,
        ];
        assert_eq!(wire, expected);
        assert_eq!(wire.len(), sample().wire_len());
    }

    /// The NACK section is a wire contract too: golden bytes, including
    /// the flag bit and the count in the formerly-reserved header word.
    #[test]
    fn golden_nack_layout() {
        let report = sample_with_nacks();
        let wire = report.to_bytes().unwrap();
        // Unchanged prefix except flags (|= 0x08) and nack_count = 2.
        let mut expected = sample().to_bytes().unwrap();
        expected[5] |= 0x08;
        expected[10..12].copy_from_slice(&2u16.to_be_bytes());
        #[rustfmt::skip]
        expected.extend_from_slice(&[
            // nack: toi 1, block 2, 2 ESIs, pad, ESIs 5 and 0x010203
            0, 0, 0, 1, 0, 0, 0, 2, 0, 2, 0, 0,
            0, 0, 0, 5, 0x00, 0x01, 0x02, 0x03,
            // nack: toi 3, block 0, 1 ESI, pad, ESI 7
            0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 0, 0,
            0, 0, 0, 7,
        ]);
        assert_eq!(wire, expected);
        assert_eq!(wire.len(), report.wire_len());
        assert_eq!(report.nack_symbols(), 3);
        assert_eq!(ReceptionReport::from_bytes(&wire).unwrap(), report);
        // Every truncation of a NACK digest is rejected.
        for cut in 0..wire.len() {
            assert!(
                ReceptionReport::from_bytes(&wire[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut long = wire.clone();
        long.push(0);
        assert!(ReceptionReport::from_bytes(&long).is_err(), "trailing junk");
    }

    /// One kept report parsed again and again, across shapes and after
    /// a rejected datagram, reads exactly what a fresh parse reads.
    #[test]
    fn read_from_reuses_one_report() {
        let mut more_nacks = sample_with_nacks();
        more_nacks.nacks.push(NackEntry {
            toi: 4,
            block: 1,
            esis: (0..40).collect(),
        });
        let mut kept = ReceptionReport::EMPTY;
        for report in [
            sample_with_nacks(),
            sample(),
            more_nacks.clone(),
            sample_with_nacks(),
        ] {
            let wire = report.to_bytes().unwrap();
            kept.read_from(&wire).unwrap();
            assert_eq!(kept, report);
            assert_eq!(kept, ReceptionReport::from_bytes(&wire).unwrap());
        }
        let wire = more_nacks.to_bytes().unwrap();
        assert!(kept.read_from(&wire[..wire.len() - 1]).is_err());
        kept.read_from(&wire).unwrap();
        assert_eq!(kept, more_nacks);
    }

    /// The parser before whole-record reads: one `Reader` call per field.
    /// Kept as the reference `read_from` must agree with.
    fn reference_parse(data: &[u8]) -> Result<ReceptionReport, FluteError> {
        let mut r = Reader::new(data, "reception report header");
        if r.array::<4>()? != REPORT_MAGIC {
            return Err(FluteError::Malformed {
                reason: "reception report magic mismatch".into(),
            });
        }
        let version = r.u8()?;
        if version != REPORT_VERSION {
            return Err(FluteError::Unsupported {
                reason: format!("reception report version {version}"),
            });
        }
        let flags = r.u8()?;
        if flags & !(FLAG_SESSION_COMPLETE | FLAG_HAS_HIGHEST_SEQ | FLAG_TRUNCATED | FLAG_HAS_NACKS)
            != 0
        {
            return Err(FluteError::Unsupported {
                reason: format!("reception report flags {flags:#04x}"),
            });
        }
        let entry_count = r.u16_be()? as usize;
        let run_count = r.u16_be()? as usize;
        let nack_count = r.u16_be()? as usize;
        let has_nacks = flags & FLAG_HAS_NACKS != 0;
        if has_nacks != (nack_count > 0) {
            return Err(FluteError::Malformed {
                reason: format!(
                    "NACK flag {} but nack_count {nack_count}",
                    if has_nacks { "set" } else { "clear" }
                ),
            });
        }
        let fixed = REPORT_HEADER_LEN
            + entry_count * REPORT_ENTRY_LEN
            + run_count * REPORT_RUN_LEN
            + nack_count * REPORT_NACK_HEADER_LEN;
        if data.len() < fixed || (!has_nacks && data.len() != fixed) {
            return Err(FluteError::Truncated {
                what: "reception report body",
                needed: fixed,
                got: data.len(),
            });
        }
        let mut out = ReceptionReport::EMPTY;
        out.tsi = r.u32_be()?;
        out.report_seq = r.u32_be()?;
        let highest_raw = r.u32_be()?;
        out.highest_seq = if flags & FLAG_HAS_HIGHEST_SEQ != 0 {
            if highest_raw >= SEQ_MODULUS {
                return Err(FluteError::Malformed {
                    reason: format!("highest_seq {highest_raw} exceeds the EXT_SEQ space"),
                });
            }
            Some(highest_raw)
        } else {
            None
        };
        out.session_complete = flags & FLAG_SESSION_COMPLETE != 0;
        out.truncated = flags & FLAG_TRUNCATED != 0;
        for _ in 0..entry_count {
            let toi = r.u32_be()?;
            let received = r.u32_be()?;
            let lost = r.u32_be()?;
            let status = r.u8()?;
            let _pad = r.take(3)?;
            if status & !STATUS_COMPLETE != 0 {
                return Err(FluteError::Unsupported {
                    reason: format!("reception report entry status {status:#04x}"),
                });
            }
            out.entries.push(ReportEntry {
                toi,
                received,
                lost,
                complete: status & STATUS_COMPLETE != 0,
            });
        }
        for _ in 0..run_count {
            let word = r.u32_be()?;
            let len = word & !RUN_LOST_BIT;
            if len == 0 {
                return Err(FluteError::Malformed {
                    reason: "zero-length loss run".into(),
                });
            }
            out.runs.push(LossRun {
                lost: word & RUN_LOST_BIT != 0,
                len,
            });
        }
        for _ in 0..nack_count {
            let toi = r.u32_be()?;
            let block = r.u32_be()?;
            let esi_count = r.u16_be()? as usize;
            let _pad = r.u16_be()?;
            if esi_count == 0 {
                return Err(FluteError::Malformed {
                    reason: format!("empty NACK for toi {toi} block {block}"),
                });
            }
            let mut esis = Vec::new();
            for _ in 0..esi_count {
                esis.push(r.u32_be()?);
            }
            out.nacks.push(NackEntry { toi, block, esis });
        }
        if r.pos() != data.len() {
            return Err(FluteError::Malformed {
                reason: format!(
                    "reception report carries {} trailing bytes",
                    data.len() - r.pos()
                ),
            });
        }
        Ok(out)
    }

    /// Every single-byte flip (each bit, and all eight at once) and every
    /// truncation of valid digests, with and without NACKs, parses to the
    /// reference's report or fails with the reference's error, variant
    /// and detail.
    #[test]
    fn read_from_agrees_with_the_field_by_field_reference() {
        let mut fin = sample();
        fin.session_complete = true;
        fin.truncated = true;
        fin.highest_seq = None;
        let mut bare = sample();
        bare.entries.clear();
        bare.runs.clear();
        let mut more_nacks = sample_with_nacks();
        more_nacks.entries.clear();
        more_nacks.nacks.push(NackEntry {
            toi: 4,
            block: 1,
            esis: (0..5).collect(),
        });
        let mut kept = ReceptionReport::EMPTY;
        let mut check = |bytes: &[u8], what: &str| {
            let got = kept.read_from(bytes).map(|()| kept.clone());
            assert_eq!(got, reference_parse(bytes), "{what}");
        };
        for report in [sample(), fin, bare, sample_with_nacks(), more_nacks] {
            let wire = report.to_bytes().unwrap();
            check(&wire, "valid");
            for cut in 0..wire.len() {
                check(&wire[..cut], &format!("cut {cut}"));
            }
            for at in 0..wire.len() {
                for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                    let mut flipped = wire.clone();
                    flipped[at] ^= mask;
                    check(&flipped, &format!("byte {at} ^ {mask:#04x}"));
                }
            }
        }
    }

    #[test]
    fn nack_flag_and_count_must_agree() {
        // Count without the flag: the formerly-reserved word is nonzero.
        let mut wire = sample().to_bytes().unwrap();
        wire[10..12].copy_from_slice(&1u16.to_be_bytes());
        assert!(
            ReceptionReport::from_bytes(&wire).is_err(),
            "count, no flag"
        );
        // Flag without a count.
        let mut wire = sample().to_bytes().unwrap();
        wire[5] |= 0x08;
        assert!(
            ReceptionReport::from_bytes(&wire).is_err(),
            "flag, no count"
        );
        // An empty ESI list is unrepresentable.
        let mut r = sample();
        r.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![],
        }];
        assert!(r.to_bytes().is_err(), "empty NACK");
        // A forged zero esi_count on the wire is rejected on parse.
        let mut wire = sample_with_nacks().to_bytes().unwrap();
        let off = REPORT_HEADER_LEN + 2 * REPORT_ENTRY_LEN + 3 * REPORT_RUN_LEN + 8;
        wire[off..off + 2].copy_from_slice(&0u16.to_be_bytes());
        assert!(
            ReceptionReport::from_bytes(&wire).is_err(),
            "zero esi_count"
        );
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        assert_eq!(
            ReceptionReport::from_bytes(&r.to_bytes().unwrap()).unwrap(),
            r
        );
        // Flag variants.
        let mut fin = sample();
        fin.session_complete = true;
        fin.truncated = true;
        fin.highest_seq = None;
        fin.runs.clear();
        fin.entries.truncate(1);
        let back = ReceptionReport::from_bytes(&fin.to_bytes().unwrap()).unwrap();
        assert_eq!(back, fin);
    }

    #[test]
    fn observations_counts_sketch_packets() {
        assert_eq!(sample().observations(), 280);
        let pairs: Vec<(bool, u64)> = sample().run_pairs().collect();
        assert_eq!(pairs, vec![(false, 200), (true, 3), (false, 77)]);
    }

    #[test]
    fn rejects_bad_magic_version_flags_and_sizes() {
        let wire = sample().to_bytes().unwrap();
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(ReceptionReport::from_bytes(&bad).is_err(), "magic");
        let mut bad = wire.clone();
        bad[4] = 9;
        assert!(ReceptionReport::from_bytes(&bad).is_err(), "version");
        let mut bad = wire.clone();
        bad[5] |= 0x80;
        assert!(ReceptionReport::from_bytes(&bad).is_err(), "unknown flag");
        for cut in 0..wire.len() {
            assert!(
                ReceptionReport::from_bytes(&wire[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut long = wire.clone();
        long.push(0);
        assert!(ReceptionReport::from_bytes(&long).is_err(), "trailing junk");
    }

    #[test]
    fn rejects_zero_length_runs_and_oversized_fields() {
        let mut r = sample();
        r.runs.push(LossRun { lost: true, len: 0 });
        assert!(r.to_bytes().is_err());
        let mut r = sample();
        r.highest_seq = Some(SEQ_MODULUS);
        assert!(r.to_bytes().is_err());
        // A zero run forged on the wire is rejected on parse too.
        let mut wire = sample().to_bytes().unwrap();
        let off = wire.len() - REPORT_RUN_LEN;
        wire[off..].copy_from_slice(&0u32.to_be_bytes());
        assert!(ReceptionReport::from_bytes(&wire).is_err());
    }
}
