//! FLUTE/ALC file-delivery sessions over the `fec-broadcast` codecs.
//!
//! The paper's motivating systems (§1) — IP Datacast in DVB-H, 3GPP MBMS,
//! data broadcast to cars — all deliver files over **ALC** (RFC 3450) with
//! the **FLUTE** application (RFC 3926): a feedback-free, massively-scalable
//! stack where reliability comes entirely from FEC and scheduling, i.e.
//! from exactly the machinery the rest of this workspace studies. This
//! crate provides that delivery layer as real wire formats and sessions:
//!
//! * [`lct`] — the LCT header (RFC 3451): transport session id (TSI),
//!   transport object id (TOI), flags, and header extensions;
//! * [`fti`] — FEC Object Transmission Information (EXT_FTI): everything a
//!   receiver needs to instantiate the right codec, including the LDGM
//!   matrix seed;
//! * [`payload_id`] — per-codepoint FEC payload IDs ((SBN, ESI) addressing,
//!   with RFC 5170's packed 12/20-bit form for the large-block codes);
//! * [`fdt`] — the File Delivery Table instance: FLUTE's in-band metadata
//!   channel (XML on TOI 0), with a strict no-dependency XML subset
//!   reader/writer and [`base64`] for scheme-specific OTI;
//! * [`alc`] — complete ALC datagrams: LCT header + payload ID + symbol;
//! * sessions — [`FluteSender`] / [`FluteReceiver`]: multi-object
//!   sessions that carry whole files (FDT + data) over any transmission
//!   schedule from `fec-sched`, tolerating loss, reordering and
//!   duplication; [`SessionStream`] emits a session incrementally with
//!   mid-flight plan amendments;
//! * [`feedback`] — the live adaptive loop's return channel: EXT_SEQ
//!   sequence stamping, [`ReceptionReport`] digests, the receiver-side
//!   [`ReportEmitter`] and the sender-side [`FeedbackAggregator`]
//!   driving an online channel estimator and §6.2 re-planning.
//!
//! ## What is implemented, and what is not (smoltcp-style)
//!
//! Implemented: single-channel sessions; 32-bit TSI and TOI; EXT_FTI and
//! EXT_FDT header extensions; FDT instances with the attributes FLUTE
//! requires plus the FEC-OTI set this workspace needs; close-session (A)
//! and close-object (B) flags; carousel re-transmission.
//!
//! **Not** implemented: congestion control (the CCI field is carried but
//! fixed to zero — these are broadcast channels with a provisioned rate);
//! multi-channel / layered sessions; EXT_AUTH / EXT_TIME; FDT Complete
//! semantics; gzip/deflate content encoding; 16/48/64-bit TSI/TOI shapes
//! (rejected explicitly at parse time, not silently misread).
//!
//! The wire layouts follow the *shape* of the RFCs (field names, widths,
//! extension numbering) so the code reads like the specs, but this crate
//! does not claim bit-compatibility with deployed FLUTE stacks — it is the
//! reproduction substrate for a 2005 research system, not an IOP-tested
//! implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alc;
pub mod base64;
mod error;
pub mod fdt;
pub mod feedback;
pub mod fti;
pub mod lct;
mod metrics;
pub mod payload_id;
mod reader;
mod session;

pub use alc::AlcPacket;
pub use error::FluteError;
pub use fdt::{FdtInstance, FileEntry};
pub use feedback::{
    AggregateOutcome, AggregatorConfig, FeedbackAggregator, NackEntry, ReceptionReport,
    ReportConfig, ReportEmitter,
};
pub use fti::{code_for_fti, fti_for_code, ObjectTransmissionInfo};
pub use lct::{HeaderExtension, LctHeader};
pub use payload_id::FecPayloadId;
pub use session::{
    FluteReceiver, FluteSender, ObjectStatus, ReceiverEvent, SenderConfig, SessionStream,
};

/// The TOI value reserved for FDT instances (RFC 3926 §3.4.1).
pub const FDT_TOI: u32 = 0;
