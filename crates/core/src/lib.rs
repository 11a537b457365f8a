//! The application-facing layer of the `fec-broadcast` workspace.
//!
//! Everything below this crate is a building block (fields, codecs,
//! channels, schedules, simulators); this crate assembles them into what a
//! FLUTE-like content-broadcasting system actually needs:
//!
//! * [`CodeSpec`] — a complete, serialisable description of a FEC
//!   configuration (code, object size, expansion ratio, matrix seed) that
//!   sender and receivers share out of band (e.g. in an FDT);
//! * [`Sender`] / [`Receiver`] — byte-true encoding sessions: the sender
//!   lends each symbol by its [`PacketRef`](fec_sched::PacketRef),
//!   encoding a run of parity the first time a symbol of it is asked
//!   for, the receiver consumes borrowed
//!   symbols in any order, across any losses, and reproduces the object
//!   exactly;
//! * [`recommend`](crate::recommend()) and [`MeasuredSelector`] — the
//!   paper's §6 decision procedure: given what you know about the channel,
//!   which (code, transmission model, expansion ratio) tuple should you
//!   deploy, rule-based or measured;
//! * [`TransmissionPlan`] — the §6.2 `n_sent` optimisation (equation 3):
//!   stop transmitting once the expected deliveries cover
//!   `inef_ratio * k + ε`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emission;
mod error;
mod plan;
mod receiver;
mod recommend;
mod sender;
mod spec;

pub use emission::{Amendment, PlannedEmission};
pub use error::CoreError;
pub use plan::{optimal_n_sent, TransmissionPlan};
pub use receiver::Receiver;
pub use recommend::{
    recommend, recommend_known, ChannelKnowledge, MeasuredChoice, MeasuredSelector, Recommendation,
};
pub use sender::Sender;
pub use spec::CodeSpec;

// Re-export the vocabulary types so applications need only this crate.
pub use fec_codec::{CodecHandle, DecodeProgress, ErasureCode, ExpansionRatio};
pub use fec_sched::{RxModel, TxModel};
