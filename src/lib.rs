//! # fec-broadcast
//!
//! A packet-level Forward Error Correction toolkit reproducing *"Impacts of
//! Packet Scheduling and Packet Loss Distribution on FEC Performances:
//! Observations and Recommendations"* (Neumann, Roca, Francillon, Furodet —
//! INRIA RR-5578 / CoNEXT 2005).
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names so applications can depend on a single crate.
//!
//! ```
//! use fec_broadcast::prelude::*;
//!
//! // Encode a tiny object with LDGM Staircase, push packets through a lossy
//! // Gilbert channel in Tx_model_4 (fully random) order, and decode.
//! let spec = CodeSpec::ldgm_staircase(100, ExpansionRatio::R2_5);
//! let object: Vec<u8> = (0..100u32 * 16).map(|i| (i % 251) as u8).collect();
//! let mut sender = Sender::new(spec.clone(), &object, 16).unwrap();
//! let schedule = TxModel::Random.schedule(sender.layout(), 7);
//! let mut receiver = Receiver::new(spec, object.len(), 16).unwrap();
//! let mut channel = GilbertChannel::new(GilbertParams::new(0.05, 0.6).unwrap(), 99);
//! for r in schedule {
//!     if channel.next_is_lost() {
//!         continue;
//!     }
//!     if receiver.push(r, sender.symbol(r).unwrap()).unwrap().is_decoded() {
//!         break;
//!     }
//! }
//! assert_eq!(receiver.into_object().unwrap(), object);
//! ```

pub mod live;
pub mod world;

pub use fec_adapt as adapt;
pub use fec_channel as channel;
pub use fec_codec as codec;
pub use fec_core as core;
pub use fec_flute as flute;
pub use fec_gf256 as gf256;
pub use fec_ldgm as ldgm;
pub use fec_rse as rse;
pub use fec_sched as sched;
pub use fec_sim as sim;
pub use fec_telemetry as telemetry;
pub use fec_wire as wire;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use fec_adapt::{AdaptiveController, ControllerConfig, OnlineGilbertEstimator};
    pub use fec_channel::{DriftingChannel, GilbertChannel, GilbertParams, LossModel, Regime};
    pub use fec_codec::{
        CodecHandle, CodecRegistry, DecodeProgress, Envelope, ErasureCode, SessionParams, Symbol,
    };
    pub use fec_core::{
        recommend, ChannelKnowledge, CodeSpec, MeasuredSelector, Receiver, Recommendation, Sender,
        TransmissionPlan,
    };
    pub use fec_flute::{FluteReceiver, FluteSender, ObjectStatus, ReceiverEvent, SenderConfig};
    pub use fec_sched::{Layout, PacketRef, RxModel, TxModel};
    pub use fec_sim::{ExpansionRatio, Experiment, GridSweep, Runner, SweepConfig, SweepResult};
    pub use fec_telemetry::{Event, EventLog, JsonlSink, MetricsServer, Registry, SessionSummary};
}
