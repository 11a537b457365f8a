//! `fec-wire` — the batched datagram engine under every live UDP path.
//!
//! Three pieces, composable but independently usable:
//!
//! * [`pool`] — a reusable buffer pool ([`BufferPool`]/[`PoolBuf`]) that
//!   kills the per-datagram `to_vec()` allocation on the receive drain;
//!   a GRO burst leaves as views of the one slab it arrived in.
//! * [`pacing`] — token-bucket pacing ([`Pacer`]/[`TokenBucket`]) for the
//!   send path, replacing per-datagram sleeps.
//! * [`engine`] — [`BatchSender`]/[`BatchReceiver`]: `sendmmsg`/`recvmmsg`
//!   bursts on Linux, a portable loop-of-`recv` fallback behind the same
//!   API (forceable with `FEC_FORCE_WIRE=portable`), and the
//!   [`classify_recv_error`] contract live loops use to survive transient
//!   socket errors.
//!
//! The `unsafe` FFI is confined to the Linux-only private `sys` module
//! (audited by `fec-audit`); everything above it is safe Rust. On
//! capable kernels the engine opportunistically turns on UDP GSO/GRO
//! ([`BatchSender::enable_gso`]/[`BatchReceiver::enable_gro`]), which
//! coalesces runs of equal-size datagrams into super-datagrams without
//! changing the bytes a peer observes.

pub mod engine;
pub(crate) mod metrics;
pub mod pacing;
pub mod pool;
#[cfg(target_os = "linux")]
mod sys;

pub use engine::{
    classify_recv_error, Backend, BatchReceiver, BatchSender, RecvDisposition, MAX_BURST,
};
pub use pacing::{Pacer, TokenBucket};
pub use pool::{BufferPool, PoolBuf, DEFAULT_BUF_CAPACITY, DEFAULT_POOL_CAPACITY};
