//! fec-audit: deny(panic)
//!
//! The batched datagram engine: burst send and receive behind one API.
//!
//! On Linux the hot paths are single `sendmmsg`/`recvmmsg` syscalls
//! moving up to [`MAX_BURST`] datagrams; everywhere else (or under
//! `FEC_FORCE_WIRE=portable`) the same API runs a loop of plain
//! `send`/`recv` calls, so callers never branch on platform. Receive
//! bursts land in pooled slabs ([`crate::pool::BufferPool`]) and feed
//! the downstream batched decode paths (`FluteReceiver::push_datagrams`,
//! `Receiver::push_symbols`) — one syscall's worth of datagrams becomes
//! one deferred block solve. With UDP GRO a coalesced super-datagram
//! stays in the one slab it arrived in and leaves as one view per logical
//! datagram; with UDP GSO a burst is copied once into a buffer the sender
//! reuses and goes out as byte ranges of it.
//!
//! The receive ring is sized to what the kernel delivers, not to the
//! burst cap: a `recvmmsg` offers slots for as many messages as the last
//! drain filled plus one, doubling while calls come back full (see
//! [`BatchReceiver`]). A GSO burst of 64 datagrams reaches a GRO socket
//! as one or two messages, so the ring holds two to four 64 KiB slabs,
//! not the 64 (4 MiB) a full burst of plain datagrams needs.
//!
//! Error discipline for live loops lives in [`classify_recv_error`]: an
//! interrupted syscall is retried, an idle timeout may end a session, and
//! anything else is a transient to log and survive — a drain loop must
//! never die to a stray `EINTR` or an ICMP-reflected `ECONNREFUSED`.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use fec_telemetry::Registry;

use crate::metrics::DirectionMetrics;
use crate::pacing::Pacer;
use crate::pool::{BufferPool, PoolBuf};

/// Datagrams per syscall burst (the `vlen` cap for mmsg calls and the
/// chunk size for portable loops).
pub const MAX_BURST: usize = 64;

/// Kernel cap on segments per GSO super-datagram (`UDP_MAX_SEGMENTS`).
const MAX_GSO_SEGMENTS: usize = 64;

/// Byte cap per GSO super-datagram, held under the 65,507-byte UDP
/// payload limit with margin.
const MAX_GSO_BYTES: usize = 65_000;

/// Largest possible UDP payload — the pool buffer size GRO needs, since
/// a coalesced super-datagram can be this big.
const MAX_UDP_PAYLOAD: usize = 65_507;

/// How a receive-loop should react to an `io::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvDisposition {
    /// `EINTR`: retry immediately, nothing happened.
    Retry,
    /// `WouldBlock`/`TimedOut`: the read timeout expired with no traffic —
    /// the only errors allowed to end a session.
    SessionIdle,
    /// Anything else (e.g. ICMP-reflected `ECONNREFUSED` on a connected
    /// UDP socket): log, count, keep receiving.
    Transient,
}

/// Classifies a receive error for a live session loop.
pub fn classify_recv_error(err: &io::Error) -> RecvDisposition {
    match err.kind() {
        io::ErrorKind::Interrupted => RecvDisposition::Retry,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RecvDisposition::SessionIdle,
        _ => RecvDisposition::Transient,
    }
}

/// Which syscall strategy an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `sendmmsg`/`recvmmsg` bursts (Linux only; falls back to
    /// [`Backend::Portable`] elsewhere at the call site).
    Batched,
    /// A loop of plain `send`/`recv` calls — works on any platform.
    Portable,
}

impl Backend {
    /// Picks the platform default, honouring `FEC_FORCE_WIRE`
    /// (`portable`/`fallback` forces the loop; `batched`/`mmsg` asks for
    /// bursts, granted only where the syscalls exist).
    pub fn detect() -> Backend {
        match std::env::var("FEC_FORCE_WIRE") {
            Ok(v) if matches!(v.to_ascii_lowercase().as_str(), "portable" | "fallback") => {
                Backend::Portable
            }
            _ => Backend::platform_default(),
        }
    }

    /// The best backend this platform supports.
    pub fn platform_default() -> Backend {
        if cfg!(target_os = "linux") {
            Backend::Batched
        } else {
            Backend::Portable
        }
    }

    /// Stable name for logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Batched => "batched",
            Backend::Portable => "portable",
        }
    }
}

/// One GSO super-datagram: bytes `start..end` of the sender's burst
/// copy, `count` datagrams of `seg` bytes (the last may be shorter).
#[cfg(target_os = "linux")]
struct GsoGroup {
    start: usize,
    end: usize,
    seg: usize,
    count: usize,
    /// Closed once a shorter-than-`seg` datagram lands (it can only be
    /// the final segment).
    open: bool,
}

/// Burst sender over a connected UDP socket, with token-bucket pacing.
pub struct BatchSender {
    socket: UdpSocket,
    backend: Backend,
    pacer: Pacer,
    metrics: DirectionMetrics,
    #[cfg(target_os = "linux")]
    scratch: crate::sys::MmsgScratch,
    /// UDP GSO: when on, bursts of same-size datagrams are coalesced
    /// into super-datagrams the kernel segments late (or never, when the
    /// peer socket has GRO on — the loopback fast path).
    #[cfg(target_os = "linux")]
    gso_enabled: bool,
    /// The `UDP_SEGMENT` value currently set on the socket (0 = none).
    #[cfg(target_os = "linux")]
    gso_segment: usize,
    /// The GSO burst copy, reused from call to call: each super-datagram
    /// is a byte range of it.
    #[cfg(target_os = "linux")]
    coalesced: Vec<u8>,
}

impl BatchSender {
    /// Connects `socket` to `dest` and wraps it.
    pub fn connect(
        socket: UdpSocket,
        dest: SocketAddr,
        backend: Backend,
        pacer: Pacer,
    ) -> io::Result<BatchSender> {
        socket.connect(dest)?;
        Ok(BatchSender::from_connected(socket, backend, pacer))
    }

    /// Wraps an already-connected socket.
    fn from_connected(socket: UdpSocket, backend: Backend, pacer: Pacer) -> BatchSender {
        BatchSender {
            socket,
            backend,
            pacer,
            metrics: DirectionMetrics::register(&Registry::disabled(), "send"),
            #[cfg(target_os = "linux")]
            scratch: crate::sys::MmsgScratch::new(),
            #[cfg(target_os = "linux")]
            gso_enabled: false,
            #[cfg(target_os = "linux")]
            gso_segment: 0,
            #[cfg(target_os = "linux")]
            coalesced: Vec::new(),
        }
    }

    /// Opportunistically enables UDP GSO (`UDP_SEGMENT`): subsequent
    /// bursts coalesce runs of equal-size datagrams into super-datagrams
    /// that traverse the kernel once and are segmented at the very end —
    /// the wire format is unchanged. Errors (and stays off) on kernels
    /// without UDP GSO and on the portable backend (which must behave
    /// exactly like the non-Linux fallback, where GSO does not exist);
    /// callers typically ignore the result.
    pub fn enable_gso(&mut self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            if self.backend != Backend::Batched {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "UDP GSO needs the batched backend",
                ));
            }
            // `UDP_SEGMENT = 0` is a valid no-op set: it proves kernel
            // support without committing to a segment size (each burst
            // picks its own).
            crate::sys::set_udp_segment(&self.socket, 0)?;
            self.gso_enabled = true;
            self.gso_segment = 0;
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "UDP GSO is Linux-only",
        ))
    }

    /// Whether GSO coalescing is active.
    pub fn gso_active(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.gso_enabled
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// Registers send-side engine metrics.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = DirectionMetrics::register(registry, "send");
    }

    /// The underlying socket (e.g. for reading the local address).
    pub fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// The backend actually in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Sends every datagram, pacing and chunking into [`MAX_BURST`]
    /// syscall bursts; blocks until all are handed to the kernel.
    pub fn send_burst(&mut self, datagrams: &[&[u8]]) -> io::Result<usize> {
        let mut sent = 0usize;
        for chunk in datagrams.chunks(MAX_BURST) {
            self.pacer.acquire(chunk.len() as u32);
            sent += self.send_chunk(chunk)?;
        }
        Ok(sent)
    }

    fn send_chunk(&mut self, chunk: &[&[u8]]) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            if self.gso_enabled {
                return self.send_chunk_gso(chunk);
            }
            if self.backend == Backend::Batched {
                return self.send_wire_mmsg(chunk, chunk.len());
            }
        }
        self.send_wire_portable(chunk, chunk.len())
    }

    /// Coalesces the chunk into GSO super-datagrams — runs of
    /// `seg`-size datagrams (the last of a run may be shorter) packed
    /// nose to tail — and ships each same-`seg` run of super-datagrams
    /// through the wire path. The chunk is copied once, into the reused
    /// `coalesced` buffer, and each super-datagram is a byte range of it.
    /// The kernel re-segments on the way out, so the peer sees the
    /// identical datagram sequence.
    #[cfg(target_os = "linux")]
    fn send_chunk_gso(&mut self, chunk: &[&[u8]]) -> io::Result<usize> {
        let mut joined = std::mem::take(&mut self.coalesced);
        joined.clear();
        let mut groups: Vec<GsoGroup> = Vec::new();
        for dg in chunk {
            let start = joined.len();
            joined.extend_from_slice(dg);
            let end = joined.len();
            match groups.last_mut() {
                Some(g)
                    if g.open
                        && dg.len() <= g.seg
                        && g.count < MAX_GSO_SEGMENTS
                        && end - g.start <= MAX_GSO_BYTES =>
                {
                    g.end = end;
                    g.count += 1;
                    if dg.len() < g.seg {
                        g.open = false;
                    }
                }
                _ => groups.push(GsoGroup {
                    start,
                    end,
                    seg: dg.len().max(1),
                    count: 1,
                    open: !dg.is_empty(),
                }),
            }
        }
        for run in groups.chunk_by(|a, b| a.seg == b.seg) {
            let Some(first) = run.first() else { continue };
            self.ensure_gso_segment(first.seg)?;
            let refs: Vec<&[u8]> = run
                .iter()
                .map(|g| joined.get(g.start..g.end).unwrap_or_default())
                .collect();
            let logical: usize = run.iter().map(|g| g.count).sum();
            // GSO only enables on the batched backend, so the run always
            // goes out as one `sendmmsg` of super-datagrams.
            self.send_wire_mmsg(&refs, logical)?;
        }
        // Kept for the next call (an error above drops it; the next call
        // grows a fresh one).
        self.coalesced = joined;
        Ok(chunk.len())
    }

    /// Points `UDP_SEGMENT` at `seg` if it is not already there (one
    /// cheap setsockopt per size change; uniform traffic pays once).
    #[cfg(target_os = "linux")]
    fn ensure_gso_segment(&mut self, seg: usize) -> io::Result<()> {
        if self.gso_segment != seg {
            let clamped = seg.min(u16::MAX as usize) as u16;
            crate::sys::set_udp_segment(&self.socket, clamped)?;
            self.gso_segment = seg;
        }
        Ok(())
    }

    /// One mmsg pass over `bufs` (wire messages — possibly GSO
    /// super-datagrams carrying `logical` datagrams between them).
    #[cfg(target_os = "linux")]
    fn send_wire_mmsg(&mut self, bufs: &[&[u8]], logical: usize) -> io::Result<usize> {
        let mut offset = 0usize;
        let mut syscalls = 0u64;
        let mut bytes = 0usize;
        while offset < bufs.len() {
            let rest = match bufs.get(offset..) {
                Some(rest) => rest,
                None => break,
            };
            match crate::sys::send_burst(&self.socket, &mut self.scratch, rest) {
                Ok(n) => {
                    syscalls += 1;
                    bytes += rest.iter().take(n).map(|d| d.len()).sum::<usize>();
                    offset += n.max(1);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Socket buffer full: brief backoff, then push the rest.
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => return Err(e),
            }
        }
        self.metrics.record(logical, bytes, syscalls);
        Ok(logical)
    }

    fn send_wire_portable(&mut self, bufs: &[&[u8]], logical: usize) -> io::Result<usize> {
        let mut bytes = 0usize;
        let mut syscalls = 0u64;
        for dg in bufs {
            loop {
                match self.socket.send(dg) {
                    Ok(_) => {
                        syscalls += 1;
                        bytes += dg.len();
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.metrics.record(logical, bytes, syscalls);
        Ok(logical)
    }
}

/// Slots the first `recvmmsg` of a receiver offers, before any call has
/// shown how many messages one call fills.
#[cfg(target_os = "linux")]
const FIRST_OFFER: usize = 2;

/// Burst receiver: one syscall drains up to [`MAX_BURST`] wire messages
/// into pooled slabs.
///
/// The receive ring holds slabs only for what the next syscall can fill.
/// A `recvmmsg` call that filled every slot may have needed more, so the
/// next one offers twice as many, up to [`MAX_BURST`]. A call that left
/// slots empty ended a drain (it and the full calls just before it), and
/// the next call offers one slot more than that whole drain filled. So a
/// GRO burst of 64 datagrams, which arrives as one or two coalesced
/// messages, keeps two to four slabs in the ring instead of 64, while a
/// backlog that took several calls to drain is offered room to drain in
/// one, and steady full bursts converge to the cap. A one-datagram read
/// (the portable loop, the control-plane poll) takes its slab only when
/// it is about to read.
pub struct BatchReceiver {
    socket: UdpSocket,
    backend: Backend,
    pool: BufferPool,
    ready: Vec<PoolBuf>,
    metrics: DirectionMetrics,
    #[cfg(target_os = "linux")]
    scratch: crate::sys::MmsgScratch,
    /// Slots the next `recvmmsg` offers (see the type's docs).
    #[cfg(target_os = "linux")]
    offer: usize,
    /// Messages the full calls of the current drain have filled.
    #[cfg(target_os = "linux")]
    drained: usize,
    /// UDP GRO: when on, the kernel may deliver bursts of same-size
    /// datagrams coalesced; the engine splits them back apart using the
    /// per-message segment size from the control message.
    #[cfg(target_os = "linux")]
    gro_enabled: bool,
}

/// The slab the next one-datagram read fills: the ring's spare, taken
/// from `pool` only once the last one was filled.
fn spare<'a>(ready: &'a mut Vec<PoolBuf>, pool: &BufferPool) -> &'a mut [u8] {
    if ready.is_empty() {
        ready.push(pool.take());
    }
    match ready.last_mut() {
        Some(buf) => buf.spare_mut(),
        None => &mut [],
    }
}

impl BatchReceiver {
    /// Wraps a bound socket. Blocking behaviour (and any read timeout)
    /// stays whatever the caller configured on `socket`.
    pub fn new(socket: UdpSocket, pool: BufferPool, backend: Backend) -> BatchReceiver {
        BatchReceiver {
            socket,
            backend,
            pool,
            ready: Vec::new(),
            metrics: DirectionMetrics::register(&Registry::disabled(), "recv"),
            #[cfg(target_os = "linux")]
            scratch: crate::sys::MmsgScratch::new(),
            #[cfg(target_os = "linux")]
            offer: FIRST_OFFER,
            #[cfg(target_os = "linux")]
            drained: 0,
            #[cfg(target_os = "linux")]
            gro_enabled: false,
        }
    }

    /// Opportunistically enables UDP GRO (`UDP_GRO`): bursts of
    /// same-size datagrams from a GSO sender may then arrive as one
    /// coalesced super-datagram — one kernel traversal — which the
    /// engine splits back into the identical logical datagrams. Needs
    /// the batched backend (segment sizes arrive as control messages)
    /// and pool buffers big enough for a full coalesced payload; errors
    /// (and stays off) on kernels without UDP GRO.
    ///
    /// Note: with GRO on, `recv_burst(max)` bounds *wire messages*, so
    /// more than `max` logical datagrams may be returned, and the ring
    /// offers slots for the one or two messages a GSO burst arrives as,
    /// not for `max`.
    pub fn enable_gro(&mut self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            if self.backend != Backend::Batched {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "UDP GRO needs the batched backend",
                ));
            }
            if self.pool.buf_capacity() < MAX_UDP_PAYLOAD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "UDP GRO needs pool buffers >= 65507 bytes",
                ));
            }
            crate::sys::enable_udp_gro(&self.socket)?;
            self.gro_enabled = true;
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "UDP GRO is Linux-only",
        ))
    }

    /// Whether GRO splitting is active.
    pub fn gro_active(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.gro_enabled
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// Registers recv-side engine metrics.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = DirectionMetrics::register(registry, "recv");
    }

    /// The underlying socket.
    pub fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// The backend actually in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Best-effort kernel receive-buffer bump (Linux only; no-op
    /// elsewhere). Deep kernel queues are what make bursts big.
    pub fn request_recv_buffer(&self, bytes: usize) {
        #[cfg(target_os = "linux")]
        {
            let clamped = bytes.min(i32::MAX as usize) as i32;
            let _ = crate::sys::set_recv_buffer(&self.socket, clamped);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = bytes;
    }

    /// Blocks for the first datagram (honouring the socket read timeout),
    /// then drains whatever else is queued — one burst, at most `max`
    /// datagrams (wire messages, with GRO on). The batched backend offers
    /// fewer slots than `max` while the last calls filled fewer (see the
    /// type's docs). Errors propagate raw so loops can route them through
    /// [`classify_recv_error`].
    pub fn recv_burst(&mut self, max: usize) -> io::Result<Vec<PoolBuf>> {
        let max = max.clamp(1, MAX_BURST);
        #[cfg(target_os = "linux")]
        if self.backend == Backend::Batched {
            return self.recv_mmsg(self.offer.min(max));
        }
        self.recv_portable(max)
    }

    /// Non-blocking address-aware poll for control-plane sockets:
    /// drains up to `max` queued datagrams together with their source
    /// addresses (`Ok(vec![])` when nothing is queued).
    ///
    /// The data plane never needs peer addresses, so the batched
    /// `recvmmsg` path deliberately skips `msg_name` bookkeeping; this
    /// poll takes one `recv_from` syscall per datagram instead, and one
    /// slab per datagram it reads. That trade is right for feedback
    /// traffic specifically because digest suppression keeps the
    /// aggregate report rate O(log n) in the receiver population — the
    /// stream this exists to serve is the one stream designed never to be
    /// syscall-bound.
    pub fn try_recv_burst_from(&mut self, max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let n = max.clamp(1, MAX_BURST);
        self.socket.set_nonblocking(true)?;
        let mut out: Vec<(PoolBuf, SocketAddr)> = Vec::new();
        let mut bytes = 0usize;
        while out.len() < n {
            match self.socket.recv_from(spare(&mut self.ready, &self.pool)) {
                Ok((len, src)) => {
                    let Some(mut buf) = self.ready.pop() else {
                        break;
                    };
                    buf.set_len(len);
                    bytes += len;
                    out.push((buf, src));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    break;
                }
                Err(e) => {
                    let _ = self.socket.set_nonblocking(false);
                    return Err(e);
                }
            }
        }
        let _ = self.socket.set_nonblocking(false);
        if out.is_empty() {
            self.metrics.record_empty_syscall();
        } else {
            // One syscall per datagram, plus the final would-block probe
            // when the queue ran dry before `n`.
            let probe = u64::from(out.len() < n);
            self.metrics
                .record(out.len(), bytes, out.len() as u64 + probe);
        }
        Ok(out)
    }

    /// One `recvmmsg` over `n` slots of the ring, refilled to `n` first;
    /// sizes the next call's offer from what this drain filled.
    #[cfg(target_os = "linux")]
    fn recv_mmsg(&mut self, n: usize) -> io::Result<Vec<PoolBuf>> {
        if self.ready.len() < n {
            let need = n - self.ready.len();
            self.ready.extend(self.pool.take_many(need));
        }
        let mut lens = [0usize; MAX_BURST];
        let got = {
            let mut slices: Vec<&mut [u8]> = self
                .ready
                .iter_mut()
                .take(n)
                .map(|b| b.spare_mut())
                .collect();
            match crate::sys::recv_burst(
                &self.socket,
                &mut self.scratch,
                &mut slices,
                &mut lens,
                self.gro_enabled,
            ) {
                Ok(got) => got,
                Err(e) => {
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) {
                        self.metrics.record_empty_syscall();
                    }
                    return Err(e);
                }
            }
        };
        self.drained = (self.drained + got).min(MAX_BURST);
        self.offer = if got < n {
            (std::mem::take(&mut self.drained) + 1).min(MAX_BURST)
        } else {
            (2 * n).max(self.offer).min(MAX_BURST)
        };
        let mut out: Vec<PoolBuf> = Vec::with_capacity(MAX_BURST);
        let mut bytes = 0usize;
        for (i, mut buf) in self.ready.drain(..got).enumerate() {
            let len = lens.get(i).copied().unwrap_or(0);
            buf.set_len(len);
            bytes += len;
            // A coalesced super-datagram splits back into its logical
            // datagrams by the kernel-reported segment size: views of
            // the slab the kernel scattered into, not copies.
            let seg = if self.gro_enabled {
                self.scratch.gro_segment(i)
            } else {
                None
            };
            match seg {
                Some(seg) if len > seg => buf.split_into(seg, &mut out),
                _ => out.push(buf),
            }
        }
        // Slabs the next offer has no slot for go back to the pool.
        self.ready.truncate(self.offer);
        self.metrics.record(out.len(), bytes, 1);
        Ok(out)
    }

    /// One `recv` per datagram into the ring's spare slab: the first
    /// blocks, honouring the socket's read timeout; the rest drain
    /// whatever else is queued without blocking.
    fn recv_portable(&mut self, max: usize) -> io::Result<Vec<PoolBuf>> {
        let mut out: Vec<PoolBuf> = Vec::new();
        let mut bytes = 0usize;
        let mut syscalls = 0u64;
        while out.len() < max {
            match self.socket.recv(spare(&mut self.ready, &self.pool)) {
                Ok(len) => {
                    syscalls += 1;
                    let Some(mut buf) = self.ready.pop() else {
                        break;
                    };
                    buf.set_len(len);
                    bytes += len;
                    out.push(buf);
                    if out.len() == 1 {
                        let _ = self.socket.set_nonblocking(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if out.is_empty() => {
                    self.metrics.record_empty_syscall();
                    return Err(e);
                }
                Err(_) => {
                    syscalls += 1;
                    break;
                }
            }
        }
        let _ = self.socket.set_nonblocking(false);
        self.metrics.record(out.len(), bytes, syscalls);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_drain_contract() {
        use io::ErrorKind::*;
        assert_eq!(
            classify_recv_error(&io::Error::from(Interrupted)),
            RecvDisposition::Retry
        );
        assert_eq!(
            classify_recv_error(&io::Error::from(WouldBlock)),
            RecvDisposition::SessionIdle
        );
        assert_eq!(
            classify_recv_error(&io::Error::from(TimedOut)),
            RecvDisposition::SessionIdle
        );
        assert_eq!(
            classify_recv_error(&io::Error::from(ConnectionRefused)),
            RecvDisposition::Transient
        );
    }

    #[test]
    fn backend_detection_honours_force_portable() {
        assert_eq!(Backend::Portable.name(), "portable");
        assert_eq!(Backend::Batched.name(), "batched");
        // Platform default on Linux is batched.
        if cfg!(target_os = "linux") {
            assert_eq!(Backend::platform_default(), Backend::Batched);
        }
    }
}
