//! Hand-rolled FFI for Linux `recvmmsg(2)` / `sendmmsg(2)` (and a
//! best-effort `SO_RCVBUF` bump).
//!
//! The workspace builds offline with no `libc` crate, so the three kernel
//! structs (`iovec`, `msghdr`, `mmsghdr`) are declared here with the
//! x86-64/AArch64 glibc layout: field names are irrelevant to the ABI,
//! only order, types and padding matter, and `#[repr(C)]` reproduces the
//! C padding (4 bytes after `namelen`, 4 after the trailing `flags`/`len`
//! fields) exactly.
//!
//! This module is the **only** place in the workspace outside the
//! `fec-gf256` SIMD kernels where `unsafe` is permitted (enforced by
//! `fec-audit`). Every call site keeps the invariants local: pointers
//! passed to the kernel come from caller-owned slices that outlive the
//! call, and `vlen` bounds the kernel's writes to what we allocated.

use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;

/// `MSG_WAITFORONE`: `recvmmsg` blocks for the first datagram, then
/// returns whatever else is already queued without blocking again.
const MSG_WAITFORONE: i32 = 0x10000;

/// `SOL_UDP` / `UDP_SEGMENT` / `UDP_GRO`: the UDP segmentation-offload
/// socket options (Linux ≥ 4.18 / 5.0). `UDP_SEGMENT` makes one send
/// carry many equal-size datagrams through the stack as a single skb;
/// `UDP_GRO` delivers such super-datagrams coalesced, with the segment
/// size attached as a control message.
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const UDP_GRO: i32 = 104;

/// Control-buffer bytes per message: `CMSG_SPACE(sizeof(int))` on 64-bit
/// (16-byte `cmsghdr` + 4-byte payload, padded to 8).
const CMSG_CAPACITY: usize = 24;

/// `struct iovec` — scatter/gather element.
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

/// `struct msghdr` — glibc layout (note `iovlen`/`controllen` are
/// `size_t`, not the POSIX `int`).
#[repr(C)]
struct MsgHdr {
    name: *mut core::ffi::c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut core::ffi::c_void,
    controllen: usize,
    flags: i32,
}

/// `struct mmsghdr` — one per datagram in a burst; the kernel writes the
/// received length into `len`.
#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: u32,
}

extern "C" {
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut core::ffi::c_void,
    ) -> i32;
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const core::ffi::c_void,
        optlen: u32,
    ) -> i32;
}

/// Reusable per-engine scratch for the header arrays, so a burst syscall
/// allocates nothing after warm-up. The raw pointers inside are rebuilt
/// from live borrows on every call and never outlive it.
pub struct MmsgScratch {
    iovecs: Vec<IoVec>,
    hdrs: Vec<MMsgHdr>,
    controls: Vec<[u8; CMSG_CAPACITY]>,
}

// SAFETY: the raw pointers inside `iovecs`/`hdrs` are pure scratch: they
// are overwritten by `rebuild` from exclusively-borrowed buffers
// immediately before each syscall and never dereferenced between calls
// (stale pointers are unreachable — every syscall path rebuilds first).
// Moving the scratch to another thread therefore cannot alias anything,
// and the engine types holding it stay usable from a drain thread.
unsafe impl Send for MmsgScratch {}

impl MmsgScratch {
    pub fn new() -> MmsgScratch {
        MmsgScratch {
            iovecs: Vec::new(),
            hdrs: Vec::new(),
            controls: Vec::new(),
        }
    }

    /// Rebuilds the iovec/mmsghdr arrays over `n` buffers whose base
    /// pointers and lengths are supplied by `slot`. With `with_control`,
    /// each message also gets a [`CMSG_CAPACITY`]-byte control buffer so
    /// the kernel can report per-message ancillary data (the GRO segment
    /// size).
    fn rebuild(
        &mut self,
        n: usize,
        mut slot: impl FnMut(usize) -> (*mut u8, usize),
        with_control: bool,
    ) {
        self.iovecs.clear();
        self.hdrs.clear();
        self.iovecs.reserve(n);
        self.hdrs.reserve(n);
        for i in 0..n {
            let (base, len) = slot(i);
            self.iovecs.push(IoVec { base, len });
        }
        if with_control {
            self.controls.clear();
            self.controls.resize(n, [0u8; CMSG_CAPACITY]);
        }
        let iov_base = self.iovecs.as_mut_ptr();
        let ctl_base = self.controls.as_mut_ptr();
        for i in 0..n {
            let (control, controllen) = if with_control {
                // Same discipline as the iovec pointer below: in-bounds,
                // and the controls Vec is untouched until the syscall
                // returns.
                (ctl_base.wrapping_add(i).cast(), CMSG_CAPACITY)
            } else {
                (std::ptr::null_mut(), 0)
            };
            self.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    // `wrapping_add` keeps this safe code; `i < n` and the
                    // iovec Vec is not touched again until the syscall
                    // returns, so the pointer is in-bounds and stable.
                    iov: iov_base.wrapping_add(i),
                    iovlen: 1,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            });
        }
    }

    /// The GRO segment size the kernel attached to message `i` of the
    /// last receive, if any: a `cmsghdr { SOL_UDP, UDP_GRO }` carrying an
    /// `int`. `None` for ordinary (uncoalesced) datagrams.
    pub fn gro_segment(&self, i: usize) -> Option<usize> {
        let hdr = self.hdrs.get(i)?;
        // The kernel rewrites `controllen` to the bytes it actually used;
        // CMSG_LEN(sizeof(int)) = 20 on 64-bit.
        if hdr.hdr.controllen < 20 {
            return None;
        }
        let buf = self.controls.get(i)?;
        let cmsg_len = usize::from_ne_bytes(buf.get(0..8)?.try_into().ok()?);
        let level = i32::from_ne_bytes(buf.get(8..12)?.try_into().ok()?);
        let kind = i32::from_ne_bytes(buf.get(12..16)?.try_into().ok()?);
        if cmsg_len < 20 || level != SOL_UDP || kind != UDP_GRO {
            return None;
        }
        let seg = i32::from_ne_bytes(buf.get(16..20)?.try_into().ok()?);
        (seg > 0).then_some(seg as usize)
    }
}

impl Default for MmsgScratch {
    fn default() -> MmsgScratch {
        MmsgScratch::new()
    }
}

/// One `recvmmsg` burst: waits for the first datagram, then drains
/// whatever else is queued, up to `bufs.len()`. Received lengths land in
/// `lens`; returns the datagram count. The socket's `SO_RCVTIMEO` is
/// honoured (`WouldBlock` on expiry).
pub fn recv_burst(
    socket: &UdpSocket,
    scratch: &mut MmsgScratch,
    bufs: &mut [&mut [u8]],
    lens: &mut [usize],
    with_control: bool,
) -> io::Result<usize> {
    let n = bufs.len().min(lens.len());
    if n == 0 {
        return Ok(0);
    }
    scratch.rebuild(
        n,
        |i| match bufs.get_mut(i) {
            Some(b) => (b.as_mut_ptr(), b.len()),
            None => (std::ptr::null_mut(), 0),
        },
        with_control,
    );
    // SAFETY: `scratch.hdrs` holds exactly `n` initialised mmsghdr records
    // and `vlen == n` bounds the kernel's writes to them. Each record's
    // single iovec points into a distinct caller-owned `&mut [u8]` that
    // lives across this call, with the slice's true length, so the kernel
    // scatters only into memory we exclusively borrow. `msg_name` is null
    // with zero length (no address capture); `msg_control` is either null
    // or points at a distinct `CMSG_CAPACITY`-byte element of
    // `scratch.controls` (sized per `rebuild`, untouched until return),
    // and the null timeout is permitted by recvmmsg(2).
    let rc = unsafe {
        recvmmsg(
            socket.as_raw_fd(),
            scratch.hdrs.as_mut_ptr(),
            n as u32,
            MSG_WAITFORONE,
            std::ptr::null_mut(),
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let got = (rc as usize).min(n);
    for (i, hdr) in scratch.hdrs.iter().take(got).enumerate() {
        if let Some(slot) = lens.get_mut(i) {
            *slot = hdr.len as usize;
        }
    }
    Ok(got)
}

/// One `sendmmsg` burst on a **connected** socket. Returns how many of
/// `datagrams` the kernel accepted (callers loop on partial sends).
pub fn send_burst(
    socket: &UdpSocket,
    scratch: &mut MmsgScratch,
    datagrams: &[&[u8]],
) -> io::Result<usize> {
    let n = datagrams.len();
    if n == 0 {
        return Ok(0);
    }
    scratch.rebuild(
        n,
        |i| match datagrams.get(i) {
            // The kernel only *reads* through send iovecs; the cast to
            // `*mut` satisfies the shared struct layout and is never
            // written through.
            Some(d) => (d.as_ptr() as *mut u8, d.len()),
            None => (std::ptr::null_mut(), 0),
        },
        false,
    );
    // SAFETY: `scratch.hdrs` holds `n` initialised records with
    // `vlen == n`; each iovec points at a caller-provided `&[u8]` that
    // lives across the call and is only read by the kernel (sendmmsg does
    // not write through msg_iov; it writes per-message byte counts into
    // the mmsghdr array we own). The socket is connected, so null
    // `msg_name` is valid.
    let rc = unsafe { sendmmsg(socket.as_raw_fd(), scratch.hdrs.as_mut_ptr(), n as u32, 0) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((rc as usize).min(n))
}

/// Sets an `int`-valued socket option.
fn sockopt_i32(socket: &UdpSocket, level: i32, optname: i32, val: i32) -> io::Result<()> {
    // SAFETY: passes a pointer to a live stack `i32` with its exact size;
    // setsockopt copies the value before returning and keeps no reference.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            level,
            optname,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Best-effort `SO_RCVBUF` bump (the kernel clamps to `rmem_max`).
pub fn set_recv_buffer(socket: &UdpSocket, bytes: i32) -> io::Result<()> {
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    sockopt_i32(socket, SOL_SOCKET, SO_RCVBUF, bytes)
}

/// Sets `UDP_SEGMENT` on a send socket: payloads longer than `segment`
/// bytes travel the stack as one skb and are segmented into
/// `segment`-size datagrams (last may be shorter) at the very end —
/// or never, when the receiving socket has GRO on. `segment == 0`
/// disables. Errors on kernels without UDP GSO (pre-4.18).
pub fn set_udp_segment(socket: &UdpSocket, segment: u16) -> io::Result<()> {
    sockopt_i32(socket, SOL_UDP, UDP_SEGMENT, segment as i32)
}

/// Enables `UDP_GRO` on a receive socket: bursts of same-size datagrams
/// may arrive coalesced into one super-datagram, with the segment size
/// reported per message (see [`MmsgScratch::gro_segment`]). Errors on
/// kernels without UDP GRO (pre-5.0).
pub fn enable_udp_gro(socket: &UdpSocket) -> io::Result<()> {
    sockopt_i32(socket, SOL_UDP, UDP_GRO, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_glibc() {
        // Kernel ABI sizes on 64-bit Linux.
        assert_eq!(std::mem::size_of::<IoVec>(), 16);
        assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
        assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
    }

    #[test]
    fn mmsg_round_trip_on_loopback() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();

        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 100 + i as usize]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let mut scratch = MmsgScratch::new();
        let sent = send_burst(&tx, &mut scratch, &refs).unwrap();
        assert_eq!(sent, 5);

        let mut storage: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 2048]).collect();
        let mut slices: Vec<&mut [u8]> = storage.iter_mut().map(|b| b.as_mut_slice()).collect();
        let mut lens = [0usize; 8];
        let mut rscratch = MmsgScratch::new();
        // Loopback delivery is immediate but give the kernel a moment.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let got = recv_burst(&rx, &mut rscratch, &mut slices, &mut lens, false).unwrap();
        assert_eq!(got, 5, "MSG_WAITFORONE should drain the queued burst");
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(lens[i], payload.len());
            assert_eq!(&storage[i][..lens[i]], payload.as_slice());
        }
    }
}
