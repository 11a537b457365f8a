//! Loopback integration tests for the batched engine: both backends move
//! byte-identical bursts, the pool recycles, and polls stay quiet.

use std::net::UdpSocket;
use std::time::Duration;

use fec_telemetry::Registry;
use fec_wire::{Backend, BatchReceiver, BatchSender, BufferPool, Pacer, MAX_BURST};

fn roundtrip(backend: Backend) {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let tx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();

    let registry = Registry::new();
    let pool = BufferPool::with_config(2048, 128);
    pool.attach_telemetry(&registry);
    let mut tx = BatchSender::connect(tx_socket, dest, backend, Pacer::unlimited()).unwrap();
    tx.attach_telemetry(&registry);
    let mut rx = BatchReceiver::new(rx_socket, pool.clone(), backend);
    rx.attach_telemetry(&registry);

    // 200 datagrams with distinct, length-varied payloads.
    let payloads: Vec<Vec<u8>> = (0..200u32)
        .map(|i| {
            let mut p = i.to_be_bytes().to_vec();
            p.extend(std::iter::repeat_n(i as u8, 32 + (i as usize % 700)));
            p
        })
        .collect();

    let mut received: Vec<Vec<u8>> = Vec::new();
    for chunk in payloads.chunks(50) {
        let refs: Vec<&[u8]> = chunk.iter().map(|p| p.as_slice()).collect();
        assert_eq!(tx.send_burst(&refs).unwrap(), chunk.len());
        // Drain this chunk before the next send so the socket buffer
        // never sees more than 50 datagrams.
        let target = received.len() + chunk.len();
        while received.len() < target {
            let burst = rx.recv_burst(MAX_BURST).unwrap();
            assert!(!burst.is_empty(), "timed out mid-chunk");
            for buf in burst {
                received.push(buf.to_vec());
            }
        }
    }

    // Loopback UDP: everything arrives; compare as multisets to be safe.
    let mut want = payloads.clone();
    let mut got = received.clone();
    want.sort();
    got.sort();
    assert_eq!(got, want, "backend {} corrupted payloads", backend.name());

    // Telemetry saw traffic on both directions.
    let text = registry.render_prometheus();
    assert!(
        text.contains("fec_wire_syscalls_total{op=\"send\"}"),
        "{text}"
    );
    assert!(
        text.contains("fec_wire_datagrams_total{op=\"recv\"}"),
        "{text}"
    );
    // The pool recycled: hits once the drain warmed up.
    assert!(
        text.contains("fec_wire_pool_total{outcome=\"hit\"}"),
        "{text}"
    );
}

#[test]
fn batched_backend_roundtrip() {
    if cfg!(target_os = "linux") {
        roundtrip(Backend::Batched);
    }
}

#[test]
fn portable_backend_roundtrip() {
    roundtrip(Backend::Portable);
}

#[test]
fn try_recv_on_idle_socket_is_empty_not_error() {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut rx = BatchReceiver::new(socket, BufferPool::new(), Backend::detect());
    assert!(rx.try_recv_burst_from(MAX_BURST).unwrap().is_empty());
    let mut rx_portable = BatchReceiver::new(
        UdpSocket::bind("127.0.0.1:0").unwrap(),
        BufferPool::new(),
        Backend::Portable,
    );
    assert!(rx_portable
        .try_recv_burst_from(MAX_BURST)
        .unwrap()
        .is_empty());
}

#[test]
fn address_aware_poll_reports_each_sender() {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let mut rx = BatchReceiver::new(rx_socket, BufferPool::new(), Backend::detect());
    assert!(
        rx.try_recv_burst_from(MAX_BURST).unwrap().is_empty(),
        "idle socket polls empty, not an error"
    );

    // Two distinct senders interleaved: every datagram must come back
    // tagged with the socket that sent it.
    let a = UdpSocket::bind("127.0.0.1:0").unwrap();
    let b = UdpSocket::bind("127.0.0.1:0").unwrap();
    for i in 0..6u8 {
        let from = if i % 2 == 0 { &a } else { &b };
        from.send_to(&[i; 9], dest).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let mut got: Vec<(Vec<u8>, std::net::SocketAddr)> = Vec::new();
    while got.len() < 6 {
        let burst = rx.try_recv_burst_from(MAX_BURST).unwrap();
        if burst.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        got.extend(burst.into_iter().map(|(buf, src)| (buf.to_vec(), src)));
    }
    for (payload, src) in &got {
        assert_eq!(payload.len(), 9);
        let expect = if payload[0] % 2 == 0 { &a } else { &b };
        assert_eq!(*src, expect.local_addr().unwrap());
    }
}

#[test]
fn blocking_recv_times_out_as_session_idle() {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut rx = BatchReceiver::new(socket, BufferPool::new(), Backend::detect());
    let err = rx.recv_burst(MAX_BURST).unwrap_err();
    assert_eq!(
        fec_wire::classify_recv_error(&err),
        fec_wire::RecvDisposition::SessionIdle
    );
}

#[test]
fn paced_send_is_rate_bounded() {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let tx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    // 2000 datagrams/s, burst 10: 100 sends must take ≥ ~45 ms.
    let mut tx =
        BatchSender::connect(tx_socket, dest, Backend::detect(), Pacer::rate(2000.0, 10)).unwrap();
    let payload = vec![0u8; 64];
    let refs: Vec<&[u8]> = (0..100).map(|_| payload.as_slice()).collect();
    let t0 = std::time::Instant::now();
    tx.send_burst(&refs).unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(40),
        "pacing did not throttle: {:?}",
        t0.elapsed()
    );
}

/// The `fec_wire_syscalls_total{op="recv"}` count in `registry`.
fn recv_syscalls(registry: &Registry) -> u64 {
    registry
        .counter_with(
            "fec_wire_syscalls_total",
            "Datagram-path syscalls issued by the wire engine",
            &[("op", "recv")],
        )
        .get()
}

/// Sends `rounds` bursts of `MAX_BURST` datagrams after one warm-up burst
/// and returns the recv syscalls the drains of those rounds took; each
/// round is one `recv_burst` call that must return the whole burst.
fn steady_burst_syscalls(backend: Backend, rounds: u64) -> u64 {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let tx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut tx = BatchSender::connect(tx_socket, dest, backend, Pacer::unlimited()).unwrap();
    let registry = Registry::new();
    let mut rx = BatchReceiver::new(rx_socket, BufferPool::with_config(2048, 128), backend);
    rx.attach_telemetry(&registry);
    rx.request_recv_buffer(1 << 20);

    let payloads: Vec<Vec<u8>> = (0..MAX_BURST as u32)
        .map(|i| {
            let mut p = i.to_be_bytes().to_vec();
            p.resize(200, i as u8);
            p
        })
        .collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    // Warm-up: the first drain takes several calls while the ring grows.
    tx.send_burst(&refs).unwrap();
    let mut got = 0;
    while got < refs.len() {
        got += rx.recv_burst(MAX_BURST).unwrap().len();
    }
    let before = recv_syscalls(&registry);
    for _ in 0..rounds {
        tx.send_burst(&refs).unwrap();
        let burst = rx.recv_burst(MAX_BURST).unwrap();
        assert_eq!(burst.len(), refs.len(), "{} split a burst", backend.name());
        let bytes: Vec<&[u8]> = burst.iter().map(|b| &**b).collect();
        assert_eq!(bytes, refs, "backend {} altered a burst", backend.name());
    }
    recv_syscalls(&registry) - before
}

#[test]
fn full_bursts_cost_one_recvmmsg_each_after_warm_up() {
    if cfg!(target_os = "linux") {
        assert_eq!(steady_burst_syscalls(Backend::Batched, 8), 8);
    }
}

#[test]
fn full_portable_bursts_cost_one_recv_per_datagram_after_warm_up() {
    // No would-block probe and no ramp-up: a call that reads its `max`
    // stops there.
    assert_eq!(
        steady_burst_syscalls(Backend::Portable, 8),
        8 * MAX_BURST as u64
    );
}

#[test]
fn one_datagram_reads_take_a_slab_per_datagram_read() {
    // The portable loop and the control-plane poll read one datagram per
    // syscall, so neither takes slabs ahead for a whole burst.
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let pool = BufferPool::new();
    let mut rx = BatchReceiver::new(rx_socket, pool.clone(), Backend::Portable);
    let registry = Registry::new();
    rx.attach_telemetry(&registry);
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    for i in 0..3u8 {
        tx.send_to(&[i; 40], dest).unwrap();
    }
    assert_eq!(rx.recv_burst(MAX_BURST).unwrap().len(), 3);
    for i in 0..3u8 {
        tx.send_to(&[i; 40], dest).unwrap();
    }
    assert_eq!(rx.try_recv_burst_from(MAX_BURST).unwrap().len(), 3);
    // Three slabs per read, one spare for the read that found the queue
    // empty; the first batch went back to the pool before the second.
    let (_, misses) = pool.stats();
    assert!(misses <= 4, "{misses} slabs allocated for 3 + 3 datagrams");
    // Each drain is three reads and the read that found the queue empty.
    assert_eq!(recv_syscalls(&registry), 8);
}
