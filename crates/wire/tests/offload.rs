//! UDP GSO/GRO offload integration tests.
//!
//! The offload path must be invisible on the wire: a GSO sender talking to a
//! plain receiver delivers the same individual datagrams (the kernel segments
//! on delivery), and a GRO receiver fed by a plain sender sees unmodified
//! payloads. Each test probes kernel support at runtime and skips gracefully
//! when the host cannot grant the offload (non-Linux, or an old kernel).

use std::net::UdpSocket;
use std::time::Duration;

use fec_wire::{Backend, BatchReceiver, BatchSender, BufferPool, Pacer, MAX_BURST};

/// Distinct, length-varied payloads: several same-length runs (which GSO
/// coalesces into super-datagrams) interleaved with odd sizes that force
/// group breaks.
fn payloads(count: u32) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let len = match i % 7 {
                0..=2 => 1200,          // coalescible run
                3 => 256,               // shorter: closes the run
                4 | 5 => 1200,          // new run
                _ => 37 + (i as usize), // unique length, never grouped
            };
            let mut p = i.to_be_bytes().to_vec();
            let mut x = i.wrapping_mul(2654435761).wrapping_add(17);
            while p.len() < len {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                p.push((x >> 24) as u8);
            }
            p
        })
        .collect()
}

fn gso_sender(dest: std::net::SocketAddr, backend: Backend) -> Option<BatchSender> {
    let tx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut tx = BatchSender::connect(tx_socket, dest, backend, Pacer::unlimited()).unwrap();
    match tx.enable_gso() {
        Ok(()) => {
            assert!(tx.gso_active());
            Some(tx)
        }
        Err(err) => {
            eprintln!("skipping: kernel did not grant UDP GSO: {err}");
            None
        }
    }
}

#[test]
fn gso_gro_round_trip_is_byte_identical() {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();

    // GRO needs full-size pool buffers and the batched backend.
    let mut rx = BatchReceiver::new(rx_socket, BufferPool::new(), Backend::Batched);
    if let Err(err) = rx.enable_gro() {
        eprintln!("skipping: kernel did not grant UDP GRO: {err}");
        return;
    }
    assert!(rx.gro_active());
    let Some(mut tx) = gso_sender(dest, Backend::platform_default()) else {
        return;
    };

    let want = payloads(210);
    let mut received: Vec<Vec<u8>> = Vec::new();
    for chunk in want.chunks(MAX_BURST) {
        let refs: Vec<&[u8]> = chunk.iter().map(|p| p.as_slice()).collect();
        assert_eq!(tx.send_burst(&refs).unwrap(), chunk.len());
        let target = received.len() + chunk.len();
        while received.len() < target {
            let burst = rx.recv_burst(MAX_BURST).unwrap();
            assert!(!burst.is_empty(), "timed out mid-chunk");
            received.extend(burst.iter().map(|b| b.to_vec()));
        }
    }

    // Loopback preserves order, and both GSO grouping and GRO splitting are
    // order-preserving, so an exact in-order comparison is the real test.
    assert_eq!(
        received, want,
        "offload path corrupted or reordered payloads"
    );
}

#[test]
fn gso_sender_to_plain_receiver_still_delivers_datagrams() {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let Some(mut tx) = gso_sender(dest, Backend::platform_default()) else {
        return;
    };

    let want = payloads(63);
    let refs: Vec<&[u8]> = want.iter().map(|p| p.as_slice()).collect();
    assert_eq!(tx.send_burst(&refs).unwrap(), want.len());

    // A plain recv_from must see each original datagram: the kernel segments
    // GSO super-datagrams on local delivery when the receiver has no GRO.
    let mut buf = vec![0u8; 65536];
    let mut received = Vec::new();
    for _ in 0..want.len() {
        let (n, _) = rx_socket.recv_from(&mut buf).unwrap();
        received.push(buf[..n].to_vec());
    }
    assert_eq!(received, want, "GSO super-datagrams were not re-segmented");
}

#[test]
fn plain_sender_to_gro_receiver_passes_through() {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let mut rx = BatchReceiver::new(rx_socket, BufferPool::new(), Backend::Batched);
    if let Err(err) = rx.enable_gro() {
        eprintln!("skipping: kernel did not grant UDP GRO: {err}");
        return;
    }

    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let want = payloads(40);
    for p in &want {
        tx.send_to(p, dest).unwrap();
    }
    let mut received: Vec<Vec<u8>> = Vec::new();
    while received.len() < want.len() {
        let burst = rx.recv_burst(MAX_BURST).unwrap();
        assert!(!burst.is_empty(), "timed out");
        received.extend(burst.iter().map(|b| b.to_vec()));
    }
    assert_eq!(received, want, "GRO receiver altered plain datagrams");
}

#[test]
fn offload_refuses_the_portable_backend() {
    // The portable backend must behave exactly like the non-Linux
    // fallback, where neither offload exists.
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let mut tx = BatchSender::connect(
        UdpSocket::bind("127.0.0.1:0").unwrap(),
        dest,
        Backend::Portable,
        Pacer::unlimited(),
    )
    .unwrap();
    assert!(tx.enable_gso().is_err(), "GSO must require batched backend");
    assert!(!tx.gso_active());
    let mut rx = BatchReceiver::new(rx_socket, BufferPool::new(), Backend::Portable);
    assert!(rx.enable_gro().is_err(), "GRO must require batched backend");
    assert!(!rx.gro_active());

    if cfg!(target_os = "linux") {
        // Undersized pool buffers cannot hold a coalesced payload: must refuse.
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut rx = BatchReceiver::new(socket, BufferPool::with_config(2048, 8), Backend::Batched);
        let err = rx.enable_gro().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

/// `count` distinct payloads of `len` bytes each: a run GSO coalesces.
fn equal_payloads(count: u32, len: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let mut p = i.to_be_bytes().to_vec();
            p.resize(len, (i as u8).wrapping_mul(31));
            p
        })
        .collect()
}

/// A GRO receiver drawing on `pool` and a GSO sender aimed at it, or
/// `None` when the kernel refuses either offload.
fn offload_pair(pool: BufferPool) -> Option<(BatchReceiver, BatchSender)> {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let mut rx = BatchReceiver::new(rx_socket, pool, Backend::Batched);
    if let Err(err) = rx.enable_gro() {
        eprintln!("skipping: kernel did not grant UDP GRO: {err}");
        return None;
    }
    let tx = gso_sender(dest, Backend::platform_default())?;
    Some((rx, tx))
}

/// Sends `want` as one burst and drains exactly that many datagrams.
fn round_trip(
    rx: &mut BatchReceiver,
    tx: &mut BatchSender,
    want: &[Vec<u8>],
) -> Vec<fec_wire::PoolBuf> {
    let refs: Vec<&[u8]> = want.iter().map(|p| p.as_slice()).collect();
    assert_eq!(tx.send_burst(&refs).unwrap(), want.len());
    let mut got = Vec::new();
    while got.len() < want.len() {
        let burst = rx.recv_burst(MAX_BURST).unwrap();
        assert!(!burst.is_empty(), "timed out");
        got.extend(burst);
    }
    let bytes: Vec<&[u8]> = got.iter().map(|b| &**b).collect();
    assert_eq!(bytes, refs, "GRO views altered the datagrams");
    got
}

#[test]
fn gro_burst_takes_one_slab_per_wire_message_not_per_datagram() {
    let pool = BufferPool::new();
    let Some((mut rx, mut tx)) = offload_pair(pool.clone()) else {
        return;
    };
    // 64 datagrams of 1000 B fit one GSO super-datagram (at most 64
    // segments and 65 000 B), which a GRO socket reads as one message.
    let want = equal_payloads(64, 1000);
    let wire_messages = 1u64;
    for _ in 0..2 {
        round_trip(&mut rx, &mut tx, &want);
    }
    let (hits, misses) = pool.stats();
    const ROUNDS: u64 = 6;
    for _ in 0..ROUNDS {
        round_trip(&mut rx, &mut tx, &want);
    }
    let (hits_after, misses_after) = pool.stats();
    let takes = hits_after + misses_after - hits - misses;
    // Each burst refills the ring with the slabs the previous one used.
    assert!(
        takes <= ROUNDS * wire_messages,
        "{takes} pool takes for {ROUNDS} bursts of {} datagrams",
        want.len()
    );
    // The ring offers slots for the one or two messages a burst arrives
    // as, so the whole session allocates a handful of 64 KiB slabs, not
    // one per slot of a full burst.
    assert!(
        misses_after <= 4,
        "{misses_after} slabs allocated for {} bursts",
        ROUNDS + 2
    );
}

#[test]
fn a_slab_returns_to_the_pool_only_when_its_last_view_drops() {
    let pool = BufferPool::new();
    let Some((mut rx, mut tx)) = offload_pair(pool.clone()) else {
        return;
    };
    let mut views = round_trip(&mut rx, &mut tx, &equal_payloads(16, 1000));
    let idle = pool.idle();
    let last = views.pop();
    drop(views);
    assert_eq!(pool.idle(), idle, "a live view must pin its slab");
    drop(last);
    assert_eq!(pool.idle(), idle + 1, "the last view returns the slab");
}

#[test]
fn views_outlive_the_receiver_and_drop_on_another_thread() {
    let pool = BufferPool::new();
    let Some((mut rx, mut tx)) = offload_pair(pool.clone()) else {
        return;
    };
    let want = equal_payloads(64, 1000);
    let views = round_trip(&mut rx, &mut tx, &want);
    drop((rx, tx));
    let idle = pool.idle();
    // As the live drain loop does: views cross an mpsc channel to the
    // decode thread, which reads and drops them.
    let (send, recv) = std::sync::mpsc::channel::<fec_wire::PoolBuf>();
    let decoder =
        std::thread::spawn(move || recv.iter().map(|view| view.to_vec()).collect::<Vec<_>>());
    for view in views {
        send.send(view).unwrap();
    }
    drop(send);
    assert_eq!(decoder.join().unwrap(), want);
    assert_eq!(pool.idle(), idle + 1, "the decode thread returned the slab");
}

#[test]
fn plain_datagrams_queued_at_a_gro_socket_drain_in_a_few_calls() {
    let rx_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let dest = rx_socket.local_addr().unwrap();
    let mut rx = BatchReceiver::new(rx_socket, BufferPool::new(), Backend::Batched);
    if let Err(err) = rx.enable_gro() {
        eprintln!("skipping: kernel did not grant UDP GRO: {err}");
        return;
    }
    rx.request_recv_buffer(1 << 20);
    // Uncoalesced datagrams take one slot each: the ring grows from its
    // small first offer by doubling while calls come back full.
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let want = payloads(MAX_BURST as u32);
    for p in &want {
        tx.send_to(p, dest).unwrap();
    }
    let mut received: Vec<Vec<u8>> = Vec::new();
    let mut calls = 0;
    while received.len() < want.len() {
        let burst = rx.recv_burst(MAX_BURST).unwrap();
        assert!(!burst.is_empty(), "timed out");
        calls += 1;
        received.extend(burst.iter().map(|b| b.to_vec()));
    }
    assert_eq!(received, want, "GRO receiver altered plain datagrams");
    assert!(
        calls <= 7,
        "{calls} calls to drain {} datagrams",
        want.len()
    );
}
