//! Heap allocations per decoded object, counted from `Receiver::new` to
//! `into_object` on the benchmark's three payload shapes, the bytes
//! `Receiver::new` requests on the LDGM ones, and the bytes each side
//! still holds when it is done with an object: a sender after a full
//! emission, a FLUTE receiver after it has finished many objects.
//!
//! The built-in decoders keep one object buffer, write each source symbol
//! into it once and hand it over from `into_object`, so the count does
//! not grow with the number of symbols. The caps hold it there: a store
//! that allocated per symbol again would make thousands.
//!
//! The counter is a `#[global_allocator]` over `std::alloc::System` that
//! counts every allocation and reallocation made on the calling thread,
//! the bytes each one asks for, and the bytes live on the thread (asked
//! for less freed).
//! It is the one `unsafe` outside the kernels and the syscall shim (the
//! trait cannot be implemented without it), allowlisted by file in
//! `fec-audit`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fec_channel::{GilbertChannel, GilbertParams, LossModel};
use fec_codec::{builtin, Symbol};
use fec_core::{CodeSpec, CodecHandle, ExpansionRatio, Receiver, Sender, TxModel};
use fec_flute::{AlcPacket, FluteReceiver, FluteSender, SenderConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator hands out. The provided `alloc_zeroed` and `realloc` go
// through `alloc` (and `realloc` through `dealloc`), so they are counted
// too.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A const-initialised `Cell` registers no destructor, so the slot
        // stays reachable; ignoring `try_with`'s result keeps an
        // allocation from ever panicking here.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as i64));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes allocated and not yet freed on this thread.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocations between `Receiver::new` and `into_object` (both
/// included) for one object of `k` symbols of `symbol` bytes, sent under
/// `tx` at ratio 1.5 through a seeded Gilbert(0.03, 0.4) gate when
/// `lossy`, fed in bursts of 60.
fn decode_allocations(code: CodecHandle, tx: TxModel, k: usize, symbol: usize, lossy: bool) -> u64 {
    let spec = CodeSpec::new(code, k, ExpansionRatio::R1_5).with_matrix_seed(11);
    let object: Vec<u8> = (0..k * symbol).map(|i| (i * 131 % 251) as u8).collect();
    let sender = Sender::new(spec.clone(), &object, symbol).unwrap();
    let mut gate = GilbertChannel::new(GilbertParams::new(0.03, 0.4).unwrap(), 7);
    // Every symbol is encoded and the stream gated before counting starts.
    let stream: Vec<Symbol<'_>> = tx
        .schedule(sender.layout(), 3)
        .into_iter()
        .filter(|_| !(lossy && gate.next_is_lost()))
        .map(|packet| Symbol {
            packet,
            payload: sender.symbol(packet).unwrap(),
        })
        .collect();

    let before = allocations();
    let mut rx = Receiver::new(spec, object.len(), symbol).unwrap();
    for burst in stream.chunks(60) {
        if rx.push_symbols(burst).unwrap().is_decoded() {
            break;
        }
    }
    let decoded = rx.into_object().unwrap();
    let made = allocations() - before;
    assert_eq!(decoded, object, "byte mismatch");
    made
}

#[test]
fn a_decoded_object_costs_a_bounded_number_of_allocations() {
    // (workload, code, schedule, k, symbol bytes, lossy, cap); with one
    // buffer per symbol the three made 3 187, 12 552 and 2 513.
    #[rustfmt::skip]
    let cases = [
        ("bulk_ldgm", builtin::ldgm_triangle(), TxModel::Random, 2040, 1024, true, 256),
        ("small_symbol", builtin::ldgm_staircase(), TxModel::Random, 8160, 64, false, 512),
        ("bulk_rse", builtin::rse(), TxModel::Interleaved, 2040, 1024, true, 1024),
    ];
    for (name, code, tx, k, symbol, lossy, cap) in cases {
        let made = decode_allocations(code, tx, k, symbol, lossy);
        println!("{name}: {made} allocations (cap {cap})");
        assert!(made <= cap, "{name}: {made} allocations, cap {cap}");
    }
}

/// Bytes `Receiver::new` requests for one object of `k` symbols of
/// `symbol` bytes at ratio 1.5.
fn receiver_bytes(code: CodecHandle, k: usize, symbol: usize) -> u64 {
    let spec = CodeSpec::new(code, k, ExpansionRatio::R1_5).with_matrix_seed(11);
    let before = bytes();
    let rx = Receiver::new(spec, k * symbol, symbol).unwrap();
    let requested = bytes() - before;
    drop(rx);
    requested
}

#[test]
fn a_receiver_requests_about_its_object_and_matrix() {
    // (workload, code, k, symbol bytes, cap). The object is 522 240 B and
    // 2 088 960 B, the matrix arrays the build keeps (columns only)
    // 212 160 B and 57 112 B, and the decoder's own state and the build's
    // row order (plus, for Triangle, its fill draws) the rest: 829 256 B
    // and 2 179 668 B requested. Each cap leaves less room than the
    // matrix's rows (145 880 B and 40 792 B, which the build kept beside
    // the columns until the encoder took them over: 976 112 B and
    // 2 220 436 B requested), its `(row, col)` entry list (293 760 B and
    // 73 440 B) or a bucket copy of its entries (130 556 B and 36 708 B)
    // would take: the entry-list build requested 1 612 600 B and
    // 2 375 476 B.
    #[rustfmt::skip]
    let cases = [
        ("small_symbol", builtin::ldgm_staircase(), 8160, 64, 850_000),
        ("bulk_ldgm", builtin::ldgm_triangle(), 2040, 1024, 2_190_000),
    ];
    for (name, code, k, symbol, cap) in cases {
        let requested = receiver_bytes(code, k, symbol);
        println!("{name}: Receiver::new requested {requested} B (cap {cap})");
        assert!(
            requested <= cap,
            "{name}: {requested} B requested, cap {cap}"
        );
    }
}

/// A sender that has emitted every symbol of a `small_symbol`-shaped
/// object (LDGM Staircase, k = 8 160 symbols of 64 B, ratio 1.5) holds the
/// source and the parity runs, and no more than its own bookkeeping
/// beside them: its encoder, and with it the matrix's rows, is gone, and
/// it never held the columns. Either would take about 200 000 B here.
#[test]
fn a_sender_done_encoding_holds_its_symbols_only() {
    let (k, symbol) = (8160, 64);
    let spec =
        CodeSpec::new(builtin::ldgm_staircase(), k, ExpansionRatio::R1_5).with_matrix_seed(11);
    let object: Vec<u8> = (0..k * symbol).map(|i| (i * 131 % 251) as u8).collect();
    let schedule = TxModel::Random.schedule(&spec.layout().unwrap(), 3);
    let symbols = (schedule.len() * symbol) as i64;

    let before = live();
    let sender = Sender::new(spec, &object, symbol).unwrap();
    for &r in &schedule {
        sender.symbol(r).unwrap();
    }
    let held = live() - before;
    drop(sender);
    let beside = held - symbols;
    println!("small_symbol sender: {held} B live, {beside} B beside its {symbols} B of symbols");
    assert!(
        (0..=16_384).contains(&beside),
        "{held} B live for {symbols} B of symbols"
    );
}

/// Live bytes a FLUTE receiver holds once it has received and taken
/// `objects` small objects one after another, TOIs 1, 2, …: each object's
/// data datagrams (each carries the OTI in EXT_FTI) arrive as one burst,
/// and its bytes are taken before the next burst.
fn receiver_bytes_after_churn(objects: u32) -> i64 {
    let object: Vec<u8> = (0..256).map(|i| (i * 7 % 251) as u8).collect();
    let mut sender = FluteSender::new(SenderConfig::new(7));
    #[rustfmt::skip]
    sender.add_object(1, "o", &object, builtin::rse(), ExpansionRatio::R1_5, 64, 0, TxModel::Random).unwrap();
    let template: Vec<AlcPacket> = sender
        .datagrams(1)
        .unwrap()
        .iter()
        .map(|d| AlcPacket::from_bytes(d).unwrap())
        .filter(|packet| packet.fdt_instance_id().is_none())
        .collect();

    let before = live();
    let mut rx = FluteReceiver::new(7);
    for toi in 1..=objects {
        let burst: Vec<Vec<u8>> = template
            .iter()
            .map(|packet| {
                let mut packet = packet.clone();
                packet.header.toi = toi;
                packet.to_bytes().unwrap()
            })
            .collect();
        rx.push_datagrams(&burst).unwrap();
        let taken = rx.take_object(toi);
        assert_eq!(taken.as_deref(), Some(&object[..]), "toi {toi}");
    }
    let held = live() - before;
    drop(rx);
    held
}

/// A FLUTE receiver keeps no per-object state for the objects it has
/// finished and handed over: an object's entry folds into one run of
/// finished TOIs when the next object is taken, so what it holds after
/// 2 000 objects is what it held after 1 000 (732 B). It used to keep a
/// table slot and a boxed geometry per object, 391 B each.
#[test]
fn a_finished_object_leaves_its_receiver() {
    let after_1000 = receiver_bytes_after_churn(1000);
    let after_2000 = receiver_bytes_after_churn(2000);
    println!("FluteReceiver: {after_1000} B live after 1 000 objects, {after_2000} B after 2 000");
    assert!(
        (after_2000 - after_1000).abs() <= 64,
        "{after_1000} B after 1 000 objects, {after_2000} B after 2 000"
    );
}

/// A million objects through one receiver, in TOI order: it still holds
/// one entry and one run, 732 B as after a thousand. Run it in release
/// (`-- --ignored`).
#[test]
#[ignore = "a million objects: run in release with --ignored"]
fn a_million_finished_objects_cost_their_receiver_a_constant() {
    let held = receiver_bytes_after_churn(1_000_000);
    println!("FluteReceiver: {held} B live after 1 000 000 objects");
    assert!(held <= 1024, "{held} B after 1 000 000 objects");
}
