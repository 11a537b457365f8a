//! Codec conformance harness: behavioural checks every
//! [`ErasureCode`](crate::ErasureCode) implementation must pass.
//!
//! [`check`] encodes parity one symbol at a time — each block in
//! ascending ESI order, then again as one run per block and in reverse,
//! each with a fresh encoder, which must give the same bytes (also
//! available alone as [`check_encoder`]) — and round-trips the codec
//! across all paper transmission models, duplicate / out-of-order /
//! truncated packet streams, a deterministic loss pattern, one
//! whole-schedule batch, agreement between the payload decoder and its
//! maximum-likelihood structural twin, and the corners of its declared
//! `(k, ratio)` envelope. Symbols go in one at a time — a batch of one —
//! unless a check says otherwise.
//! [`check_batched`] (run from `check`) additionally feeds adversarial
//! windows: odd symbol sizes, in-batch duplicates, reordering,
//! already-decoded symbols, and a window-boundary-exact check that the
//! windows and batches of one agree.
//! It panics with a descriptive message on the first violation — call it
//! from a `#[test]`:
//!
//! ```
//! fec_codec::conformance::check(&fec_codec::builtin::ldgm_staircase());
//! ```
//!
//! Third-party codecs should run it too; passing `check` is what "behaves
//! like a codec" means to the rest of the workspace.

use fec_sched::{Layout, PacketRef, TxModel};

use crate::{CodecHandle, Decoding, Encoder, SessionParams, Symbol};

/// Symbol size used by the schedule/stream checks (small, to keep the
/// harness fast); [`check_batched`] additionally sweeps adversarial
/// odd sizes.
const SYMBOL_SIZE: usize = 16;

/// Structure seed used for every seeded session.
const SEED: u64 = 0xC0DEC;

/// Largest `k` exercised when clamping envelope corners (keeps the
/// harness fast while still hitting multi-block / large-matrix shapes).
const MAX_TEST_K: usize = 300;

/// Bytes the test object leaves off `k * symbol_size` so the final symbol
/// exercises padding (0 for one-byte symbols, where no partial symbol is
/// possible).
fn pad_of(symbol_size: usize) -> usize {
    symbol_size.saturating_sub(1).min(5)
}

/// Deterministic test object of `k * symbol_size - pad_of(..)` bytes.
fn object_sized(k: usize, symbol_size: usize) -> Vec<u8> {
    (0..k * symbol_size - pad_of(symbol_size))
        .map(|i| (i * 31 % 251) as u8)
        .collect()
}

/// Splits an object into `k` zero-padded symbols.
fn symbols(object: &[u8], k: usize, symbol_size: usize) -> Vec<Vec<u8>> {
    let out: Vec<Vec<u8>> = object
        .chunks(symbol_size)
        .map(|c| {
            let mut s = vec![0u8; symbol_size];
            s[..c.len()].copy_from_slice(c);
            s
        })
        .collect();
    assert_eq!(out.len(), k, "object split must yield k symbols");
    out
}

/// All encoding symbols of the object, addressable by packet reference.
struct EncodedObject {
    layout: Layout,
    /// `payload[global_index]`, sources first per block.
    payloads: Vec<Vec<u8>>,
}

impl EncodedObject {
    fn build_sized(
        code: &CodecHandle,
        k: usize,
        ratio: f64,
        symbol_size: usize,
    ) -> (EncodedObject, Vec<u8>) {
        let ctx = format!("{}(k={k}, ratio={ratio}, sym={symbol_size})", code.id());
        let layout = code
            .layout(k, ratio)
            .unwrap_or_else(|e| panic!("{ctx}: layout failed: {e}"));
        assert_eq!(layout.total_source(), k as u64, "{ctx}: layout k mismatch");
        let object = object_sized(k, symbol_size);
        let params = SessionParams {
            k,
            ratio,
            symbol_size,
            seed: SEED,
        };
        let [mut up, mut whole, mut down] = [(); 3].map(|_| {
            code.encoder(&params)
                .unwrap_or_else(|e| panic!("{ctx}: encoder failed: {e}"))
        });
        // The run `first .. first + count` of block `b`, given the block's
        // symbols in ESI order.
        let parity = |encoder: &mut Box<dyn Encoder>,
                      b: usize,
                      first: usize,
                      count: usize,
                      block: &[Vec<u8>]| {
            // Exactly the symbols below the run: a lookup past them is a
            // contract violation the encoder must report, not read.
            let earlier = |j: u32| {
                block
                    .get(j as usize)
                    .filter(|_| (j as usize) < first)
                    .map(Vec::as_slice)
            };
            let mut run = vec![vec![0u8; symbol_size]; count];
            let mut out: Vec<&mut [u8]> = run.iter_mut().map(Vec::as_mut_slice).collect();
            encoder
                .parity(b, first as u32, &earlier, &mut out)
                .unwrap_or_else(|e| {
                    panic!("{ctx}: parity ({b}, {count} from {first}) failed: {e}")
                });
            run
        };
        // Block by block: the source symbols, then each parity symbol in
        // ascending ESI order, a run of one at a time.
        let mut source = symbols(&object, k, symbol_size).into_iter();
        let mut payloads = Vec::with_capacity(layout.total_packets() as usize);
        let mut starts = Vec::with_capacity(layout.num_blocks());
        for b in 0..layout.num_blocks() {
            let (kb, nb) = layout.block(b);
            starts.push(payloads.len());
            payloads.extend(source.by_ref().take(kb));
            for esi in kb..nb {
                let symbol = parity(&mut up, b, esi, 1, &payloads[starts[b]..]);
                payloads.extend(symbol);
            }
        }
        // A second encoder asked for each block's parity as one run, and a
        // third for every parity symbol in reverse — last block first,
        // highest ESI first — must write the same bytes: the output
        // depends on the symbols below the ESI, not on how the parity was
        // split into runs or which calls came before, so a sender may
        // encode a run when a symbol is first emitted and keep it.
        for b in (0..layout.num_blocks()).rev() {
            let (kb, nb) = layout.block(b);
            let block = &payloads[starts[b]..starts[b] + nb];
            assert_eq!(
                parity(&mut whole, b, kb, nb - kb, block),
                block[kb..],
                "{ctx}: block {b}'s parity as one run differs from symbol by symbol"
            );
            for esi in (kb..nb).rev() {
                assert_eq!(
                    parity(&mut down, b, esi, 1, block),
                    block[esi..=esi],
                    "{ctx}: parity ({b}, {esi}) depends on the call order"
                );
            }
        }
        (EncodedObject { layout, payloads }, object)
    }

    fn symbol(&self, r: PacketRef) -> Symbol<'_> {
        let payload = &self.payloads[self.layout.global_index(r) as usize];
        Symbol { packet: r, payload }
    }
}

fn decode_sequence(
    code: &CodecHandle,
    enc: &EncodedObject,
    k: usize,
    ratio: f64,
    sequence: &[PacketRef],
    ctx: &str,
) -> Option<Vec<u8>> {
    let params = SessionParams {
        k,
        ratio,
        symbol_size: SYMBOL_SIZE,
        seed: SEED,
    };
    let mut dec = code
        .decoder(&params)
        .unwrap_or_else(|e| panic!("{ctx}: decoder failed: {e}"));
    let mut fed = 0u64;
    for &r in sequence {
        let progress = dec
            .add_symbols(&[enc.symbol(r)])
            .unwrap_or_else(|e| panic!("{ctx}: add_symbols failed: {e}"));
        fed += 1;
        assert_eq!(progress.received, fed, "{ctx}: received must count pushes");
        assert_eq!(progress.total_source, k, "{ctx}: total_source");
        if progress.is_decoded() {
            let mut out = dec
                .into_source()
                .unwrap_or_else(|e| panic!("{ctx}: into_source failed: {e}"));
            assert_eq!(
                out.len(),
                k * SYMBOL_SIZE,
                "{ctx}: into_source is k symbols"
            );
            out.truncate(k * SYMBOL_SIZE - 5);
            return Some(out);
        }
    }
    assert!(
        !dec.progress().is_decoded(),
        "{ctx}: is_decoded and loop disagree"
    );
    assert!(
        dec.into_source().is_err(),
        "{ctx}: into_source before completion must fail"
    );
    None
}

/// Checks only the encoder at one `(k, ratio)` shape: each block's parity
/// symbol by symbol, as one run and in reverse gives the same bytes. For
/// encode-only codes; [`check_shape`] runs it too.
pub fn check_encoder(code: &CodecHandle, k: usize, ratio: f64) {
    EncodedObject::build_sized(code, k, ratio, SYMBOL_SIZE);
}

/// Checks one `(k, ratio)` shape across schedules and stream corruptions.
pub fn check_shape(code: &CodecHandle, k: usize, ratio: f64) {
    let ctx = format!("{}(k={k}, ratio={ratio})", code.id());
    let (enc, object) = EncodedObject::build_sized(code, k, ratio, SYMBOL_SIZE);

    // Every paper schedule, loss-free. Schedules that deliver the whole
    // object (Tx1–Tx5 are permutations of all n packets) must decode to
    // the exact bytes; partial schedules (Tx6 sends only 20% of the
    // source) must at least never mis-decode or panic.
    for tx in TxModel::paper_models() {
        let schedule = tx.schedule(&enc.layout, 7);
        let complete = schedule.len() as u64 == enc.layout.total_packets();
        match decode_sequence(code, &enc, k, ratio, &schedule, &ctx) {
            Some(got) => assert_eq!(got, object, "{ctx}: {} byte mismatch", tx.name()),
            None => assert!(
                !complete,
                "{ctx}: {} failed despite delivering every packet",
                tx.name()
            ),
        }
    }

    // Deterministic loss: drop every 8th packet of a random schedule
    // (skipped for layouts too small to absorb any loss).
    let schedule = TxModel::Random.schedule(&enc.layout, 11);
    let lossy: Vec<PacketRef> = if enc.layout.total_packets() >= 2 * k as u64 {
        schedule
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| (i % 8 != 0).then_some(r))
            .collect()
    } else {
        schedule.clone()
    };
    let got = decode_sequence(code, &enc, k, ratio, &lossy, &ctx)
        .unwrap_or_else(|| panic!("{ctx}: failed under deterministic loss"));
    assert_eq!(got, object, "{ctx}: lossy byte mismatch");

    // Duplicates: every packet twice, interleaved — harmless.
    let doubled: Vec<PacketRef> = schedule.iter().flat_map(|&r| [r, r]).collect();
    let got = decode_sequence(code, &enc, k, ratio, &doubled, &ctx)
        .unwrap_or_else(|| panic!("{ctx}: failed with duplicated stream"));
    assert_eq!(got, object, "{ctx}: duplicate byte mismatch");

    // Out of order: the reversed schedule is as adversarial as it gets for
    // sequential designs.
    let reversed: Vec<PacketRef> = schedule.iter().rev().copied().collect();
    let got = decode_sequence(code, &enc, k, ratio, &reversed, &ctx)
        .unwrap_or_else(|| panic!("{ctx}: failed with reversed stream"));
    assert_eq!(got, object, "{ctx}: reversed byte mismatch");

    // Truncated: fewer than k symbols can never complete.
    let truncated = &schedule[..k - 1];
    assert!(
        decode_sequence(code, &enc, k, ratio, truncated, &ctx).is_none(),
        "{ctx}: decoded from k-1 symbols (violates information limit)"
    );

    // The same limit on the structural path, which the simulator relies on
    // to fail a run the channel left short of k without decoding it: no
    // k - 1 packets of any schedule (or of the duplicated stream) complete
    // a session of either decoder, one at a time or as one batch.
    let factory = |decoding: Decoding| {
        code.structural_factory(k, ratio, &[SEED], decoding)
            .unwrap_or_else(|e| panic!("{ctx}: structural_factory failed: {e}"))
    };
    let (iterative, ml) = (
        factory(Decoding::Iterative),
        factory(Decoding::MaximumLikelihood),
    );
    let mut streams: Vec<(&str, Vec<PacketRef>)> = TxModel::paper_models()
        .into_iter()
        .map(|tx| (tx.name(), tx.schedule(&enc.layout, 7)))
        .collect();
    streams.push(("duplicated", doubled));
    for (name, stream) in &streams {
        let short = &stream[..stream.len().min(k - 1)];
        for factory in [&iterative, &ml] {
            let mut looped = factory.session(0);
            assert!(
                !short.iter().any(|&r| looped.add_batch(&[r]).is_some())
                    && factory.session(0).add_batch(short).is_none(),
                "{ctx}: structural session completed from {} < k packets of {name}",
                short.len()
            );
        }
    }

    // A session may learn the packets before the k-th in one pass (the
    // simulator's first batch holds k survivors): a head of k - 1 packets
    // as one batch, then one packet at a time, must complete at the same
    // packet as one at a time throughout, under both decoders.
    for factory in [&iterative, &ml] {
        for stream in [&schedule, &lossy] {
            let mut looped = factory.session(0);
            let one_by_one = stream
                .iter()
                .position(|&r| looped.add_batch(&[r]).is_some());
            let (head, rest) = stream.split_at(stream.len().min(k - 1));
            let mut headed = factory.session(0);
            assert!(
                headed.add_batch(head).is_none(),
                "{ctx}: structural session completed from a head of {} < k packets",
                head.len()
            );
            let after_head = rest
                .iter()
                .position(|&r| headed.add_batch(&[r]).is_some())
                .map(|i| head.len() + i);
            assert_eq!(
                after_head, one_by_one,
                "{ctx}: a head window of k - 1 packets moved the completion point"
            );
        }
    }

    // The whole schedule as one batch must decode like the one-by-one
    // feeds above.
    let params = SessionParams {
        k,
        ratio,
        symbol_size: SYMBOL_SIZE,
        seed: SEED,
    };
    let mut batched = code.decoder(&params).expect("decoder");
    let batch: Vec<Symbol<'_>> = schedule.iter().map(|&r| enc.symbol(r)).collect();
    let progress = batched.add_symbols(&batch).expect("batched add");
    assert!(progress.is_decoded(), "{ctx}: batched path failed");
    assert_eq!(
        progress.received,
        schedule.len() as u64,
        "{ctx}: batched received count"
    );
    let mut got = batched.into_source().expect("batched source");
    got.truncate(object.len());
    assert_eq!(got, object, "{ctx}: batched byte mismatch");

    // The maximum-likelihood structural session is the payload decoder's
    // exact twin: they must agree on *when* decoding completes (same
    // structure seed, same sequence). The iterative one never completes
    // earlier.
    let mut twin = ml.session(0);
    let mut peeling = iterative.session(0);
    let mut payload_dec = code.decoder(&params).expect("decoder");
    let (mut twin_at, mut peeling_at, mut payload_at) = (None, None, None);
    for (i, &r) in lossy.iter().enumerate() {
        if twin_at.is_none() && twin.add_batch(&[r]).is_some() {
            twin_at = Some(i);
        }
        if peeling_at.is_none() && peeling.add_batch(&[r]).is_some() {
            peeling_at = Some(i);
        }
        if payload_at.is_none()
            && payload_dec
                .add_symbols(&[enc.symbol(r)])
                .expect("add_symbols")
                .is_decoded()
        {
            payload_at = Some(i);
        }
    }
    assert_eq!(
        twin_at, payload_at,
        "{ctx}: maximum-likelihood structural and payload decoders disagree on completion"
    );
    assert!(
        peeling_at.is_none_or(|p| payload_at.is_some_and(|q| q <= p)),
        "{ctx}: iterative structural session ({peeling_at:?}) completed before the payload \
         decoder ({payload_at:?})"
    );
}

/// Adversarial odd symbol sizes [`check_batched`] sweeps: a one-byte
/// symbol (no padding possible, every kernel call is all-tail), a small
/// prime, and a large prime that straddles every SIMD block width.
const BATCH_SYMBOL_SIZES: &[usize] = &[1, 13, 1023];

/// Batch-split conformance: feeding a stream to
/// [`Decoder::add_symbols`](crate::Decoder::add_symbols) in windows must be
/// indistinguishable from feeding it in batches of one, and likewise for
/// [`StructuralSession::add_batch`](crate::StructuralSession::add_batch),
/// under adversarial windows — odd symbol sizes, duplicates inside and
/// across windows, reordered windows, and symbols arriving after their
/// block (or the whole object) already decoded.
///
/// Run from [`check`]; callable on its own for quick iteration on a
/// codec's batched path.
pub fn check_batched(code: &CodecHandle) {
    let (k, ratio) = shapes(code)[0];
    for &symbol_size in BATCH_SYMBOL_SIZES {
        check_batched_shape(code, k, ratio, symbol_size);
    }
}

/// One `(k, ratio, symbol_size)` shape of the batched conformance suite.
fn check_batched_shape(code: &CodecHandle, k: usize, ratio: f64, symbol_size: usize) {
    let ctx = format!("{}(k={k}, ratio={ratio}, sym={symbol_size})", code.id());
    let (enc, object) = EncodedObject::build_sized(code, k, ratio, symbol_size);
    let params = SessionParams {
        k,
        ratio,
        symbol_size,
        seed: SEED,
    };

    // Adversarial stream: windows of a random schedule, each window
    // reversed and with its first packet duplicated, followed (after the
    // whole object has been delivered) by a window of already-decoded
    // symbols. Window sizes vary so batch boundaries land on every
    // alignment.
    let schedule = TxModel::Random.schedule(&enc.layout, 13);
    let window_sizes = [1usize, 2, 7, 3, 16, 5, 64, 11];
    let mut windows: Vec<Vec<PacketRef>> = Vec::new();
    let mut cursor = 0usize;
    let mut size_idx = 0usize;
    while cursor < schedule.len() {
        let want = window_sizes[size_idx % window_sizes.len()];
        size_idx += 1;
        let end = (cursor + want).min(schedule.len());
        let mut w: Vec<PacketRef> = schedule[cursor..end].iter().rev().copied().collect();
        let dup = w[0];
        w.push(dup); // in-batch duplicate
        windows.push(w);
        cursor = end;
    }
    // A final window of symbols the decoder has already solved.
    windows.push(schedule[..schedule.len().min(10)].to_vec());

    // Feed the same windows to one decoder whole and to another one symbol
    // at a time; their progress must agree at every window boundary (not
    // just at the end).
    let mut batched = code
        .decoder(&params)
        .unwrap_or_else(|e| panic!("{ctx}: decoder failed: {e}"));
    let mut sequential = code.decoder(&params).expect("decoder");
    for (w_idx, window) in windows.iter().enumerate() {
        let batch: Vec<Symbol<'_>> = window.iter().map(|&r| enc.symbol(r)).collect();
        let via_batch = batched
            .add_symbols(&batch)
            .unwrap_or_else(|e| panic!("{ctx}: add_symbols failed: {e}"));
        let mut via_loop = sequential.progress();
        for s in &batch {
            via_loop = sequential
                .add_symbols(&[*s])
                .unwrap_or_else(|e| panic!("{ctx}: add_symbols of one failed: {e}"));
        }
        assert_eq!(
            via_batch, via_loop,
            "{ctx}: batched and sequential progress diverge after window {w_idx}"
        );
    }
    let final_progress = batched.progress();
    assert!(
        final_progress.is_decoded(),
        "{ctx}: full delivery must decode"
    );
    let total_fed: usize = windows.iter().map(Vec::len).sum();
    assert_eq!(
        final_progress.received, total_fed as u64,
        "{ctx}: every batched symbol (duplicates included) must be counted"
    );
    for (name, dec) in [("batched", batched), ("sequential", sequential)] {
        let mut got = dec
            .into_source()
            .unwrap_or_else(|e| panic!("{ctx}: {name} into_source failed: {e}"));
        got.truncate(object.len());
        assert_eq!(got, object, "{ctx}: {name} byte mismatch");
    }

    // Structural sessions of either decoder: a window must complete at the
    // same packet index as batches of one on the same stream.
    let flat: Vec<PacketRef> = windows.iter().flatten().copied().collect();
    for decoding in [Decoding::Iterative, Decoding::MaximumLikelihood] {
        let factory = code
            .structural_factory(k, ratio, &[SEED], decoding)
            .unwrap_or_else(|e| panic!("{ctx}: structural_factory failed: {e}"));
        let mut looped = factory.session(0);
        let loop_done = flat.iter().position(|&r| looped.add_batch(&[r]).is_some());
        for window in [&flat[..], &flat[..flat.len() / 2]] {
            let mut batched = factory.session(0);
            let batch_done = batched.add_batch(window);
            let expect = loop_done.filter(|&i| i < window.len());
            assert_eq!(
                batch_done,
                expect,
                "{ctx}: {decoding:?} structural add_batch completion index (window {})",
                window.len()
            );
        }
    }
}

/// The `(k, ratio)` shapes [`check`] exercises: a mid-size shape per paper
/// ratio plus the corners of the codec's declared envelope (clamped to
/// `MAX_TEST_K` (300) so huge envelopes stay testable).
fn shapes(code: &CodecHandle) -> Vec<(usize, f64)> {
    let env = code.envelope();
    let mut out = Vec::new();
    let mut push = |k: usize, ratio: f64| {
        if code.supports(k, ratio) && !out.contains(&(k, ratio)) {
            out.push((k, ratio));
        }
    };
    // Paper ratios at a mid-size k (multi-block for segmented codes).
    for ratio in [1.5, 2.5] {
        push(120, ratio);
        push(250, ratio);
    }
    // Envelope corners: smallest and (clamped) largest k, at the lowest
    // usable ratio and a high ratio.
    let hi_ratio = env.max_ratio.min(4.0);
    let max_k = env.max_k.min(MAX_TEST_K);
    for k in [env.min_k, max_k] {
        // The lowest ratio the codec actually supports at this k.
        if let Some(lo) = [env.min_ratio, 1.25, 1.5, 2.0, 2.5, 4.0, 5.0, 8.0]
            .into_iter()
            .find(|&r| r >= env.min_ratio && r <= env.max_ratio && code.supports(k, r))
        {
            push(k, lo);
        }
        push(k, hi_ratio);
    }
    assert!(
        !out.is_empty(),
        "{}: envelope admits no testable shape",
        code.id()
    );
    out
}

/// Runs the full conformance suite against one codec. Panics on the first
/// violation.
pub fn check(code: &CodecHandle) {
    let env = code.envelope();
    assert!(env.min_k >= 1, "{}: envelope min_k must be >= 1", code.id());
    assert!(
        env.min_k <= env.max_k && env.min_ratio <= env.max_ratio,
        "{}: envelope is inverted",
        code.id()
    );
    assert!(
        !code.id().is_empty() && code.id().chars().all(|c| !c.is_whitespace()),
        "{}: id must be a machine token",
        code.id()
    );
    for (k, ratio) in shapes(code) {
        check_shape(code, k, ratio);
    }
    check_batched(code);
    // Out-of-envelope geometry must be rejected, not mis-encoded.
    assert!(
        code.layout(0, 1.5).is_err(),
        "{}: k = 0 must be rejected",
        code.id()
    );
    assert!(
        code.layout(10, 0.5).is_err(),
        "{}: ratio < 1 must be rejected",
        code.id()
    );
    assert!(
        code.layout(10, f64::NAN).is_err(),
        "{}: NaN ratio must be rejected",
        code.id()
    );
}
