//! The shared conformance suite, run against every built-in codec.

use fec_codec::{builtin, conformance, registry};

#[test]
fn rse_conforms() {
    conformance::check(&builtin::rse());
}

#[test]
fn ldgm_staircase_conforms() {
    conformance::check(&builtin::ldgm_staircase());
}

#[test]
fn ldgm_triangle_conforms() {
    conformance::check(&builtin::ldgm_triangle());
}

#[test]
fn every_builtin_survives_adversarial_batches() {
    // Also runs inside `check`; kept as a named test so a batched-path
    // regression points straight at the batched suite.
    for code in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
        builtin::ldgm_plain(),
    ] {
        conformance::check_batched(&code);
    }
}

#[test]
fn every_registered_recommendable_codec_conforms() {
    // The same property the paper's methodology relies on: anything the
    // recommenders may pick behaves like a codec under every schedule.
    for code in registry::candidates() {
        conformance::check(&code);
    }
}

/// A batch with one payload of the wrong length is refused whole, with
/// nothing consumed, wherever the short symbol sits: a source, the parity
/// that completes the block, or a parity past the block's first `k`.
#[test]
fn every_builtin_refuses_a_short_payload_and_consumes_nothing() {
    use fec_codec::{CodecError, SessionParams, Symbol};
    use fec_sched::PacketRef;

    let (k, ratio, len) = (30, 1.5, 16);
    for code in [builtin::rse(), builtin::ldgm_staircase()] {
        let params = SessionParams {
            k,
            ratio,
            symbol_size: len,
            seed: 5,
        };
        let n = code.layout(k, ratio).unwrap().total_packets() as usize;
        let mut symbols: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect();
        let mut enc = code.encoder(&params).unwrap();
        let mut parity = vec![vec![0u8; len]; n - k];
        let mut out: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        let done = &symbols;
        enc.parity(
            0,
            k as u32,
            &|j| done.get(j as usize).map(Vec::as_slice),
            &mut out,
        )
        .unwrap();
        symbols.extend(parity);
        // The first `lost` sources lost: parity `k..k + lost` completes
        // the block, the rest of it is past the first `k` received.
        let lost = k / 5;
        let stream: Vec<Symbol<'_>> = (lost..n)
            .map(|esi| Symbol {
                packet: PacketRef {
                    block: 0,
                    esi: esi as u32,
                },
                payload: &symbols[esi],
            })
            .collect();
        let mut dec = code.decoder(&params).unwrap();
        for short in [lost, k + lost - 1, n - 1] {
            let mut batch = stream.clone();
            batch[short - lost].payload = &symbols[short][..len - 1];
            let err = dec.add_symbols(&batch).unwrap_err();
            assert!(
                matches!(err, CodecError::Decode { .. }),
                "{}: {err}",
                code.id()
            );
            assert_eq!(
                dec.progress().received,
                0,
                "{}: short at {short}",
                code.id()
            );
            assert_eq!(dec.progress().decoded_source, 0);
        }
        assert!(dec.add_symbols(&stream).unwrap().is_decoded());
        assert_eq!(
            dec.into_source().unwrap(),
            symbols[..k].concat(),
            "{}",
            code.id()
        );
    }
}
