//! The byte path decodes LDGM by maximum likelihood: a [`Receiver`]
//! completes at the first batch after which the symbols it holds
//! determine the object — [`ml_necessary`] of its arrival order — where
//! the paper's peeling decoder often stalls on a stopping set.

use fec_channel::{GilbertChannel, GilbertParams, LossModel};
use fec_codec::{builtin, Symbol};
use fec_core::{CodeSpec, CodecHandle, ExpansionRatio, Receiver, Sender, TxModel};
use fec_ldgm::{ml_necessary, peeling_necessary, LdgmParams, RightSide, SparseMatrix};
use fec_sched::PacketRef;

const K: usize = 300;
const SYMBOL: usize = 16;

/// One object under `code` with matrix seed `seed`, sent in random order
/// through a Gilbert(0.05, 0.4) gate. Checks the receiver against
/// `ml_necessary` fed one symbol at a time and in bursts of 64, and
/// returns `(ml_necessary, peeling_necessary)` of the survivors.
fn check(code: CodecHandle, right: RightSide, seed: u64) -> (usize, usize) {
    let ctx = format!("{right} seed {seed}");
    let spec = CodeSpec::new(code, K, ExpansionRatio::R1_5).with_matrix_seed(seed);
    let object: Vec<u8> = (0..K * SYMBOL)
        .map(|i| (i * 131 + seed as usize) as u8)
        .collect();
    let sender = Sender::new(spec.clone(), &object, SYMBOL).unwrap();
    let mut gate = GilbertChannel::new(GilbertParams::new(0.05, 0.4).unwrap(), seed);
    let stream: Vec<PacketRef> = TxModel::Random
        .schedule(sender.layout(), seed)
        .into_iter()
        .filter(|_| !gate.next_is_lost())
        .collect();
    let symbol = |packet: PacketRef| Symbol {
        packet,
        payload: sender.symbol(packet).unwrap(),
    };

    let n = sender.layout().total_packets() as usize;
    let matrix = SparseMatrix::build(LdgmParams::new(K, n, right, seed)).unwrap();
    let order: Vec<u32> = stream.iter().map(|r| r.esi).collect();
    let need = ml_necessary(&matrix, &order).expect("the survivors determine the object");
    let peel = peeling_necessary(&matrix, &order).unwrap_or(order.len() + 1);

    // One symbol at a time: still decoding one symbol short of the point,
    // decoded at it, byte for byte.
    let mut rx = Receiver::new(spec.clone(), object.len(), SYMBOL).unwrap();
    for (i, &packet) in stream[..need].iter().enumerate() {
        let decoded = rx.push_symbols(&[symbol(packet)]).unwrap().is_decoded();
        assert_eq!(decoded, i + 1 == need, "{ctx}: after {} symbols", i + 1);
    }
    assert_eq!(rx.into_object().unwrap(), object, "{ctx}: one at a time");

    // Bursts of 64: decoded at the first burst that ends at or past it.
    let mut rx = Receiver::new(spec, object.len(), SYMBOL).unwrap();
    let mut fed = 0;
    for burst in stream.chunks(64) {
        let batch: Vec<Symbol<'_>> = burst.iter().map(|&p| symbol(p)).collect();
        fed += burst.len();
        let decoded = rx.push_symbols(&batch).unwrap().is_decoded();
        assert_eq!(decoded, fed >= need, "{ctx}: burst ending at {fed}");
        if decoded {
            break;
        }
    }
    assert_eq!(rx.into_object().unwrap(), object, "{ctx}: in bursts");
    (need, peel)
}

#[test]
fn receiver_completes_at_the_ml_point_for_staircase_and_triangle() {
    let mut stalls = 0;
    for (code, right) in [
        (builtin::ldgm_staircase(), RightSide::Staircase),
        (builtin::ldgm_triangle(), RightSide::Triangle),
    ] {
        for seed in 1..=6 {
            let (ml, peel) = check(code.clone(), right, seed);
            assert!(
                ml <= peel,
                "{right} seed {seed}: ML {ml} after peeling {peel}"
            );
            stalls += usize::from(ml < peel);
        }
    }
    assert!(
        stalls > 0,
        "no case stalled peeling: the trigger went untested"
    );
}
