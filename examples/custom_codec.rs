//! Registering a third-party erasure code and using it end to end.
//!
//! This is the workspace's "write your own codec" walkthrough: a complete
//! single-parity XOR code (any `k` of its `k + 1` encoding symbols
//! recover the object) implemented against `fec_codec::ErasureCode`,
//! registered at runtime, then driven through every consumer that
//! resolves codecs by name — a byte-true `fec-core` sender/receiver
//! session, the `fec-sim` Monte-Carlo runner, and serialized `CodeSpec`s —
//! plus the conformance harness that proves it behaves like a codec.
//!
//! Run with: `cargo run --example custom_codec`

use std::sync::Arc;

use fec_broadcast::codec::{
    conformance, registry, CodecError, DecodeProgress, Decoder, Decoding, Encoder, Envelope,
    ErasureCode, SessionParams, StructuralFactory, StructuralSession, Symbol,
};
use fec_broadcast::prelude::*;

/// A single-parity XOR code: `n = k + 1`, parity = XOR of all sources.
///
/// It corrects exactly one erasure — useless for the paper's channels,
/// perfect for showing the seam: nothing below this file knows it exists.
struct XorParity;

impl ErasureCode for XorParity {
    fn id(&self) -> &str {
        "xor-parity"
    }

    fn name(&self) -> &str {
        "XOR single parity"
    }

    // No IANA FEC Encoding ID: usable everywhere except ALC transport.
    fn fti_id(&self) -> Option<u8> {
        None
    }

    // Keep it out of the §6 recommenders' candidate set: a 1-erasure
    // parity code is never a broadcast recommendation. (Codecs that should
    // compete leave the default `true` and are picked up automatically by
    // `MeasuredSelector` and the benches.)
    fn recommendable(&self) -> bool {
        false
    }

    fn envelope(&self) -> Envelope {
        Envelope {
            min_k: 1,
            max_k: 1 << 16,
            min_ratio: 1.0,
            max_ratio: 2.0,
        }
    }

    fn supports(&self, k: usize, ratio: f64) -> bool {
        // Exactly one parity symbol: floor(k * ratio) == k + 1.
        self.envelope().contains(k, ratio) && ((k as f64) * ratio).floor() as usize == k + 1
    }

    fn layout(&self, k: usize, ratio: f64) -> Result<Layout, CodecError> {
        if !self.supports(k, ratio) {
            return Err(CodecError::UnsupportedGeometry {
                code: self.id().into(),
                k,
                ratio,
                reason: "single-parity needs floor(k * ratio) == k + 1".into(),
            });
        }
        Ok(Layout::single_block(k, k + 1))
    }

    fn encoder(&self, p: &SessionParams) -> Result<Box<dyn Encoder>, CodecError> {
        self.layout(p.k, p.ratio)?;
        Ok(Box::new(XorEncoder))
    }

    fn decoder(&self, p: &SessionParams) -> Result<Box<dyn Decoder>, CodecError> {
        self.layout(p.k, p.ratio)?;
        Ok(Box::new(XorDecoder {
            k: p.k,
            len: p.symbol_size,
            object: vec![0; p.k * p.symbol_size],
            have: vec![false; p.k],
            parity: None,
            received: 0,
        }))
    }

    // Any k symbols decode, so both decoders finish at the same point.
    fn structural_factory(
        &self,
        k: usize,
        ratio: f64,
        _seeds: &[u64],
        _decoding: Decoding,
    ) -> Result<Box<dyn StructuralFactory>, CodecError> {
        self.layout(k, ratio)?;
        Ok(Box::new(XorFactory { k }))
    }
}

struct XorEncoder;

impl Encoder for XorEncoder {
    // The one parity symbol (ESI k) is the XOR of every source symbol
    // below it; a sender asks for it, a run of one, the first time it
    // emits that symbol.
    fn parity<'s>(
        &mut self,
        _block: usize,
        first: u32,
        earlier: &dyn Fn(u32) -> Option<&'s [u8]>,
        out: &mut [&mut [u8]],
    ) -> Result<(), CodecError> {
        let [out] = out else {
            return Err(CodecError::encode(&XorParity, "one parity symbol only"));
        };
        for j in 0..first {
            let s = earlier(j).ok_or_else(|| CodecError::encode(&XorParity, "source missing"))?;
            out.iter_mut().zip(s).for_each(|(p, b)| *p ^= b);
        }
        Ok(())
    }
}

struct XorDecoder {
    k: usize,
    len: usize,
    /// The `k` source symbols back to back: what `into_source` returns.
    object: Vec<u8>,
    have: Vec<bool>,
    parity: Option<Vec<u8>>,
    received: u64,
}

impl Decoder for XorDecoder {
    fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError> {
        for s in batch {
            self.received += 1;
            let i = s.packet.esi as usize;
            if i == self.k {
                self.parity.get_or_insert_with(|| s.payload.to_vec());
            } else if !self.have[i] {
                // A source symbol goes straight into the object.
                self.have[i] = true;
                self.object[i * self.len..][..self.len].copy_from_slice(s.payload);
            }
        }
        Ok(self.progress())
    }

    fn progress(&self) -> DecodeProgress {
        let missing = self.have.iter().filter(|&&h| !h).count();
        let solvable = missing == 0 || (missing == 1 && self.parity.is_some());
        DecodeProgress {
            received: self.received,
            decoded_source: if solvable { self.k } else { self.k - missing },
            total_source: self.k,
        }
    }

    fn into_source(self: Box<Self>) -> Result<Vec<u8>, CodecError> {
        let p = self.progress();
        if !p.is_decoded() {
            return Err(CodecError::NotDecoded {
                decoded: p.decoded_source,
                needed: p.total_source,
            });
        }
        let XorDecoder {
            len,
            mut object,
            have,
            parity,
            ..
        } = *self;
        if let Some(hole) = have.iter().position(|&h| !h) {
            // The hole is still zero: the parity XOR every symbol fills it.
            let mut fill = parity.expect("parity present");
            for s in object.chunks_exact(len) {
                fill.iter_mut().zip(s).for_each(|(p, b)| *p ^= b);
            }
            object[hole * len..][..len].copy_from_slice(&fill);
        }
        Ok(object)
    }
}

struct XorFactory {
    k: usize,
}

impl StructuralFactory for XorFactory {
    fn session(&self, _run_idx: u64) -> Box<dyn StructuralSession + '_> {
        Box::new(XorStructural {
            seen: vec![false; self.k + 1],
            distinct: 0,
            k: self.k,
        })
    }
}

struct XorStructural {
    seen: Vec<bool>,
    distinct: usize,
    k: usize,
}

impl StructuralSession for XorStructural {
    fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize> {
        let mut done_at = None;
        for (i, r) in batch.iter().enumerate() {
            if !self.seen[r.esi as usize] {
                self.seen[r.esi as usize] = true;
                self.distinct += 1;
            }
            if done_at.is_none() && self.distinct >= self.k {
                done_at = Some(i);
            }
        }
        done_at
    }
}

fn main() {
    // 1. Register. From here on the codec resolves by name everywhere.
    registry::register(Arc::new(XorParity)).expect("no conflicts");
    let code = registry::resolve("xor-parity").expect("just registered");
    println!("registered: {} ({})", code.id(), code.name());
    // recommendable() == false keeps it out of the §6 candidate sets the
    // recommenders and benches sweep.
    assert!(registry::candidates()
        .iter()
        .all(|c| c.id() != "xor-parity"));

    // 2. Prove it behaves like a codec (the same harness the built-ins
    //    pass; panics with a description on any violation).
    let k = 50;
    let ratio = ExpansionRatio::Custom(1.02); // floor(50 * 1.02) = 51 = k + 1
    conformance::check_shape(&code, k, ratio.as_f64());
    println!("conformance: ok for (k = {k}, ratio = {ratio})");

    // 3. A byte-true session through fec-core, losing one packet — the
    //    exact budget a single parity covers.
    let symbol = 32;
    let spec = CodeSpec::new(code.clone(), k, ratio);
    let object: Vec<u8> = (0..k * symbol - 3).map(|i| (i % 251) as u8).collect();
    let sender = Sender::new(spec.clone(), &object, symbol).expect("encode");
    let mut receiver = Receiver::new(spec.clone(), object.len(), symbol).expect("receiver");
    for (i, r) in TxModel::Random
        .schedule(sender.layout(), 7)
        .into_iter()
        .enumerate()
    {
        if i == 3 {
            continue; // one erasure
        }
        let symbol = sender.symbol(r).expect("valid ref");
        if receiver.push(r, symbol).expect("valid symbol").is_decoded() {
            break;
        }
    }
    assert_eq!(receiver.into_object().expect("decoded"), object);
    println!("fec-core session: decoded through 1 erasure");

    // 4. The Monte-Carlo runner accepts it like any built-in.
    let exp = Experiment::new(code.clone(), k, ratio, TxModel::Random);
    let out = Runner::new(exp, 1)
        .expect("valid experiment")
        .run(11, 0, false);
    println!(
        "fec-sim run: decoded = {}, n_necessary = {:?} (k = {k})",
        out.decoded, out.n_necessary
    );

    // 5. Serialized specs name it, and resolve back through the registry.
    let json = serde_json::to_string(&spec).expect("serialize");
    let back: CodeSpec = serde_json::from_str(&json).expect("resolves by name");
    assert_eq!(back, spec);
    println!("CodeSpec wire form: {json}");
}
