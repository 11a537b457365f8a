//! The receiving side of a broadcast session.

use fec_codec::{Decoder, Symbol};
use fec_sched::{Layout, PacketRef};

use crate::{CodeSpec, CoreError, DecodeProgress};

/// A decoding session: push packets in any order until the object is whole.
///
/// The session validates packets against the layout and symbol size, then
/// delegates to the spec's codec [`Decoder`] — any registered
/// [`ErasureCode`](fec_codec::ErasureCode) works here unchanged.
pub struct Receiver {
    spec: CodeSpec,
    layout: Layout,
    symbol_size: usize,
    object_len: usize,
    decoder: Box<dyn Decoder>,
}

impl Receiver {
    /// Creates a receiver for an object of `object_len` bytes under `spec`.
    ///
    /// For seeded codes (LDGM) this rebuilds the sender's structure from
    /// `spec.matrix_seed` — the only shared state the scheme needs.
    pub fn new(
        spec: CodeSpec,
        object_len: usize,
        symbol_size: usize,
    ) -> Result<Receiver, CoreError> {
        spec.validate_object(object_len, symbol_size)?;
        let layout = spec.layout()?;
        let decoder = spec
            .code
            .decoder(&spec.session_params(symbol_size))
            .map_err(|e| CoreError::Codec {
                detail: e.to_string(),
            })?;
        Ok(Receiver {
            spec,
            layout,
            symbol_size,
            object_len,
            decoder,
        })
    }

    /// Validates a symbol against the session geometry.
    fn check(&self, symbol: &Symbol<'_>) -> Result<(), CoreError> {
        let r = symbol.packet;
        if !self.layout.contains(r) {
            return Err(CoreError::UnknownPacket {
                block: r.block,
                esi: r.esi,
            });
        }
        if symbol.payload.len() != self.symbol_size {
            return Err(CoreError::WrongSymbolSize {
                expected: self.symbol_size,
                got: symbol.payload.len(),
            });
        }
        Ok(())
    }

    /// Feeds one symbol, a batch of one for
    /// [`push_symbols`](Self::push_symbols); duplicates are counted but
    /// harmless.
    pub fn push(&mut self, packet: PacketRef, payload: &[u8]) -> Result<DecodeProgress, CoreError> {
        self.push_symbols(&[Symbol { packet, payload }])
    }

    /// Feeds a batch of *borrowed* symbols through the codec's batched
    /// entry point (the hook SIMD/batched decode kernels land behind).
    ///
    /// The payloads may point anywhere — typically into the receive
    /// buffers a socket drain filled — and are only read during the call:
    /// the built-in decoders copy a source symbol straight into the object
    /// buffer [`into_object`](Self::into_object) hands over, so a symbol
    /// is copied once between the wire and the decoded object. The batch
    /// is validated against the session geometry first and rejected as a
    /// whole, with nothing consumed, if any symbol is outside the layout
    /// or has the wrong size.
    pub fn push_symbols(&mut self, symbols: &[Symbol<'_>]) -> Result<DecodeProgress, CoreError> {
        for s in symbols {
            self.check(s)?;
        }
        self.decoder
            .add_symbols(symbols)
            .map_err(|e| CoreError::Codec {
                detail: e.to_string(),
            })
    }

    /// Current progress snapshot.
    pub fn progress(&self) -> DecodeProgress {
        self.decoder.progress()
    }

    /// True once the object is fully recoverable.
    pub fn is_decoded(&self) -> bool {
        self.progress().is_decoded()
    }

    /// Hands over the decoded object (consumes the receiver): the
    /// decoder's own buffer, with the last symbol's padding cut off. No
    /// byte is copied.
    pub fn into_object(self) -> Result<Vec<u8>, CoreError> {
        let progress = self.progress();
        if !progress.is_decoded() {
            return Err(CoreError::NotDecoded {
                decoded: progress.decoded_source,
                needed: progress.total_source,
            });
        }
        let mut object = self.decoder.into_source().map_err(|e| CoreError::Codec {
            detail: e.to_string(),
        })?;
        object.truncate(self.object_len);
        Ok(object)
    }
}

impl core::fmt::Debug for Receiver {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let p = self.progress();
        write!(
            f,
            "Receiver({}, {}/{} source, {} received)",
            self.spec.code.id(),
            p.decoded_source,
            p.total_source,
            p.received
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sender, TxModel};
    use fec_codec::{builtin, CodecHandle};
    use fec_sim::ExpansionRatio;

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    /// The sender's symbols in `tx` order, borrowed.
    fn symbols(sender: &Sender, tx: TxModel, seed: u64) -> Vec<Symbol<'_>> {
        let refs = tx.schedule(sender.layout(), seed);
        let symbol = |packet| Symbol {
            packet,
            payload: sender.symbol(packet).unwrap(),
        };
        refs.into_iter().map(symbol).collect()
    }

    fn roundtrip(code: CodecHandle, k: usize, sym: usize, drop_every: usize) {
        let id = code.id().to_string();
        let spec = CodeSpec::new(code, k, ExpansionRatio::R2_5).with_matrix_seed(3);
        let obj = object(k * sym - sym / 2); // exercise padding
        let sender = Sender::new(spec.clone(), &obj, sym).unwrap();
        let mut rx = Receiver::new(spec, obj.len(), sym).unwrap();
        let mut decoded = false;
        for (i, s) in symbols(&sender, TxModel::Random, 99).iter().enumerate() {
            if drop_every > 0 && i % drop_every == 0 {
                continue; // deterministic "loss"
            }
            if rx.push(s.packet, s.payload).unwrap().is_decoded() {
                decoded = true;
                break;
            }
        }
        assert!(decoded, "{id} failed to decode");
        assert_eq!(rx.into_object().unwrap(), obj);
    }

    #[test]
    fn ldgm_staircase_roundtrip_with_losses() {
        roundtrip(builtin::ldgm_staircase(), 120, 16, 4);
    }

    #[test]
    fn ldgm_triangle_roundtrip_with_losses() {
        roundtrip(builtin::ldgm_triangle(), 120, 16, 4);
    }

    #[test]
    fn rse_roundtrip_with_losses() {
        roundtrip(builtin::rse(), 250, 8, 4);
    }

    #[test]
    fn missing_source_tracks_residual_loss() {
        let spec = CodeSpec::ldgm_staircase(20, ExpansionRatio::R2_5);
        let obj = object(20 * 8);
        let sender = Sender::new(spec.clone(), &obj, 8).unwrap();
        let mut rx = Receiver::new(spec, obj.len(), 8).unwrap();
        // Source symbols still unrecovered: the residual (post-FEC) loss.
        let missing = |rx: &Receiver| {
            let p = rx.progress();
            p.total_source - p.decoded_source
        };
        assert_eq!(missing(&rx), 20, "nothing recovered yet");
        for s in symbols(&sender, TxModel::SourceSeqParitySeq, 0) {
            let before = missing(&rx);
            if rx.push(s.packet, s.payload).unwrap().is_decoded() {
                break;
            }
            assert!(missing(&rx) <= before, "never regresses");
        }
        assert_eq!(missing(&rx), 0, "decoded means no residual");
    }

    #[test]
    fn batched_push_decodes_too() {
        let spec = CodeSpec::ldgm_staircase(30, ExpansionRatio::R2_5);
        let obj = object(30 * 8);
        let sender = Sender::new(spec.clone(), &obj, 8).unwrap();
        let mut rx = Receiver::new(spec, obj.len(), 8).unwrap();
        let batch = symbols(&sender, TxModel::Random, 5);
        let progress = rx.push_symbols(&batch).unwrap();
        assert!(progress.is_decoded());
        assert_eq!(progress.received, batch.len() as u64);
        assert_eq!(rx.into_object().unwrap(), obj);
    }

    /// A batch with one symbol outside the geometry is refused whole:
    /// nothing consumed.
    #[test]
    fn borrowed_symbols_decode_and_a_bad_batch_consumes_nothing() {
        let spec = CodeSpec::ldgm_staircase(30, ExpansionRatio::R2_5);
        let obj = object(30 * 8);
        let sender = Sender::new(spec.clone(), &obj, 8).unwrap();
        let mut rx = Receiver::new(spec, obj.len(), 8).unwrap();
        let mut symbols = symbols(&sender, TxModel::Random, 5);
        let good = symbols[3];
        symbols[3].payload = &good.payload[..7];
        assert!(matches!(
            rx.push_symbols(&symbols),
            Err(CoreError::WrongSymbolSize { .. })
        ));
        assert_eq!(rx.progress().received, 0);
        symbols[3] = good;
        assert!(rx.push_symbols(&symbols).unwrap().is_decoded());
        assert_eq!(rx.into_object().unwrap(), obj);
    }

    #[test]
    fn premature_into_object_fails() {
        let spec = CodeSpec::ldgm_staircase(10, ExpansionRatio::R2_5);
        let rx = Receiver::new(spec, 100, 10).unwrap();
        assert!(matches!(
            rx.into_object(),
            Err(CoreError::NotDecoded {
                decoded: 0,
                needed: 10
            })
        ));
    }

    /// Pushes one symbol to a fresh k = 10, n = 25 receiver and checks it
    /// is refused with `expected` and not counted as received.
    fn assert_refused(block: u32, esi: u32, payload: &[u8], expected: CoreError) {
        let spec = CodeSpec::ldgm_staircase(10, ExpansionRatio::R2_5); // n = 25
        let mut rx = Receiver::new(spec, 100, 10).unwrap();
        assert_eq!(rx.push(PacketRef { block, esi }, payload), Err(expected));
        assert_eq!(rx.progress().received, 0);
    }

    #[test]
    fn wrong_symbol_size_rejected() {
        let expected = CoreError::WrongSymbolSize {
            expected: 10,
            got: 5,
        };
        assert_refused(0, 0, b"short", expected);
    }

    #[test]
    fn unknown_packet_rejected() {
        let unknown = |block, esi| CoreError::UnknownPacket { block, esi };
        assert_refused(3, 0, &[0; 10], unknown(3, 0)); // unknown block
        assert_refused(0, 25, &[0; 10], unknown(0, 25)); // ESI past the block
    }

    #[test]
    fn duplicates_count_as_received_but_do_not_break() {
        let spec = CodeSpec::rse(30, ExpansionRatio::R2_5);
        let obj = object(30 * 4);
        let sender = Sender::new(spec.clone(), &obj, 4).unwrap();
        let mut rx = Receiver::new(spec, obj.len(), 4).unwrap();
        let batch = symbols(&sender, TxModel::SourceSeqParitySeq, 0);
        rx.push_symbols(&batch[..1]).unwrap();
        rx.push_symbols(&batch[..1]).unwrap();
        let p = rx.progress();
        assert_eq!(p.received, 2);
        assert_eq!(p.decoded_source, 1);
        // Finish and verify.
        for s in &batch[1..] {
            if rx.push(s.packet, s.payload).unwrap().is_decoded() {
                break;
            }
        }
        assert_eq!(rx.into_object().unwrap(), obj);
    }

    #[test]
    fn rse_decodes_each_block_at_exactly_k_packets() {
        let spec = CodeSpec::rse(100, ExpansionRatio::R1_5); // single block k=100,n=150
        let obj = object(100 * 4);
        let sender = Sender::new(spec.clone(), &obj, 4).unwrap();
        let mut rx = Receiver::new(spec, obj.len(), 4).unwrap();
        // Feed 100 parity+source mixed packets: exactly k distinct suffices.
        for (i, s) in symbols(&sender, TxModel::Random, 5)
            .iter()
            .take(100)
            .enumerate()
        {
            let p = rx.push(s.packet, s.payload).unwrap();
            assert_eq!(p.is_decoded(), i == 99, "decoded at packet {i}");
        }
        assert_eq!(rx.into_object().unwrap(), obj);
    }

    #[test]
    fn mismatched_matrix_seed_still_decodes_all_source() {
        // With different seeds the parity is useless, but receiving all k
        // source packets must still decode (systematic code).
        let tx_spec = CodeSpec::ldgm_staircase(20, ExpansionRatio::R2_5).with_matrix_seed(1);
        let rx_spec = tx_spec.clone().with_matrix_seed(2);
        let obj = object(20 * 8);
        let sender = Sender::new(tx_spec, &obj, 8).unwrap();
        let mut rx = Receiver::new(rx_spec, obj.len(), 8).unwrap();
        for r in sender.layout().source_sequential() {
            rx.push(r, sender.symbol(r).unwrap()).unwrap();
        }
        assert!(rx.is_decoded());
        assert_eq!(rx.into_object().unwrap(), obj);
    }
}
