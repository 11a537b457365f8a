//! One-off probes of the traced run: kernel throughput at the workload's
//! symbol size, and the OTI geometry defect count.

use std::hint::black_box;
use std::time::Instant;

use fec_broadcast::codec::builtin;
use fec_broadcast::core::ExpansionRatio;
use fec_broadcast::gf256::kernels;

use crate::pipeline::oti_round_trips;
use crate::work::{random_bytes, Counts};

/// Bytes each kernel probe moves.
const PROBE_BYTES: usize = 128 << 20;

/// Distinct source symbols the probe cycles through: at 1 KiB they stay
/// in L2, as the symbols of one LDGM row or RSE block do.
const PROBE_SYMBOLS: usize = 128;

/// Throughput of `xor_slice` and `addmul_slice` on the active backend at
/// `symbol` bytes per call, in GiB/s.
pub fn kernel_throughput(symbol: usize, counts: &mut Counts) {
    let sources: Vec<Vec<u8>> = (0..PROBE_SYMBOLS)
        .map(|i| random_bytes(symbol, i as u64))
        .collect();
    let mut dst = vec![0u8; symbol];
    let calls = PROBE_BYTES / symbol;
    let gib = (calls * symbol) as f64 / (1u64 << 30) as f64;

    let started = Instant::now();
    for i in 0..calls {
        kernels::xor_slice(&mut dst, &sources[i % PROBE_SYMBOLS]);
    }
    black_box(&dst);
    counts.insert("gf256.xor_gib_s", gib / started.elapsed().as_secs_f64());

    let started = Instant::now();
    for i in 0..calls {
        // Coefficients 2..=255: 0 and 1 take shortcuts.
        kernels::addmul_slice(&mut dst, &sources[i % PROBE_SYMBOLS], (i % 254) as u8 + 2);
    }
    black_box(&dst);
    counts.insert("gf256.addmul_gib_s", gib / started.elapsed().as_secs_f64());
}

/// Counts the RSE geometries, out of a fixed 400 (k = 100, 200 … 20 000
/// at ratios 1.5 and 2.5), whose advertised OTI a receiver cannot turn
/// back into the sender's code: a byte-true session at such a size never
/// decodes. The PR that fixes `ObjectTransmissionInfo::code_spec` moves
/// this to 0.
pub fn oti_roundtrip_failures() -> u64 {
    let mut failures = 0;
    for ratio in [ExpansionRatio::R1_5, ExpansionRatio::R2_5] {
        for k in (100..=20_000).step_by(100) {
            failures += u64::from(!oti_round_trips(builtin::rse(), k, ratio, 1024));
        }
    }
    failures
}
