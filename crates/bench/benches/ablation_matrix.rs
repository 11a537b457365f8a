//! Ablation: LDGM matrix design choices.
//!
//! docs/PAPER_MAP.md (§"Substitutions and conventions") calls out two
//! free parameters the paper fixes implicitly:
//! the lower-triangle fill rule of LDGM Triangle (deferred to reference
//! [15]) and the left degree (fixed to 3). This bench measures both under
//! Tx_model_4 so the chosen defaults are justified by data, not folklore:
//!
//! * fill rules: `PerRowUniform` (our default) vs denser geometric fills —
//!   shows how quickly heavy check equations destroy peeling;
//! * left degree 2..5 for Staircase — shows degree 3 is the sweet spot the
//!   paper (and RFC 5170) uses.

use fec_bench::{banner, output, Scale};
use fec_ldgm::{LdgmParams, RightSide, SparseMatrix, StructuralDecoder, TriangleFill};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Mean inefficiency over fully-random reception (Tx4, perfect channel —
/// the order randomisation already samples the packet subsets).
fn mean_inef(matrix: &SparseMatrix, runs: u32, seed: u64) -> Option<f64> {
    let n = matrix.n() as u32;
    let k = matrix.k() as f64;
    let mut sum = 0.0;
    for run in 0..runs {
        let mut order: Vec<u32> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ (run as u64) << 17);
        order.shuffle(&mut rng);
        let mut dec = StructuralDecoder::new(matrix);
        let mut done = false;
        for &id in &order {
            if dec.push(id) {
                sum += dec.received() as f64 / k;
                done = true;
                break;
            }
        }
        if !done {
            return None;
        }
    }
    Some(sum / runs as f64)
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablation: LDGM matrix construction (fill rule, left degree)",
        &scale,
    );
    let k = scale.k;
    let n = (k as f64 * 2.5) as usize;
    let mut report = String::new();

    println!("--- Triangle fill rules (k = {k}, ratio 2.5, Tx4) ---");
    let mut rows = vec![(
        "staircase (reference)".to_string(),
        SparseMatrix::build(LdgmParams::new(k, n, RightSide::Staircase, 1)).expect("build"),
    )];
    for fill in [
        TriangleFill::PerRowUniform,
        TriangleFill::PerRow(2),
        TriangleFill::PerColumn(1),
        TriangleFill::ThirdDiagonal,
        TriangleFill::HalvingTree,
        TriangleFill::GeometricTriple,
        TriangleFill::GeometricDouble,
    ] {
        rows.push((
            format!("{fill:?}"),
            SparseMatrix::build_with_fill(LdgmParams::new(k, n, RightSide::Triangle, 1), fill)
                .expect("build"),
        ));
    }
    let mut default_inef = f64::NAN;
    let mut staircase_inef = f64::NAN;
    for (name, matrix) in &rows {
        let inef = mean_inef(matrix, scale.runs, scale.seed);
        let shown = inef.map_or_else(|| "failed".into(), |i| format!("{i:.4}"));
        println!("  {name:<24} nnz {:>8}  inefficiency {shown}", matrix.nnz());
        let _ = writeln!(report, "{name},{},{shown}", matrix.nnz());
        if name.contains("PerRowUniform") {
            default_inef = inef.unwrap_or(f64::NAN);
        }
        if name.contains("staircase") {
            staircase_inef = inef.unwrap_or(f64::NAN);
        }
    }
    assert!(
        default_inef < staircase_inef,
        "the default Triangle fill must beat Staircase under Tx4 \
         ({default_inef} vs {staircase_inef}) — that is why it was chosen"
    );

    println!("\n--- Left degree (Staircase, k = {k}, ratio 2.5, Tx4) ---");
    for degree in [2usize, 3, 4, 5] {
        let params = LdgmParams {
            k,
            n,
            left_degree: degree,
            right: RightSide::Staircase,
            seed: 1,
        };
        let matrix = SparseMatrix::build(params).expect("build");
        let inef = mean_inef(&matrix, scale.runs, scale.seed);
        let shown = inef.map_or_else(|| "failed".into(), |i| format!("{i:.4}"));
        println!("  degree {degree}: inefficiency {shown}");
        let _ = writeln!(report, "degree_{degree},{},{shown}", matrix.nnz());
    }
    output::save("ablation_matrix", "results.csv", &report);
    println!("\n(The paper's left degree 3 should be at or near the minimum.)");
}
