//! Ground truth: the paper's appendix tables (Tables 1–9), transcribed
//! verbatim from INRIA RR-5578.
//!
//! Values are average inefficiency ratios at `k = 20000`, 100 runs per
//! cell; `-` means at least one of the 100 runs failed to decode. Tables
//! 1–6 and 9 use the full 14-value grid; Tables 7–8 were published on a
//! 13-value grid (without 15%).

use fec_codec::{builtin, CodecHandle};
use fec_sched::TxModel;
use fec_sim::ExpansionRatio;

/// The 14-value percentage grid of Tables 1–6 and 9.
const GRID14: [u32; 14] = [0, 1, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100];
/// The 13-value percentage grid of Tables 7–8 (no 15%).
const GRID13: [u32; 13] = [0, 1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

/// One published table.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable {
    /// Paper designation, e.g. "Table 1".
    pub id: &'static str,
    /// The code it reports on (a `builtin::*` accessor: handles are not
    /// `const`-constructible).
    pub code: fn() -> CodecHandle,
    /// Transmission model used.
    pub tx: TxModel,
    /// FEC expansion ratio used.
    pub ratio: ExpansionRatio,
    /// Percentage values of both grid axes.
    pub grid_pct: &'static [u32],
    /// Whitespace-separated cells, row-major (`p` outer), `-` = masked.
    raw: &'static str,
}

impl PaperTable {
    /// Parses the raw cells into `Option<f64>` in row-major order.
    pub fn cells(&self) -> Vec<Option<f64>> {
        self.raw
            .split_whitespace()
            .map(|tok| {
                if tok == "-" {
                    None
                } else {
                    Some(
                        tok.parse::<f64>()
                            .unwrap_or_else(|_| panic!("{}: bad cell {tok:?}", self.id)),
                    )
                }
            })
            .collect()
    }

    /// The grid as probabilities.
    pub fn grid(&self) -> Vec<f64> {
        self.grid_pct.iter().map(|&v| v as f64 / 100.0).collect()
    }

    /// Cell lookup by percentage coordinates.
    pub fn cell(&self, p_pct: u32, q_pct: u32) -> Option<f64> {
        let pi = self.grid_pct.iter().position(|&v| v == p_pct)?;
        let qi = self.grid_pct.iter().position(|&v| v == q_pct)?;
        self.cells()[pi * self.grid_pct.len() + qi]
    }

    /// All nine published tables.
    pub fn all() -> [&'static PaperTable; 9] {
        [
            &TABLE_1, &TABLE_2, &TABLE_3, &TABLE_4, &TABLE_5, &TABLE_6, &TABLE_7, &TABLE_8,
            &TABLE_9,
        ]
    }
}

/// Table 1: Tx_model_2, LDGM Triangle, FEC expansion ratio 2.5.
static TABLE_1: PaperTable = PaperTable {
    id: "Table 1",
    code: builtin::ldgm_triangle,
    tx: TxModel::SourceSeqParityRandom,
    ratio: ExpansionRatio::R2_5,
    grid_pct: &GRID14,
    raw: "
1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000
-     -     1.081 1.103 1.103 1.112 1.097 1.104 1.095 1.094 1.095 1.097 1.090 1.078
-     -     1.124 1.087 1.074 1.070 1.082 1.095 1.100 1.104 1.092 1.083 1.102 1.106
-     -     -     1.124 1.102 1.086 1.072 1.075 1.079 1.080 1.088 1.089 1.093 1.102
-     -     -     -     1.124 1.108 1.088 1.075 1.072 1.071 1.075 1.062 1.077 1.089
-     -     -     -     -     1.125 1.102 1.086 1.078 1.074 1.069 1.071 1.074 1.081
-     -     -     -     -     -     1.124 1.106 1.096 1.087 1.079 1.076 1.073 1.071
-     -     -     -     -     -     -     1.124 1.112 1.103 1.094 1.087 1.082 1.077
-     -     -     -     -     -     -     -     1.125 1.114 1.106 1.101 1.094 1.086
-     -     -     -     -     -     -     -     -     1.124 1.116 1.109 1.103 1.096
-     -     -     -     -     -     -     -     -     1.132 1.124 1.116 1.111 1.105
-     -     -     -     -     -     -     -     -     -     1.131 1.125 1.118 1.112
-     -     -     -     -     -     -     -     -     -     -     1.131 1.124 1.118
-     -     -     -     -     -     -     -     -     -     -     -     1.130 1.125
",
};

/// Table 2: Tx_model_2, LDGM Staircase, FEC expansion ratio 2.5.
static TABLE_2: PaperTable = PaperTable {
    id: "Table 2",
    code: builtin::ldgm_staircase,
    tx: TxModel::SourceSeqParityRandom,
    ratio: ExpansionRatio::R2_5,
    grid_pct: &GRID14,
    raw: "
1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000
-     -     1.107 1.070 1.052 1.040 1.029 1.022 1.019 1.015 1.014 1.011 1.011 1.013
-     -     -     1.146 1.132 1.117 1.095 1.080 1.068 1.060 1.053 1.048 1.043 1.040
-     -     -     1.148 1.151 1.146 1.131 1.118 1.106 1.095 1.087 1.078 1.074 1.070
-     -     -     -     1.148 1.150 1.146 1.137 1.127 1.118 1.110 1.101 1.097 1.090
-     -     -     -     -     1.149 1.151 1.146 1.139 1.133 1.125 1.118 1.112 1.106
-     -     -     -     -     -     1.149 1.151 1.150 1.146 1.142 1.138 1.132 1.127
-     -     -     -     -     -     -     1.148 1.151 1.151 1.150 1.146 1.143 1.143
-     -     -     -     -     -     -     -     1.149 1.152 -     -     -     1.147
-     -     -     -     -     -     -     -     -     1.149 1.151 1.152 1.153 1.150
-     -     -     -     -     -     -     -     -     -     1.148 1.150 1.151 1.153
-     -     -     -     -     -     -     -     -     -     1.146 1.150 1.150 1.152
-     -     -     -     -     -     -     -     -     -     -     1.146 1.149 1.150
-     -     -     -     -     -     -     -     -     -     -     -     1.147 1.149
",
};

/// Table 3: Tx_model_2, LDGM Triangle, FEC expansion ratio 1.5.
static TABLE_3: PaperTable = PaperTable {
    id: "Table 3",
    code: builtin::ldgm_triangle,
    tx: TxModel::SourceSeqParityRandom,
    ratio: ExpansionRatio::R1_5,
    grid_pct: &GRID14,
    raw: "
1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000
-     -     1.035 1.025 1.026 1.030 1.038 1.035 1.039 1.039 1.035 1.036 1.035 1.035
-     -     -     -     1.050 1.041 1.031 1.026 1.024 1.025 1.027 1.027 1.029 1.030
-     -     -     -     -     -     1.050 1.041 1.035 1.031 1.028 1.026 1.028 1.024
-     -     -     -     -     -     -     1.053 1.047 1.041 1.037 1.034 1.031 1.029
-     -     -     -     -     -     -     -     1.055 1.050 1.045 1.041 1.038 1.035
-     -     -     -     -     -     -     -     -     -     -     1.053 1.050 1.046
-     -     -     -     -     -     -     -     -     -     -     -     -     1.055
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
",
};

/// Table 4: Tx_model_2, LDGM Staircase, FEC expansion ratio 1.5.
static TABLE_4: PaperTable = PaperTable {
    id: "Table 4",
    code: builtin::ldgm_staircase,
    tx: TxModel::SourceSeqParityRandom,
    ratio: ExpansionRatio::R1_5,
    grid_pct: &GRID14,
    raw: "
1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000
-     -     1.068 1.053 1.042 1.035 1.028 1.020 1.018 1.015 1.013 1.011 1.011 1.010
-     -     -     -     1.069 1.069 1.065 1.061 1.054 1.050 1.044 1.041 1.037 1.035
-     -     -     -     -     -     -     1.070 1.068 1.065 1.062 1.059 1.056 1.054
-     -     -     -     -     -     -     1.069 1.070 1.070 1.069 1.068 1.066 1.063
-     -     -     -     -     -     -     -     -     1.069 1.070 1.070 1.069 1.068
-     -     -     -     -     -     -     -     -     -     -     1.068 1.070 1.070
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
",
};

/// Table 5: Tx_model_4, LDGM Triangle, FEC expansion ratio 2.5.
pub static TABLE_5: PaperTable = PaperTable {
    id: "Table 5",
    code: builtin::ldgm_triangle,
    tx: TxModel::Random,
    ratio: ExpansionRatio::R2_5,
    grid_pct: &GRID14,
    raw: "
1.116 1.115 1.116 1.115 1.115 1.115 1.115 1.116 1.115 1.115 1.115 1.115 1.116 1.114
-     1.132 1.117 1.115 1.116 1.115 1.115 1.115 1.115 1.115 1.115 1.113 1.115 1.116
-     -     1.132 1.124 1.120 1.117 1.116 1.116 1.116 1.116 1.115 1.112 1.115 1.115
-     -     -     1.132 1.128 1.124 1.121 1.119 1.117 1.116 1.116 1.117 1.115 1.115
-     -     -     -     1.132 1.130 1.124 1.121 1.119 1.118 1.117 1.116 1.116 1.116
-     -     -     -     -     1.133 1.128 1.124 1.121 1.119 1.120 1.119 1.118 1.117
-     -     -     -     -     -     1.133 1.129 1.126 1.124 1.122 1.123 1.120 1.118
-     -     -     -     -     -     -     1.132 1.130 1.127 1.126 1.125 1.123 1.121
-     -     -     -     -     -     -     -     1.133 1.131 1.128 1.127 1.126 1.124
-     -     -     -     -     -     -     -     -     1.133 1.130 1.129 1.128 1.127
-     -     -     -     -     -     -     -     -     1.134 1.132 1.132 1.129 1.128
-     -     -     -     -     -     -     -     -     -     1.134 1.134 1.132 1.131
-     -     -     -     -     -     -     -     -     -     -     1.134 1.132 1.132
-     -     -     -     -     -     -     -     -     -     -     -     1.133 1.132
",
};

/// Table 6: Tx_model_4, LDGM Triangle, FEC expansion ratio 1.5.
static TABLE_6: PaperTable = PaperTable {
    id: "Table 6",
    code: builtin::ldgm_triangle,
    tx: TxModel::Random,
    ratio: ExpansionRatio::R1_5,
    grid_pct: &GRID14,
    raw: "
1.056 1.056 1.055 1.056 1.055 1.056 1.055 1.055 1.056 1.055 1.056 1.055 1.056 1.056
-     -     1.056 1.055 1.056 1.055 1.055 1.055 1.055 1.055 1.056 1.055 1.055 1.056
-     -     -     -     1.056 1.056 1.055 1.055 1.055 1.055 1.056 1.055 1.056 1.056
-     -     -     -     -     -     1.056 1.056 1.056 1.056 1.058 1.055 1.056 1.055
-     -     -     -     -     -     -     1.056 1.056 1.056 1.056 1.055 1.055 1.055
-     -     -     -     -     -     -     -     1.056 1.056 1.056 1.056 1.056 1.056
-     -     -     -     -     -     -     -     -     -     -     -     1.056 1.056
-     -     -     -     -     -     -     -     -     -     -     -     -     1.056
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
",
};

/// Table 7: Tx_model_5 (interleaved), RSE, FEC expansion ratio 2.5.
static TABLE_7: PaperTable = PaperTable {
    id: "Table 7",
    code: builtin::rse,
    tx: TxModel::Interleaved,
    ratio: ExpansionRatio::R2_5,
    grid_pct: &GRID13,
    raw: "
1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000
-     1.100 1.097 1.080 1.056 1.051 1.048 1.042 1.037 1.034 1.040 1.033 1.032
-     -     1.176 1.149 1.127 1.105 1.093 1.087 1.071 1.079 1.071 1.074 1.063
-     -     -     -     1.181 1.144 1.124 1.113 1.103 1.096 1.095 1.094 1.092
-     -     -     -     1.214 1.170 1.174 1.160 1.145 1.147 1.139 1.115 1.122
-     -     -     -     -     1.205 1.179 1.181 1.169 1.175 1.151 1.151 1.155
-     -     -     -     -     -     -     1.195 1.186 1.182 1.171 1.161 1.154
-     -     -     -     -     -     -     1.199 1.199 1.203 1.179 1.175 1.156
-     -     -     -     -     -     -     -     1.205 1.206 1.199 1.204 1.174
-     -     -     -     -     -     -     -     -     -     1.208 1.188 1.175
-     -     -     -     -     -     -     -     -     -     -     1.198 1.187
-     -     -     -     -     -     -     -     -     -     -     1.187 1.183
-     -     -     -     -     -     -     -     -     -     -     -     1.002
",
};

/// Table 8: Tx_model_5 (interleaved), RSE, FEC expansion ratio 1.5.
static TABLE_8: PaperTable = PaperTable {
    id: "Table 8",
    code: builtin::rse,
    tx: TxModel::Interleaved,
    ratio: ExpansionRatio::R1_5,
    grid_pct: &GRID13,
    raw: "
1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000 1.000
-     -     1.050 1.049 1.043 1.036 1.030 1.029 1.028 1.026 1.024 1.022 1.020
-     -     -     -     1.087 1.078 1.067 1.058 1.061 1.049 1.048 1.050 1.042
-     -     -     -     -     -     1.079 1.079 1.079 1.075 1.068 1.063 1.059
-     -     -     -     -     -     -     -     -     1.102 1.096 1.101 1.089
-     -     -     -     -     -     -     -     -     -     -     -     1.103
-     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -
",
};

/// Table 9: Tx_model_6, LDGM Staircase, FEC expansion ratio 2.5.
static TABLE_9: PaperTable = PaperTable {
    id: "Table 9",
    code: builtin::ldgm_staircase,
    tx: TxModel::PartialSourceRandom {
        source_fraction: 0.2,
    },
    ratio: ExpansionRatio::R2_5,
    grid_pct: &GRID14,
    raw: "
1.086 1.086 1.086 1.086 1.086 1.086 1.086 1.086 1.085 1.086 1.086 1.086 1.086 1.086
-     -     1.086 1.086 1.086 1.086 1.086 1.086 1.086 1.086 1.086 1.085 1.086 1.087
-     -     -     -     1.086 1.086 1.086 1.087 1.086 1.086 1.086 1.085 1.086 1.086
-     -     -     -     -     1.086 1.087 1.086 1.089 1.086 1.086 1.086 1.086 1.086
-     -     -     -     -     -     1.086 1.086 1.086 1.086 1.086 1.085 1.086 1.086
-     -     -     -     -     -     -     1.086 1.086 1.086 1.086 1.087 1.086 1.086
-     -     -     -     -     -     -     -     -     1.086 1.086 1.085 1.086 1.086
-     -     -     -     -     -     -     -     -     -     -     1.087 1.087 1.086
-     -     -     -     -     -     -     -     -     -     -     -     -     1.086
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
-     -     -     -     -     -     -     -     -     -     -     -     -     -
",
};

/// Headline single-number references quoted in the paper's prose, used by
/// the shape checks of the figure benches (docs/PAPER_MAP.md §"Figures").
pub mod prose {
    /// §4.6 / Fig. 11a: RSE under Tx4 at ratio 2.5 hovers around 1.25.
    pub const TX4_RSE_R2_5: f64 = 1.25;
    /// §4.6 / Fig. 11: LDGM Staircase under Tx4 at ratio 2.5: ~1.15.
    pub const TX4_STAIRCASE_R2_5: f64 = 1.15;
    /// §4.6 / Fig. 11: LDGM Triangle under Tx4 at ratio 2.5: 1.12–1.14.
    pub const TX4_TRIANGLE_R2_5: (f64, f64) = (1.12, 1.14);
    /// §6.2.1: best tuple (Tx2, Staircase, 1.5) on the Yajnik channel.
    pub const USECASE_BEST_INEF: f64 = 1.011;
    /// §6.2.1 channel fit (Amherst -> Los Angeles).
    pub const USECASE_P: f64 = 0.0109;
    /// §6.2.1 channel fit.
    pub const USECASE_Q: f64 = 0.7915;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_parses_to_a_full_grid() {
        for t in PaperTable::all() {
            let cells = t.cells();
            assert_eq!(
                cells.len(),
                t.grid_pct.len() * t.grid_pct.len(),
                "{} cell count",
                t.id
            );
        }
    }

    #[test]
    fn values_are_valid_inefficiencies() {
        for t in PaperTable::all() {
            for v in t.cells().into_iter().flatten() {
                assert!((1.0..=2.5).contains(&v), "{}: value {v}", t.id);
            }
        }
    }

    #[test]
    fn perfect_channel_rows_match_the_text() {
        // Tables 1-4, 7, 8: p=0 row is exactly 1.000. Tables 5/6/9 have the
        // constant plateaus of Tx4/Tx6.
        for t in [&TABLE_1, &TABLE_2, &TABLE_3, &TABLE_4, &TABLE_7, &TABLE_8] {
            assert_eq!(t.cell(0, 0), Some(1.0), "{}", t.id);
            assert_eq!(t.cell(0, 100), Some(1.0), "{}", t.id);
        }
        assert_eq!(TABLE_5.cell(0, 0), Some(1.116));
        assert_eq!(TABLE_6.cell(0, 0), Some(1.056));
        assert_eq!(TABLE_9.cell(0, 0), Some(1.086));
    }

    #[test]
    fn spot_checks_against_the_pdf() {
        assert_eq!(TABLE_1.cell(1, 5), Some(1.081));
        assert_eq!(TABLE_1.cell(100, 100), Some(1.125));
        assert_eq!(TABLE_2.cell(50, 60), Some(1.152));
        assert_eq!(TABLE_2.cell(50, 70), None); // the famous Staircase hole
        assert_eq!(TABLE_3.cell(40, 100), Some(1.055));
        assert_eq!(TABLE_4.cell(1, 100), Some(1.010));
        assert_eq!(TABLE_5.cell(70, 60), Some(1.134));
        assert_eq!(TABLE_6.cell(10, 70), Some(1.058));
        assert_eq!(TABLE_7.cell(100, 100), Some(1.002)); // alternating channel
        assert_eq!(TABLE_8.cell(30, 100), Some(1.103));
        assert_eq!(TABLE_9.cell(50, 100), Some(1.086));
    }

    #[test]
    fn masked_structure_is_monotone_in_p_at_q_fixed_low() {
        // For every table, at q = 1% almost everything above p = 1% is
        // masked (tiny q cannot compensate losses).
        for t in PaperTable::all() {
            assert_eq!(t.cell(50, 1), None, "{}", t.id);
            assert_eq!(t.cell(90, 1), None, "{}", t.id);
        }
    }

    #[test]
    fn triangle_beats_staircase_under_tx4_in_the_paper() {
        // Cross-table sanity for the shape tests: Table 5 (Triangle Tx4
        // 2.5) sits well below the Staircase plateau of ~1.15.
        for v in TABLE_5.cells().into_iter().flatten() {
            assert!(v < prose::TX4_STAIRCASE_R2_5, "triangle {v} >= staircase");
        }
    }
}
