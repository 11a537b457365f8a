//! Sparse parity-check matrix construction for LDGM codes.
//!
//! The matrix `H` has `m = n - k` rows (check equations) and `n` columns
//! (variables: `k` source packets then `m` parity packets). A
//! [`SparseMatrix`] keeps it in CSC form (column → rows) only, because the
//! decoders walk the column of each arriving packet; the encoder, which
//! walks rows, transposes the columns once into its own CSR
//! ([`Encoder::new`](crate::Encoder::new)), so each side holds the one
//! orientation it reads.
//!
//! **Bit identity is the wire contract.** Sender and receiver each build
//! the matrix from the seed the FLUTE OTI carries, so every array here —
//! which entries, and their order within each row and column — must be
//! the same on both sides and across versions; an entry that moves is a
//! sender/receiver mismatch, not a slower code. `tests/fingerprints.rs`
//! pins the CSR + CSC bytes of a table of geometries.
//!
//! Construction is paid once per object on each side, so
//! [`SparseMatrix::build_with_fill`] builds in one column-major pass, with
//! no entry list and no sort of the entries. The left part's de-duplicated
//! slot array already is the source half of the CSC (column `c` is slots
//! `c·d..(c+1)·d`, each window sorted in place); the parity columns are
//! appended one by one; and one pass over the columns gives every row's
//! peeling start state.

use core::fmt;

use crate::peel::Unprocessed;
use crate::prng::PmRand;

/// Shape of the right-hand (parity) part of `H` (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RightSide {
    /// Plain LDGM: the identity matrix — each parity appears in exactly one
    /// equation. Kept as the ablation baseline; the paper shows it is weak.
    Identity,
    /// LDGM Staircase: identity plus the sub-diagonal, chaining each parity
    /// to the previous one.
    Staircase,
    /// LDGM Triangle: the staircase plus a progressively-filled lower
    /// triangle — each check equation `i >= 2` additionally references one
    /// uniformly-chosen earlier parity packet ([`TriangleFill::PerRowUniform`]),
    /// the "progressive dependency between check nodes" of the paper. Row
    /// weight grows by exactly one; early parity columns become high-degree
    /// hubs, which is what lets Triangle out-peel Staircase under random
    /// scheduling.
    ///
    /// The paper defers the exact rule to its reference \[15\]; this fill is
    /// our documented substitution (see docs/PAPER_MAP.md §"Substitutions
    /// and conventions"), selected empirically against the paper's
    /// appendix tables.
    Triangle,
}

impl RightSide {
    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RightSide::Identity => "ldgm",
            RightSide::Staircase => "staircase",
            RightSide::Triangle => "triangle",
        }
    }
}

impl fmt::Display for RightSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Construction parameters for an LDGM parity-check matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdgmParams {
    /// Number of source packets.
    pub k: usize,
    /// Total number of packets (source + parity).
    pub n: usize,
    /// Left degree: equations per source packet (paper: 3).
    pub left_degree: usize,
    /// Shape of the parity part.
    pub right: RightSide,
    /// Seed for the deterministic Park-Miller construction.
    pub seed: u64,
}

impl LdgmParams {
    /// Convenience constructor with the paper's left degree (3).
    pub fn new(k: usize, n: usize, right: RightSide, seed: u64) -> LdgmParams {
        LdgmParams {
            k,
            n,
            left_degree: crate::DEFAULT_LEFT_DEGREE,
            right,
            seed,
        }
    }
}

/// Alternative lower-triangle fill rules for LDGM Triangle.
///
/// The paper defers the exact rule to its reference \[15\]; the default
/// ([`TriangleFill::PerRowUniform`]) was selected empirically to reproduce
/// the paper's published behaviour: Triangle beats Staircase under random
/// scheduling (Tx_model_4) while losing to it under Tx_model_2 at low loss
/// — see docs/PAPER_MAP.md §"Substitutions and conventions"; the
/// `paper_tables` bench prints the measured deltas. The other rules are
/// kept for the `ablation_matrix` bench, which shows how sensitive Triangle
/// performance is to this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriangleFill {
    /// `extra` entries per parity column, at uniform-random rows below the
    /// staircase (deterministic from the construction seed).
    PerColumn(u8),
    /// Entries at geometrically growing offsets: column `j` gains rows
    /// `j + 2, j + 4, j + 8, …` (offset doubling). Denser; O(log m) per
    /// column.
    GeometricDouble,
    /// Like `GeometricDouble` but offsets triple: rows `j + 2, j + 5,
    /// j + 14, …`.
    GeometricTriple,
    /// A third diagonal right below the staircase (column `j` also appears
    /// in equation `j + 2`).
    ThirdDiagonal,
    /// `extra` entries per *row*: equation `i >= 2` additionally references
    /// distinct uniform-random earlier parity columns in `[0, i-2]`. Row
    /// weight grows by `extra`; early parity columns become high-degree hubs.
    PerRow(u8),
    /// One extra entry per *row*: equation `i >= 2` additionally references
    /// a uniform-random earlier parity column in `[0, i-2]`. Row weight grows
    /// by exactly one; early parity columns become high-degree hubs.
    PerRowUniform,
    /// One extra entry per row at column `floor((i-1)/2)`: check `i` depends
    /// on check `(i-1)/2`, a binary-tree-shaped "progressive dependency
    /// between check nodes".
    HalvingTree,
}

impl TriangleFill {
    /// The fill used by [`RightSide::Triangle`].
    const DEFAULT: TriangleFill = TriangleFill::PerRowUniform;
}

/// Errors from matrix construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LdgmError {
    /// Parameters violate `0 < k < n` or degree constraints.
    BadParameters {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A payload operation received symbols of inconsistent length.
    SymbolLengthMismatch {
        /// Length of the first symbol seen.
        expected: usize,
        /// Length of the offending symbol.
        got: usize,
    },
    /// `encode` was given a source count different from `k`.
    WrongSourceCount {
        /// Symbols supplied.
        got: usize,
        /// Symbols expected.
        expected: usize,
    },
    /// Encoding a parity symbol needed a variable the caller did not
    /// supply.
    MissingSymbol {
        /// The variable (packet ID) that was missing.
        id: u32,
    },
    /// A packet ID outside `0..n` was pushed into a decoder.
    BadPacketId {
        /// Offending ID.
        id: u32,
        /// Total packet count `n`.
        n: usize,
    },
}

impl fmt::Display for LdgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdgmError::BadParameters { reason } => write!(f, "invalid LDGM parameters: {reason}"),
            LdgmError::SymbolLengthMismatch { expected, got } => {
                write!(f, "symbol length mismatch: expected {expected}, got {got}")
            }
            LdgmError::WrongSourceCount { got, expected } => {
                write!(
                    f,
                    "encode needs exactly k={expected} source symbols, got {got}"
                )
            }
            LdgmError::MissingSymbol { id } => {
                write!(f, "encoding needs symbol {id}, which was not supplied")
            }
            LdgmError::BadPacketId { id, n } => write!(f, "packet id {id} out of range (n={n})"),
        }
    }
}

impl std::error::Error for LdgmError {}

/// A binary sparse parity-check matrix in CSC form.
///
/// Row `i` encodes the equation "XOR of all variables in row `i` = 0";
/// variable `k + i` is the parity packet defined by row `i`.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    k: usize,
    n: usize,
    col_ptr: Vec<u32>,
    col_rows: Vec<u32>,
    /// Each row's weight and the XOR of its column ids: the state the
    /// peeling cascade starts from, copied whole on every reset.
    start: Vec<Unprocessed>,
    seed: u64,
}

impl SparseMatrix {
    /// Builds the parity-check matrix for the given parameters.
    ///
    /// Deterministic: equal parameters (including seed) produce identical
    /// matrices, byte for byte — sender and receiver only share the seed.
    pub fn build(params: LdgmParams) -> Result<SparseMatrix, LdgmError> {
        SparseMatrix::build_with_fill(params, TriangleFill::DEFAULT)
    }

    /// Like [`SparseMatrix::build`] but with an explicit lower-triangle fill
    /// rule (only meaningful for [`RightSide::Triangle`]; ignored otherwise).
    /// Exposed for the ablation benches.
    pub fn build_with_fill(
        params: LdgmParams,
        fill: TriangleFill,
    ) -> Result<SparseMatrix, LdgmError> {
        let LdgmParams {
            k,
            n,
            left_degree,
            right,
            seed,
        } = params;
        if k == 0 {
            return Err(LdgmError::BadParameters {
                reason: "k must be > 0",
            });
        }
        if n <= k {
            return Err(LdgmError::BadParameters {
                reason: "n must exceed k (no parity otherwise)",
            });
        }
        if n > u32::MAX as usize / 2 {
            return Err(LdgmError::BadParameters {
                reason: "n too large for u32 ids",
            });
        }
        let m = n - k;
        if left_degree == 0 {
            return Err(LdgmError::BadParameters {
                reason: "left degree must be > 0",
            });
        }
        if left_degree > m {
            return Err(LdgmError::BadParameters {
                reason: "left degree exceeds the number of check equations",
            });
        }

        let mut rng = PmRand::new(seed);
        // Exact for the shipped right sides; an ablation fill may grow it.
        let parity_nnz = match right {
            RightSide::Identity => m,
            RightSide::Staircase => 2 * m - 1,
            RightSide::Triangle => (3 * m).saturating_sub(3),
        };
        let mut h = build_left_part(params, &mut rng, parity_nnz);
        build_right_part(&mut h, m, right, fill, &mut rng);
        Ok(SparseMatrix::from_columns(params, h))
    }

    /// The matrix of the CSC, with each row's `start` (weight, XOR of its
    /// column ids) from one pass over the columns.
    fn from_columns(p: LdgmParams, h: Csc) -> SparseMatrix {
        let mut start = vec![Unprocessed { count: 0, ids: 0 }; p.n - p.k];
        for (c, w) in h.ptr.windows(2).enumerate() {
            for &r in &h.rows[w[0] as usize..w[1] as usize] {
                let eq = &mut start[r as usize];
                eq.count += 1;
                eq.ids ^= c as u32;
            }
        }
        SparseMatrix {
            k: p.k,
            n: p.n,
            col_ptr: h.ptr,
            col_rows: h.rows,
            start,
            seed: p.seed,
        }
    }

    /// Number of source packets.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of packets.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of check equations (`n - k`).
    #[inline]
    pub fn num_checks(&self) -> usize {
        self.n - self.k
    }

    /// The construction seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_rows.len()
    }

    /// Every check equation with all its variables unprocessed.
    #[inline]
    pub(crate) fn start(&self) -> &[Unprocessed] {
        &self.start
    }

    /// Check equations containing variable `v`.
    #[inline]
    pub fn col(&self, v: usize) -> &[u32] {
        &self.col_rows[self.col_ptr[v] as usize..self.col_ptr[v + 1] as usize]
    }

    /// True if `(row, col)` is a non-zero entry (binary search in the
    /// column).
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.col(col).binary_search(&(row as u32)).is_ok()
    }

    /// Degree/weight statistics, used by tests and the ablation benches.
    pub fn stats(&self) -> MatrixStats {
        let mut row_min = usize::MAX;
        let mut row_max = 0;
        for eq in &self.start {
            let w = eq.count as usize;
            row_min = row_min.min(w);
            row_max = row_max.max(w);
        }
        let mut src_col_min = usize::MAX;
        let mut src_col_max = 0;
        for v in 0..self.k {
            let w = self.col(v).len();
            src_col_min = src_col_min.min(w);
            src_col_max = src_col_max.max(w);
        }
        MatrixStats {
            nnz: self.nnz(),
            row_weight_min: row_min,
            row_weight_max: row_max,
            source_col_weight_min: src_col_min,
            source_col_weight_max: src_col_max,
            density: self.nnz() as f64 / (self.num_checks() as f64 * self.n as f64),
        }
    }
}

/// Degree statistics of a parity-check matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixStats {
    /// Total non-zero entries.
    pub nnz: usize,
    /// Minimum check-equation weight.
    pub row_weight_min: usize,
    /// Maximum check-equation weight.
    pub row_weight_max: usize,
    /// Minimum source-column weight (should equal the left degree).
    pub source_col_weight_min: usize,
    /// Maximum source-column weight (should equal the left degree).
    pub source_col_weight_max: usize,
    /// Fraction of non-zero entries.
    pub density: f64,
}

/// `H` in CSC form as it is built, column by column.
struct Csc {
    /// Column `c`'s rows are `rows[ptr[c]..ptr[c + 1]]`, ascending.
    ptr: Vec<u32>,
    rows: Vec<u32>,
}

/// Builds `H1` column-major: a regular bipartite graph where every source
/// column has exactly `left_degree` entries in distinct rows, and row
/// weights are balanced to within one edge (RFC 5170-style slot
/// assignment). The slot array is the source half of the CSC: column `c`
/// is slots `c * left_degree..(c + 1) * left_degree`. `spare` more entries
/// are reserved for the parity columns.
fn build_left_part(p: LdgmParams, rng: &mut PmRand, spare: usize) -> Csc {
    let (k, m, left_degree) = (p.k, p.n - p.k, p.left_degree);
    let edges = left_degree * k;
    let (base, extra) = (edges / m, edges % m);

    // Rows that receive one extra edge are chosen at random (not always the
    // first `extra` rows) so no structural bias correlates with the
    // staircase position.
    let mut order: Vec<u32> = (0..m as u32).collect();
    rng.shuffle(&mut order);

    let mut slots: Vec<u32> = Vec::with_capacity(edges + spare);
    for (pos, &r) in order.iter().enumerate() {
        slots.extend(std::iter::repeat_n(r, base + usize::from(pos < extra)));
    }
    rng.shuffle(&mut slots);

    for start in (0..edges).step_by(left_degree) {
        // De-duplicate the window by swapping offenders with random later
        // slots (so later windows never touch this one), then sort it.
        for i in start + 1..start + left_degree {
            let mut attempts = 0;
            while slots[start..i].contains(&slots[i]) {
                attempts += 1;
                if attempts > 64 || i + 1 >= slots.len() {
                    // Rare fallback: draw a fresh distinct row. This breaks
                    // perfect balance by one edge but keeps regular columns.
                    let mut r = rng.below(m as u32);
                    while slots[start..i].contains(&r) {
                        r = rng.below(m as u32);
                    }
                    slots[i] = r;
                    break;
                }
                let j = i + 1 + rng.below((slots.len() - i - 1) as u32) as usize;
                slots.swap(i, j);
            }
        }
        // Insertion order by compare-exchange, with no early exit: the
        // window is `left_degree` long (3 in the paper), and min/max has no
        // data-dependent branch, where `sort_unstable` mispredicts on
        // shuffled rows (a k = 8 160 build takes 18 % longer with it).
        let window = &mut slots[start..start + left_degree];
        for i in 1..left_degree {
            for j in (0..i).rev() {
                let (a, b) = (window[j], window[j + 1]);
                (window[j], window[j + 1]) = (a.min(b), a.max(b));
            }
        }
    }
    let (mut ptr, rows) = (Vec::with_capacity(p.n + 1), slots);
    ptr.extend((0..=k).map(|c| (c * left_degree) as u32));
    Csc { ptr, rows }
}

/// Appends the parity columns `k..n` of `H` to the CSC, each ascending:
/// the diagonal, the staircase, then the fill, which lies strictly below
/// both. A per-row fill is drawn first, in row order, one `u32` (the
/// column) each; each column keeps room for the rows that drew it, and
/// they are placed in row order, so they ascend.
fn build_right_part(h: &mut Csc, m: usize, right: RightSide, fill: TriangleFill, rng: &mut PmRand) {
    let Csc { ptr, rows } = h;
    let (staircase, triangle) = (right != RightSide::Identity, right == RightSide::Triangle);
    // Equation `i >= 2` references `extra` distinct uniform-random earlier
    // parity columns in `[0, i-2]`, as many as there are.
    let extra = match (triangle, fill) {
        (true, TriangleFill::PerRowUniform) => 1,
        (true, TriangleFill::PerRow(extra)) => usize::from(extra),
        _ => 0,
    };
    let want = |i: usize| extra.min(i.saturating_sub(1));
    // Per parity column: how many rows drew it, then its write cursor.
    let mut cursor = vec![0u32; if extra > 0 { m } else { 0 }];
    let mut drawn: Vec<u32> = Vec::with_capacity(cursor.len());
    for i in (2..m).filter(|_| extra > 0) {
        let from = drawn.len();
        while drawn.len() - from < want(i) {
            let j = rng.below((i - 1) as u32);
            if !drawn[from..].contains(&j) {
                drawn.push(j);
                cursor[j as usize] += 1;
            }
        }
    }
    for j in 0..m {
        rows.push(j as u32);
        if staircase && j + 1 < m {
            rows.push(j as u32 + 1);
        }
        let from = rows.len();
        match fill {
            // Room for the rows that drew column j, where its cursor starts.
            _ if extra > 0 => {
                let drew = cursor
                    .get_mut(j)
                    .map_or(0, |c| std::mem::replace(c, from as u32));
                rows.resize(from + drew as usize, 0);
            }
            _ if !triangle => {}
            TriangleFill::PerRow(_) | TriangleFill::PerRowUniform => {}
            TriangleFill::PerColumn(extra) => {
                // `extra` distinct uniform-random rows in (j+1, m).
                // Columns too close to the bottom get as many as fit.
                let lo = j + 2;
                if lo < m {
                    let span = (m - lo) as u32;
                    let want = (extra as u32).min(span) as usize;
                    while rows.len() - from < want {
                        let r = lo as u32 + rng.below(span);
                        if !rows[from..].contains(&r) {
                            rows.push(r);
                        }
                    }
                    rows[from..].sort_unstable();
                }
            }
            TriangleFill::GeometricDouble | TriangleFill::GeometricTriple => {
                let factor = 2 + usize::from(fill == TriangleFill::GeometricTriple);
                let mut off = 1usize;
                let mut i = j + 2;
                while i < m {
                    rows.push(i as u32);
                    off *= factor;
                    i += off;
                }
            }
            TriangleFill::ThirdDiagonal => {
                if j + 2 < m {
                    rows.push(j as u32 + 2);
                }
            }
            // Equation i depends on check (i-1)/2, so column j holds rows
            // 2j+1 and 2j+2 (from row 2 on).
            TriangleFill::HalvingTree => {
                rows.extend((2 * j + 1).max(2) as u32..(2 * j + 3).min(m) as u32)
            }
        }
        ptr.push(rows.len() as u32);
    }
    let mut next = 0;
    for i in (2..m).filter(|_| extra > 0) {
        for &j in &drawn[next..next + want(i)] {
            rows[cursor[j as usize] as usize] = i as u32;
            cursor[j as usize] += 1;
        }
        next += want(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;
    use proptest::prelude::*;

    fn build(k: usize, n: usize, right: RightSide, seed: u64) -> SparseMatrix {
        SparseMatrix::build(LdgmParams::new(k, n, right, seed)).unwrap()
    }

    /// Reference generator: the `(row, col)` entries of `H`, in the order
    /// the entry-list construction drew them. Its draws are the wire
    /// contract `build_with_fill` keeps.
    fn entries(p: LdgmParams, fill: TriangleFill) -> Vec<(u32, u32)> {
        let m = p.n - p.k;
        let mut rng = PmRand::new(p.seed);
        let mut entries = Vec::new();
        reference_left_part(p.k, m, p.left_degree, &mut rng, &mut entries);
        reference_right_part(p.k, m, p.right, fill, &mut rng, &mut entries);
        entries
    }

    fn reference_left_part(
        k: usize,
        m: usize,
        left_degree: usize,
        rng: &mut PmRand,
        entries: &mut Vec<(u32, u32)>,
    ) {
        let edges = left_degree * k;
        let (base, extra) = (edges / m, edges % m);
        let mut rows: Vec<u32> = (0..m as u32).collect();
        rng.shuffle(&mut rows);
        let mut slots: Vec<u32> = Vec::with_capacity(edges);
        for (pos, &r) in rows.iter().enumerate() {
            slots.extend(std::iter::repeat_n(r, base + usize::from(pos < extra)));
        }
        rng.shuffle(&mut slots);
        for col in 0..k {
            let start = col * left_degree;
            for i in start + 1..start + left_degree {
                let mut attempts = 0;
                while slots[start..i].contains(&slots[i]) {
                    attempts += 1;
                    if attempts > 64 || i + 1 >= slots.len() {
                        let mut r = rng.below(m as u32);
                        while slots[start..i].contains(&r) {
                            r = rng.below(m as u32);
                        }
                        slots[i] = r;
                        break;
                    }
                    let j = i + 1 + rng.below((slots.len() - i - 1) as u32) as usize;
                    slots.swap(i, j);
                }
            }
            for &slot in &slots[start..start + left_degree] {
                entries.push((slot, col as u32));
            }
        }
    }

    fn reference_right_part(
        k: usize,
        m: usize,
        right: RightSide,
        fill: TriangleFill,
        rng: &mut PmRand,
        entries: &mut Vec<(u32, u32)>,
    ) {
        let k = k as u32;
        entries.extend((0..m as u32).map(|i| (i, k + i)));
        if right != RightSide::Identity {
            entries.extend((1..m as u32).map(|i| (i, k + i - 1)));
        }
        if right != RightSide::Triangle {
            return;
        }
        let geometric = |entries: &mut Vec<(u32, u32)>, factor: usize| {
            for j in 0..m {
                let (mut off, mut i) = (1usize, j + 2);
                while i < m {
                    entries.push((i as u32, k + j as u32));
                    off *= factor;
                    i += off;
                }
            }
        };
        match fill {
            TriangleFill::PerColumn(extra) => {
                for j in 0..m {
                    let lo = j + 2;
                    if lo >= m {
                        continue;
                    }
                    let span = (m - lo) as u32;
                    let mut picked: Vec<u32> = Vec::new();
                    while picked.len() < (extra as u32).min(span) as usize {
                        let r = lo as u32 + rng.below(span);
                        if !picked.contains(&r) {
                            picked.push(r);
                        }
                    }
                    entries.extend(picked.into_iter().map(|r| (r, k + j as u32)));
                }
            }
            TriangleFill::GeometricDouble => geometric(entries, 2),
            TriangleFill::GeometricTriple => geometric(entries, 3),
            TriangleFill::ThirdDiagonal => entries.extend((2..m as u32).map(|i| (i, k + i - 2))),
            TriangleFill::PerRowUniform => {
                for i in 2..m {
                    let j = rng.below((i - 1) as u32);
                    entries.push((i as u32, k + j));
                }
            }
            TriangleFill::PerRow(extra) => {
                for i in 2..m {
                    let span = (i - 1) as u32;
                    let mut picked: Vec<u32> = Vec::new();
                    while picked.len() < (extra as u32).min(span) as usize {
                        let j = rng.below(span);
                        if !picked.contains(&j) {
                            picked.push(j);
                        }
                    }
                    entries.extend(picked.into_iter().map(|j| (i as u32, k + j)));
                }
            }
            TriangleFill::HalvingTree => {
                entries.extend((2..m).map(|i| (i as u32, k + ((i - 1) / 2) as u32)))
            }
        }
    }

    /// Reference assembly: sort the entries, then lay out the CSC, every
    /// row's `start` and, beside the matrix, the rows.
    fn assemble_by_sort(p: LdgmParams, entries: &[(u32, u32)]) -> (SparseMatrix, Vec<Vec<u32>>) {
        let (k, n, m) = (p.k, p.n, p.n - p.k);
        let mut entries = entries.to_vec();
        entries.sort_unstable();
        assert!(entries.windows(2).all(|w| w[0] != w[1]), "duplicate entry");
        let nnz = entries.len();
        let mut rows = vec![Vec::new(); m];
        let mut col_ptr = vec![0u32; n + 1];
        for &(r, c) in &entries {
            rows[r as usize].push(c);
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut col_rows = vec![0u32; nnz];
        let mut next = col_ptr.clone();
        for &(r, c) in &entries {
            col_rows[next[c as usize] as usize] = r;
            next[c as usize] += 1;
        }
        let mut start = vec![Unprocessed { count: 0, ids: 0 }; m];
        for &(r, c) in &entries {
            start[r as usize].count += 1;
            start[r as usize].ids ^= c;
        }
        let matrix = SparseMatrix {
            k,
            n,
            col_ptr,
            col_rows,
            start,
            seed: p.seed,
        };
        (matrix, rows)
    }

    /// Both CSC arrays and every row's `start`, and the rows the encoder
    /// transposes out of `a` against the reference's.
    fn same_arrays(a: &SparseMatrix, (b, rows): &(SparseMatrix, Vec<Vec<u32>>)) -> bool {
        let starts = |m: &SparseMatrix| {
            m.start
                .iter()
                .map(|eq| (eq.count, eq.ids))
                .collect::<Vec<_>>()
        };
        let encoder = Encoder::new(a);
        a.col_ptr == b.col_ptr
            && a.col_rows == b.col_rows
            && starts(a) == starts(b)
            && rows
                .iter()
                .enumerate()
                .all(|(i, row)| encoder.row(i) == row)
    }

    /// All seven fill rules, by index.
    fn fill_rule(idx: usize, extra: u8) -> TriangleFill {
        match idx {
            0 => TriangleFill::PerColumn(extra),
            1 => TriangleFill::GeometricDouble,
            2 => TriangleFill::GeometricTriple,
            3 => TriangleFill::ThirdDiagonal,
            4 => TriangleFill::PerRow(extra),
            5 => TriangleFill::PerRowUniform,
            _ => TriangleFill::HalvingTree,
        }
    }

    // Default config, so `PROPTEST_CASES` scales it (CI runs 1024 cases).
    proptest! {
        #[test]
        fn counting_assembly_equals_sort_assembly(
            k in 1usize..300,
            extra in 0usize..300,
            left_degree in 1usize..6,
            right_idx in 0usize..3,
            fill_idx in 0usize..7,
            fill_extra in 0u8..4,
            seed in any::<u64>(),
        ) {
            let right = [RightSide::Identity, RightSide::Staircase, RightSide::Triangle][right_idx];
            let fill = fill_rule(fill_idx, fill_extra);
            let n = k + left_degree + extra;
            let p = LdgmParams { k, n, left_degree, right, seed };
            let built = SparseMatrix::build_with_fill(p, fill).unwrap();
            prop_assert!(same_arrays(&built, &assemble_by_sort(p, &entries(p, fill))));
            prop_assert!(built.start().iter().all(|eq| eq.count > 0));
        }
    }

    #[test]
    fn parameter_validation() {
        let bad = |k, n, d| {
            SparseMatrix::build(LdgmParams {
                k,
                n,
                left_degree: d,
                right: RightSide::Staircase,
                seed: 0,
            })
        };
        assert!(bad(0, 10, 3).is_err());
        assert!(bad(10, 10, 3).is_err());
        assert!(bad(10, 5, 3).is_err());
        assert!(bad(10, 12, 0).is_err());
        assert!(bad(10, 12, 3).is_err()); // m = 2 < left_degree
        assert!(bad(10, 15, 3).is_ok());
    }

    #[test]
    fn source_columns_are_regular_degree_3() {
        for right in [
            RightSide::Identity,
            RightSide::Staircase,
            RightSide::Triangle,
        ] {
            let m = build(100, 250, right, 7);
            let s = m.stats();
            assert_eq!(s.source_col_weight_min, 3, "{right}");
            assert_eq!(s.source_col_weight_max, 3, "{right}");
        }
    }

    #[test]
    fn identity_right_side_shape() {
        let k = 40;
        let m = build(k, 100, RightSide::Identity, 3);
        for i in 0..m.num_checks() {
            assert!(m.contains(i, k + i), "diagonal at row {i}");
            // parity column i has exactly one entry
            assert_eq!(m.col(k + i).len(), 1);
        }
    }

    #[test]
    fn staircase_right_side_shape() {
        let k = 40;
        let m = build(k, 100, RightSide::Staircase, 3);
        for i in 0..m.num_checks() {
            assert!(m.contains(i, k + i));
            if i > 0 {
                assert!(m.contains(i, k + i - 1), "staircase at row {i}");
            }
        }
        // Interior parity columns have exactly two entries (diag + sub-diag).
        for j in 0..m.num_checks() - 1 {
            assert_eq!(m.col(k + j).len(), 2, "column {j}");
        }
        // The last parity column only has the diagonal.
        assert_eq!(m.col(k + m.num_checks() - 1).len(), 1);
    }

    #[test]
    fn triangle_contains_staircase_plus_fill() {
        let k = 50;
        let mc = build(k, 150, RightSide::Triangle, 3);
        let m = mc.num_checks();
        for i in 0..m {
            assert!(mc.contains(i, k + i));
            if i > 0 {
                assert!(mc.contains(i, k + i - 1));
            }
        }
        // Default fill (PerRowUniform): every row i >= 2 gains exactly one
        // extra entry at a parity column strictly below the staircase pair.
        let rows = Encoder::new(&mc);
        for i in 0..m {
            let extra: Vec<usize> = rows
                .row(i)
                .iter()
                .map(|&c| c as usize)
                .filter(|&c| c >= k && c != k + i && (i == 0 || c != k + i - 1))
                .collect();
            if i < 2 {
                assert!(extra.is_empty(), "row {i} has no triangle room");
            } else {
                assert_eq!(extra.len(), 1, "row {i} extra entries");
                assert!(extra[0] <= k + i - 2, "row {i} entry inside the triangle");
            }
        }
        // Triangle is strictly denser than staircase: exactly m - 2 extra.
        let ms = build(k, 150, RightSide::Staircase, 3);
        assert_eq!(mc.nnz(), ms.nnz() + m - 2);
    }

    #[test]
    fn triangle_fill_variants_shapes() {
        let k = 50;
        let n = 150;
        let p = LdgmParams::new(k, n, RightSide::Triangle, 3);
        let m = n - k;
        // GeometricDouble: column 0 has rows 2, 4, 8, 16, 32, 64 (< m = 100).
        let g = SparseMatrix::build_with_fill(p, TriangleFill::GeometricDouble).unwrap();
        for r in [2usize, 4, 8, 16, 32, 64] {
            assert!(g.contains(r, k), "geometric fill row {r} for column 0");
        }
        assert!(!g.contains(3, k));
        // ThirdDiagonal: row i has columns k+i, k+i-1, k+i-2.
        let t = SparseMatrix::build_with_fill(p, TriangleFill::ThirdDiagonal).unwrap();
        for i in 2..m {
            assert!(t.contains(i, k + i - 2), "third diagonal at row {i}");
        }
        // PerColumn(2): interior columns weigh 4.
        let p2 = SparseMatrix::build_with_fill(p, TriangleFill::PerColumn(2)).unwrap();
        assert_eq!(p2.col(k).len(), 4);
    }

    #[test]
    fn no_forward_parity_references() {
        // Row i may only reference parities k+j with j <= i — required for
        // sequential encoding.
        let m = build(80, 200, RightSide::Triangle, 11);
        let rows = Encoder::new(&m);
        for i in 0..m.num_checks() {
            for &c in rows.row(i) {
                if c as usize >= m.k() {
                    assert!(
                        c as usize - m.k() <= i,
                        "row {i} references future parity {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(60, 150, RightSide::Triangle, 99);
        let b = build(60, 150, RightSide::Triangle, 99);
        assert_eq!(a.col_ptr, b.col_ptr);
        assert_eq!(a.col_rows, b.col_rows);
        let c = build(60, 150, RightSide::Triangle, 100);
        assert_ne!(a.col_rows, c.col_rows, "different seed, different graph");
    }

    #[test]
    fn csr_csc_are_consistent() {
        let m = build(70, 180, RightSide::Staircase, 5);
        // Every entry of the encoder's rows appears in the columns and
        // vice versa.
        let rows = Encoder::new(&m);
        let mut from_rows: Vec<(u32, u32)> = Vec::new();
        for i in 0..m.num_checks() {
            for &c in rows.row(i) {
                from_rows.push((i as u32, c));
            }
        }
        let mut from_cols: Vec<(u32, u32)> = Vec::new();
        for v in 0..m.n() {
            for &r in m.col(v) {
                from_cols.push((r, v as u32));
            }
        }
        from_rows.sort_unstable();
        from_cols.sort_unstable();
        assert_eq!(from_rows, from_cols);
    }

    #[test]
    fn row_weights_balanced_within_one_in_h1() {
        // Count only H1 entries (columns < k).
        let k = 300;
        let m = build(k, 750, RightSide::Identity, 17);
        let mut weights = vec![0usize; m.num_checks()];
        for v in 0..k {
            for &r in m.col(v) {
                weights[r as usize] += 1;
            }
        }
        let lo = *weights.iter().min().unwrap();
        let hi = *weights.iter().max().unwrap();
        // 3*300/450 = 2 edges per row; the fallback path may unbalance by one
        // more in pathological shuffles, hence <= 2 tolerance.
        assert!(hi - lo <= 2, "row weights {lo}..{hi} unbalanced");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn construction_invariants(
            k in 4usize..200,
            extra in 4usize..200,
            seed in any::<u64>(),
            right_idx in 0usize..3,
        ) {
            let right = [RightSide::Identity, RightSide::Staircase, RightSide::Triangle][right_idx];
            let n = k + extra;
            let m = build(k, n, right, seed);
            let s = m.stats();
            prop_assert_eq!(s.source_col_weight_min, 3);
            prop_assert_eq!(s.source_col_weight_max, 3);
            // Each row has distinct, sorted entries.
            let rows = Encoder::new(&m);
            for i in 0..m.num_checks() {
                let row = rows.row(i);
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(row.iter().all(|&c| (c as usize) < n));
            }
            // Total H1 edges = 3k.
            let h1: usize = (0..k).map(|v| m.col(v).len()).sum();
            prop_assert_eq!(h1, 3 * k);
        }
    }
}
