//! Maximum-likelihood (ML) completion of a stalled peeling decoder, by
//! incremental inactivation decoding.
//!
//! The paper evaluates LDGM codes under the pure **iterative (peeling)**
//! decoder of §2.3.2, and all its inefficiency-ratio surfaces are peeling
//! numbers. Peeling is linear-time but suboptimal: it stalls on *stopping
//! sets* — residual systems where every remaining equation still has ≥ 2
//! unknowns — even when the received packets carry enough information to
//! solve the object. The optimal erasure decoder solves that residual
//! linear system over GF(2); later-generation codecs standardised it (RFC
//! 5170's LDPC-Staircase "full" decoding, RFC 6330 §5.4's inactivation
//! decoding), and the paper lists better decoders among its future works
//! (§7).
//!
//! This module solves it the way RFC 6330 does, without ever building the
//! residual as a dense matrix. Its engine (`Inactivation`) peels the
//! residual on symbols: when no live equation has exactly one *active*
//! unknown, it takes a live equation of least active degree and
//! *inactivates* all but one of its unknowns — declares them symbolic
//! columns — and peeling resumes. Every unknown ends up expressed as a
//! GF(2) vector over the `I` inactive columns; the equations left with no
//! active unknown are the only dense rows. The engine has two phases, both
//! on the one `peel.rs` cascade:
//!
//! * **Index phase** ([`StructuralDecoder::ml_complete`], and the decision
//!   inside [`Decoder::try_complete`](crate::Decoder::try_complete)):
//!   built once per object, on the first call where the live equations
//!   are at least as many as the unknowns (see below), which happens
//!   within a few packets of the completion point, where the residual is
//!   small. The build is kept: each variable received afterwards adds one
//!   row (its expression) to an echelon basis of the dense rows, so a
//!   failed call costs nothing the next one repeats. [`ml_necessary`] is
//!   one forward pass over an arrival order.
//! * **Payload phase** (`Decoder::try_complete`, once the index phase says
//!   the object decodes): the residual's row operations are mirrored onto
//!   the equations' own accumulators (reusing the index phase's
//!   triangulation when nothing arrived since), the dense part is reduced,
//!   each inactive value is learned, and the ordinary cascade finishes the
//!   object.
//!
//! The success criterion is that every unknown **source** is determined:
//! the receiver does not need the parity. For the matrices this crate
//! builds that is the same as every unknown being determined. Each
//! unknown parity closes a live equation of its own (the right side is
//! lower triangular with a unit diagonal), so the residual's parity
//! columns are independent, and a solution space that left any unknown
//! free would leave a source free too. Hence the exact test is that the
//! dense rows pin every inactive column (`rank == I`), and a necessary
//! condition is free to check: at least as many live equations as
//! unknowns. That counting gate is what keeps the engine off the large
//! residuals of the first packets past `k`.

use crate::bitmat::{BitMatrix, RowOp};
use crate::peel::{Peeler, Unprocessed};
use crate::{SparseMatrix, StructuralDecoder};

/// "None": a variable no step has resolved, an equation outside the
/// residual, a value with no accumulator.
pub(crate) const NONE: u32 = u32::MAX;

/// Marks an inactive variable's column in `Inactivation::expr_of`, and a
/// dense equation's row in `Inactivation::row_of`.
const FLAG: u32 = 1 << 31;

/// The inactivation engine of one object: a triangulation of the residual
/// and, between calls of the index phase, the echelon basis it feeds.
///
/// All storage is kept across calls; a build reuses it.
#[derive(Clone, Default)]
pub(crate) struct Inactivation {
    /// Whether the index phase holds a build for the current object.
    built: bool,
    /// Whether the triangulation is of the current residual: nothing has
    /// arrived since it was built.
    fresh: bool,
    /// Per step: `(equation, variable)`, the equation that solved the
    /// variable or `NONE` for an inactivation.
    steps: Vec<(u32, u32)>,
    /// Per variable: the equation that solved it, `FLAG | column` if it
    /// went inactive, `NONE` if no step resolved it.
    expr_of: Vec<u32>,
    /// The variable of each inactive column, in column order.
    inactive: Vec<u32>,
    /// Equations left with no active unknown: the dense rows.
    dense: Vec<u32>,
    /// Per equation: its row in `rows` (with `FLAG` once it is dense), or
    /// `NONE` outside the residual.
    row_of: Vec<u32>,
    /// The residual's equations, ascending: row `r` is equation `eqs[r]`.
    eqs: Vec<u32>,
    /// Row `r`'s unknown variables at the start of the triangulation,
    /// ascending, are `vars[vars_at[r]..vars_at[r + 1]]`.
    vars_at: Vec<u32>,
    vars: Vec<u32>,
    /// Per equation: its active unknowns, counted and XORed by id (the
    /// cascade's own bookkeeping, copied at the start of a build).
    active: Vec<Unprocessed>,
    /// Equations down to one active unknown, waiting to solve it.
    ones: Vec<u32>,
    /// Equations that came down to two active unknowns, the first place
    /// to look when peeling stalls (lazily: an entry may be stale).
    twos: Vec<u32>,
    /// `u64` words per vector over the inactive columns.
    width: usize,
    /// Per residual equation, `width` words: its row over the inactive
    /// columns once every variable solved before it is substituted. A
    /// solving row is then its variable's expression; a dense row is a
    /// constraint on the inactive columns.
    rows: Vec<u64>,
    /// Echelon basis of the constraints on the inactive columns, `width`
    /// words a row, each row reduced against the ones before it.
    basis: Vec<u64>,
    /// The pivot column of each basis row.
    pivots: Vec<u32>,
    /// Variables received since the build, not yet in the basis.
    arrived: Vec<u32>,
    /// Scratch vector, `width` words.
    row: Vec<u64>,
    /// The payload phase's answer: `(inactive variable, equation whose
    /// accumulator holds its value)`, `NONE` for a free column (zero).
    values: Vec<(u32, u32)>,
}

/// `dst ^= src`, word by word.
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

impl Inactivation {
    /// Forgets the current object's build, keeping the storage.
    pub(crate) fn reset(&mut self) {
        self.built = false;
        self.fresh = false;
        self.arrived.clear();
    }

    /// Records a variable received from the channel (not solved by the
    /// cascade): once the index phase is built it adds one constraint.
    #[inline]
    pub(crate) fn arrived(&mut self, var: u32) {
        if self.built {
            self.arrived.push(var);
            self.fresh = false;
        }
    }

    /// Index phase: is every source of the object determined by what
    /// `peel` has received? Exact; builds on the first call that passes
    /// the counting gate and keeps its work across calls.
    pub(crate) fn decodable(&mut self, matrix: &SparseMatrix, peel: &Peeler) -> bool {
        if peel.is_complete(matrix) {
            return true;
        }
        if peel.live < peel.unknown {
            return false; // too few equations to determine every unknown
        }
        if !self.built {
            self.build(matrix, peel);
        }
        let mut arrived = std::mem::take(&mut self.arrived);
        for &var in &arrived {
            if self.load(var) {
                self.insert();
            }
        }
        arrived.clear();
        self.arrived = arrived;
        self.pivots.len() == self.inactive.len()
    }

    /// Payload phase, for an object [`decodable`](Self::decodable) has
    /// cleared: triangulates the current residual (unless the index
    /// phase's triangulation still is it) and mirrors every row operation
    /// onto the equations' accumulators, which hold their right-hand
    /// sides, through `xor(src, dst)`: XOR equation `src`'s into `dst`'s.
    /// Returns the equations it left dense (their accumulators are spent)
    /// and the value of each inactive variable as `(variable, equation
    /// whose accumulator holds it)`, `NONE` for zero. The accumulators of
    /// every other equation are as they were.
    pub(crate) fn solve(
        &mut self,
        matrix: &SparseMatrix,
        peel: &Peeler,
        mut xor: impl FnMut(usize, usize),
    ) -> (&[u32], &[(u32, u32)]) {
        if !self.fresh {
            self.triangulate(matrix, peel);
            self.forward(matrix);
        }
        self.built = false;
        self.fresh = false;
        self.fold(matrix, &mut xor, false);

        // The dense rows to reduced row echelon form; a pivot row then
        // holds its column's value with every free column set to zero.
        let w = self.width;
        let mut dense = BitMatrix::zero(self.dense.len(), self.inactive.len());
        for (r, &e) in self.dense.iter().enumerate() {
            let at = (self.row_of[e as usize] & !FLAG) as usize * w;
            dense.row_mut(r).copy_from_slice(&self.rows[at..at + w]);
        }
        let order = &mut self.dense;
        let pivots = dense.reduce(|op| match op {
            RowOp::Xor { src, dst } => xor(order[src] as usize, order[dst] as usize),
            RowOp::Swap { a, b } => order.swap(a, b),
        });
        self.values.clear();
        self.values.extend(self.inactive.iter().map(|&v| (v, NONE)));
        for (r, c) in pivots {
            self.values[c].1 = self.dense[r];
        }

        // Undo the forward folds on the solving rows, so that their
        // accumulators are the cascade's again.
        self.fold(matrix, &mut xor, true);
        (&self.dense, &self.values)
    }

    /// Builds the index phase on the current residual.
    fn build(&mut self, matrix: &SparseMatrix, peel: &Peeler) {
        self.triangulate(matrix, peel);
        self.forward(matrix);
        self.basis.clear();
        self.pivots.clear();
        for i in 0..self.dense.len() {
            let at = (self.row_of[self.dense[i] as usize] & !FLAG) as usize * self.width;
            self.row.copy_from_slice(&self.rows[at..at + self.width]);
            self.insert();
        }
        self.arrived.clear();
        self.built = true;
        self.fresh = true;
    }

    /// Peels the residual of `peel` with inactivation, recording the
    /// steps, the inactive columns and the dense rows.
    ///
    /// The matrix keeps columns only, so the residual's rows are built
    /// here first, from the columns of the unknown variables: read in
    /// ascending order, they give each row its unknowns in the order the
    /// matrix's rows list them.
    fn triangulate(&mut self, matrix: &SparseMatrix, peel: &Peeler) {
        self.active.clone_from(&peel.eqs);
        self.expr_of.clear();
        self.expr_of.resize(matrix.n(), NONE);
        self.row_of.clear();
        self.steps.clear();
        self.inactive.clear();
        self.dense.clear();
        self.ones.clear();
        self.twos.clear();
        // Room for every equation, so the pushes below do not regrow.
        self.eqs.clear();
        self.eqs.reserve(self.active.len());
        // `vars_at[r + 1]` is row `r`'s write cursor until the fill is
        // done, and its end after.
        self.vars_at.clear();
        self.vars_at.reserve(self.active.len() + 2);
        self.vars_at.extend([0, 0]);
        for (e, eq) in self.active.iter().enumerate() {
            self.row_of.push(match eq.count {
                0 => NONE,
                count => {
                    match count {
                        1 => self.ones.push(e as u32),
                        2 => self.twos.push(e as u32),
                        _ => {}
                    }
                    // A live equation's count is its unknown variables'.
                    let at = self.vars_at[self.vars_at.len() - 1];
                    self.vars_at.push(at + count);
                    self.eqs.push(e as u32);
                    self.eqs.len() as u32 - 1
                }
            });
        }
        let total = self.vars_at.pop().unwrap_or(0);
        self.vars.clear();
        self.vars.resize(total as usize, 0);
        for v in (0..matrix.n()).filter(|&v| !peel.known[v]) {
            for &f in matrix.col(v) {
                let r = self.row_of[f as usize];
                if r != NONE {
                    let at = &mut self.vars_at[r as usize + 1];
                    self.vars[*at as usize] = v as u32;
                    *at += 1;
                }
            }
        }
        loop {
            while let Some(e) = self.ones.pop() {
                let eq = &mut self.active[e as usize];
                if eq.count == 1 {
                    eq.count = 0;
                    let u = eq.ids;
                    self.expr_of[u as usize] = e;
                    self.resolve(matrix, e, u);
                }
            }
            // Stalled: a live equation of least active degree keeps one
            // unknown, and the others go symbolic.
            let Some(e) = self.least_degree() else {
                break;
            };
            let r = self.row_of[e as usize] as usize;
            for at in self.vars_at[r]..self.vars_at[r + 1] {
                if self.active[e as usize].count == 1 {
                    break;
                }
                let v = self.vars[at as usize];
                if self.expr_of[v as usize] == NONE {
                    self.expr_of[v as usize] = FLAG | self.inactive.len() as u32;
                    self.inactive.push(v);
                    self.resolve(matrix, NONE, v);
                }
            }
        }
    }

    /// A live equation with the fewest (≥ 2) active unknowns, if any: one
    /// from the stack of twos, else the first least by a scan of the
    /// residual's equations.
    fn least_degree(&mut self) -> Option<u32> {
        while let Some(e) = self.twos.pop() {
            if self.active[e as usize].count == 2 {
                return Some(e);
            }
        }
        let active = &self.active;
        self.eqs
            .iter()
            .copied()
            .filter(|&e| active[e as usize].count >= 2)
            .min_by_key(|&e| active[e as usize].count)
    }

    /// Records the step that resolves `var` (solved by equation `by`, or
    /// inactivated when `by` is `NONE`) and folds it out of its equations.
    fn resolve(&mut self, matrix: &SparseMatrix, by: u32, var: u32) {
        self.steps.push((by, var));
        for &f in matrix.col(var as usize) {
            let eq = &mut self.active[f as usize];
            if eq.count == 0 {
                continue;
            }
            eq.count -= 1;
            eq.ids ^= var;
            match eq.count {
                0 => {
                    self.row_of[f as usize] |= FLAG;
                    self.dense.push(f);
                }
                1 => self.ones.push(f),
                2 => self.twos.push(f),
                _ => {}
            }
        }
    }

    /// Substitutes every step into the later rows that hold its variable,
    /// in step order: an inactive variable is its own column, a solved one
    /// is its solving row. (An earlier solving row never holds the
    /// variable: it had one active unknown left, and this one was still
    /// active.)
    fn forward(&mut self, matrix: &SparseMatrix) {
        let w = self.inactive.len().div_ceil(64);
        self.width = w;
        self.row.clear();
        self.row.resize(w, 0);
        self.rows.clear();
        self.rows
            .resize(self.row_of.iter().filter(|&&r| r != NONE).count() * w, 0);
        let mut column = 0;
        for &(e, v) in &self.steps {
            let from = match e {
                NONE => None,
                e => Some(self.row_of[e as usize] as usize * w),
            };
            for &f in matrix.col(v as usize) {
                let to = self.row_of[f as usize];
                if to == NONE || f == e {
                    continue;
                }
                let to = (to & !FLAG) as usize * w;
                match from {
                    None => self.rows[to + column / 64] ^= 1 << (column % 64),
                    Some(from) => {
                        let (lo, hi) = self.rows.split_at_mut(from.max(to));
                        let (dst, src) = if to < from {
                            (&mut lo[to..to + w], &hi[..w])
                        } else {
                            (&mut hi[..w], &lo[from..from + w])
                        };
                        xor_words(dst, src);
                    }
                }
            }
            if e == NONE {
                column += 1;
            }
        }
    }

    /// Mirrors [`forward`](Self::forward)'s row folds through `xor`, or with
    /// `undo` takes them back off the solving rows, in reverse: a solving
    /// row holds the same value when it is folded in both times, since
    /// only rows after it change in between.
    fn fold(&self, matrix: &SparseMatrix, xor: &mut impl FnMut(usize, usize), undo: bool) {
        let apply = |&(e, u): &(u32, u32)| {
            for &f in matrix.col(u as usize) {
                let to = self.row_of[f as usize];
                let target = if undo { to & FLAG == 0 } else { to != NONE };
                if target && f != e {
                    xor(e as usize, f as usize);
                }
            }
        };
        let solving = |step: &&(u32, u32)| step.0 != NONE;
        if undo {
            self.steps.iter().rev().filter(solving).for_each(apply);
        } else {
            self.steps.iter().filter(solving).for_each(apply);
        }
    }

    /// Loads `var`'s expression over the inactive columns into `row`;
    /// `false` if it was known at the build.
    fn load(&mut self, var: u32) -> bool {
        let w = self.width;
        match self.expr_of[var as usize] {
            NONE => false,
            x if x & FLAG != 0 => {
                let column = (x & !FLAG) as usize;
                self.row.fill(0);
                self.row[column / 64] = 1 << (column % 64);
                true
            }
            e => {
                let at = self.row_of[e as usize] as usize * w;
                self.row.copy_from_slice(&self.rows[at..at + w]);
                true
            }
        }
    }

    /// Reduces `row` against the basis: afterwards it is zero at every
    /// pivot column.
    fn reduce(&mut self) {
        let w = self.width;
        for (r, &p) in self.pivots.iter().enumerate() {
            if self.row[p as usize / 64] >> (p % 64) & 1 == 1 {
                xor_words(&mut self.row, &self.basis[r * w..][..w]);
            }
        }
    }

    /// Adds the constraint in `row` to the basis, unless it is already
    /// implied.
    fn insert(&mut self) {
        self.reduce();
        if let Some((i, word)) = self.row.iter().enumerate().find(|(_, &word)| word != 0) {
            self.pivots.push((i * 64) as u32 + word.trailing_zeros());
            self.basis.extend_from_slice(&self.row);
        }
    }
}

/// Smallest number of packets of `order` (a transmission/reception order,
/// deduplicated or not) after which **ML decoding** completes, or `None` if
/// even the full sequence is insufficient.
///
/// One forward pass: no `k − 1` packets determine `k` sources, so they go
/// in as one window, and the index phase is asked after each packet from
/// there. It answers at once until the counting gate opens, is built there
/// once, and every later packet adds one row.
pub fn ml_necessary(matrix: &SparseMatrix, order: &[u32]) -> Option<usize> {
    let (head, rest) = order.split_at(order.len().min(matrix.k() - 1));
    let mut dec = StructuralDecoder::new(matrix);
    dec.push_batch(head);
    rest.iter().enumerate().find_map(|(i, &id)| {
        dec.push_batch(&[id]);
        dec.ml_complete().then_some(head.len() + i + 1)
    })
}

/// Smallest number of packets of `order` after which **peeling** completes
/// (the paper's decoder), or `None`. Companion to [`ml_necessary`] so the
/// ablation bench reads symmetrically.
pub fn peeling_necessary(matrix: &SparseMatrix, order: &[u32]) -> Option<usize> {
    let done_at = StructuralDecoder::new(matrix).push_batch(order)?;
    Some(done_at + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decoder, Encoder, LdgmParams, RightSide};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn build(k: usize, n: usize, right: RightSide, seed: u64) -> Arc<SparseMatrix> {
        Arc::new(SparseMatrix::build(LdgmParams::new(k, n, right, seed)).unwrap())
    }

    /// The triangulation as it was while the matrix kept its rows: a stall
    /// walks the chosen equation's whole row of `H` (here the encoder's),
    /// and finds that equation by a scan of every equation.
    fn reference_triangulate(
        ml: &mut Inactivation,
        matrix: &SparseMatrix,
        rows: &Encoder,
        peel: &Peeler,
    ) {
        ml.active.clone_from(&peel.eqs);
        ml.expr_of.clear();
        ml.expr_of.resize(matrix.n(), NONE);
        ml.row_of.clear();
        ml.steps.clear();
        ml.inactive.clear();
        ml.dense.clear();
        ml.ones.clear();
        ml.twos.clear();
        let mut residual = 0;
        for (e, eq) in ml.active.iter().enumerate() {
            ml.row_of.push(match eq.count {
                0 => NONE,
                count => {
                    match count {
                        1 => ml.ones.push(e as u32),
                        2 => ml.twos.push(e as u32),
                        _ => {}
                    }
                    residual += 1;
                    residual - 1
                }
            });
        }
        loop {
            while let Some(e) = ml.ones.pop() {
                let eq = &mut ml.active[e as usize];
                if eq.count == 1 {
                    eq.count = 0;
                    let u = eq.ids;
                    ml.expr_of[u as usize] = e;
                    ml.resolve(matrix, e, u);
                }
            }
            let mut least = None;
            while let Some(e) = ml.twos.pop() {
                if ml.active[e as usize].count == 2 {
                    least = Some(e);
                    break;
                }
            }
            let least = least.or_else(|| {
                (0..ml.active.len() as u32)
                    .filter(|&e| ml.active[e as usize].count >= 2)
                    .min_by_key(|&e| ml.active[e as usize].count)
            });
            let Some(e) = least else {
                break;
            };
            for &v in rows.row(e as usize) {
                if ml.active[e as usize].count == 1 {
                    break;
                }
                if !peel.known[v as usize] && ml.expr_of[v as usize] == NONE {
                    ml.expr_of[v as usize] = FLAG | ml.inactive.len() as u32;
                    ml.inactive.push(v);
                    ml.resolve(matrix, NONE, v);
                }
            }
        }
    }

    /// What one triangulation decided (steps, inactive columns, dense
    /// rows) and what the solve on it gives (the dense rows in reduced
    /// order, each inactive value, every accumulator XOR).
    #[allow(clippy::type_complexity)]
    fn solved(
        ml: &mut Inactivation,
        matrix: &SparseMatrix,
        peel: &Peeler,
    ) -> (
        Vec<(u32, u32)>,
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
        Vec<(u32, u32)>,
        Vec<(usize, usize)>,
    ) {
        let decided = (ml.steps.clone(), ml.inactive.clone(), ml.dense.clone());
        ml.forward(matrix);
        ml.fresh = true;
        let mut xors = Vec::new();
        let (dense, values) = ml.solve(matrix, peel, |src, dst| xors.push((src, dst)));
        let (dense, values) = (dense.to_vec(), values.to_vec());
        (decided.0, decided.1, decided.2, dense, values, xors)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The residual's rows built from the columns of the unknowns, and
        /// the least-degree scan over the residual only, take every
        /// decision the row walk and the full scan took: after each
        /// arrival until the object peels (the early, large residuals are
        /// where a stall finds no equation of degree two and scans), the
        /// steps, inactive columns, dense rows, values and accumulator
        /// XORs are the reference's.
        #[test]
        fn triangulation_from_columns_equals_the_row_walk(
            right_idx in 0usize..3,
            left_degree in 2usize..5,
            k in 10usize..100,
            extra in 5usize..100,
            seed in any::<u64>(),
            order_seed in any::<u64>(),
        ) {
            let right = [RightSide::Identity, RightSide::Staircase, RightSide::Triangle][right_idx];
            let n = k + extra;
            let p = LdgmParams { k, n, left_degree, right, seed };
            let matrix = SparseMatrix::build(p).unwrap();
            let rows = Encoder::new(&matrix);
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.shuffle(&mut SmallRng::seed_from_u64(order_seed));
            let mut peel = Peeler::new(&matrix);
            for &id in &order {
                if !peel.known[id as usize] {
                    peel.learn(&matrix, id, &mut ());
                }
                if peel.is_complete(&matrix) {
                    break;
                }
                let mut columns = Inactivation::default();
                columns.triangulate(&matrix, &peel);
                let mut reference = Inactivation::default();
                reference_triangulate(&mut reference, &matrix, &rows, &peel);
                prop_assert_eq!(
                    solved(&mut columns, &matrix, &peel),
                    solved(&mut reference, &matrix, &peel)
                );
            }
        }
    }

    fn random_payloads(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    /// ML must succeed whenever peeling succeeds, and never need more
    /// packets — on every random instance.
    #[test]
    fn ml_dominates_peeling() {
        for right in [RightSide::Staircase, RightSide::Triangle] {
            for seed in 0..20u64 {
                let m = build(80, 200, right, seed);
                let mut order: Vec<u32> = (0..200).collect();
                order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xC0DE));
                let peel = peeling_necessary(&m, &order);
                let ml = ml_necessary(&m, &order);
                if let Some(p) = peel {
                    let l = ml.expect("ML succeeds whenever peeling does");
                    assert!(l <= p, "{right} seed {seed}: ml {l} > peeling {p}");
                }
                if let Some(l) = ml {
                    assert!(l >= 80, "information-theoretic floor");
                }
            }
        }
    }

    /// ML typically reaches the information-theoretic floor region that
    /// peeling cannot: across random orders the mean ML overhead must be
    /// strictly below the mean peeling overhead.
    #[test]
    fn ml_strictly_better_on_average() {
        let m = build(150, 375, RightSide::Staircase, 3);
        let (mut peel_sum, mut ml_sum, mut count) = (0usize, 0usize, 0usize);
        for seed in 0..30u64 {
            let mut order: Vec<u32> = (0..375).collect();
            order.shuffle(&mut SmallRng::seed_from_u64(seed));
            let (Some(p), Some(l)) = (peeling_necessary(&m, &order), ml_necessary(&m, &order))
            else {
                continue;
            };
            peel_sum += p;
            ml_sum += l;
            count += 1;
        }
        assert!(count >= 25, "most random orders must decode");
        assert!(
            ml_sum < peel_sum,
            "ML mean ({ml_sum}) must beat peeling mean ({peel_sum}) over {count} runs"
        );
    }

    /// Payload ML decode returns byte-exact source data.
    #[test]
    fn payload_ml_recovers_exact_bytes() {
        for right in [
            RightSide::Identity,
            RightSide::Staircase,
            RightSide::Triangle,
        ] {
            for seed in 0..8u64 {
                let (k, n, len) = (60, 150, 16);
                let m = build(k, n, right, seed);
                let src = random_payloads(k, len, seed ^ 0xFEED);
                let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
                let parity = Encoder::new(&m).encode(&refs).unwrap();

                let mut order: Vec<u32> = (0..n as u32).collect();
                order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xD00D));

                // Feed exactly the ML-necessary prefix: the payload decoder
                // must then finish via try_complete().
                let Some(need) = ml_necessary(&m, &order) else {
                    continue;
                };
                let mut dec = Decoder::new(Arc::clone(&m), len);
                for &id in &order[..need] {
                    let payload: &[u8] = if (id as usize) < k {
                        &src[id as usize]
                    } else {
                        &parity[id as usize - k]
                    };
                    dec.push_batch(&[(id, payload)]).unwrap();
                }
                assert!(dec.try_complete(), "{right} seed {seed}");
                assert_eq!(
                    dec.into_object().unwrap(),
                    src.concat(),
                    "{right} seed {seed}"
                );
            }
        }
    }

    /// Pinning every source pins every unknown: the parity columns of the
    /// residual are independent, so a completed decoder knows all `n`
    /// variables, not only the `k` it needs.
    #[test]
    fn completion_pins_every_unknown() {
        for right in [RightSide::Staircase, RightSide::Triangle] {
            for seed in 0..6u64 {
                let (k, n) = (60, 90);
                let m = build(k, n, right, seed);
                let src = random_payloads(k, 4, seed);
                let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
                let parity = Encoder::new(&m).encode(&refs).unwrap();
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.shuffle(&mut SmallRng::seed_from_u64(seed));
                let need = ml_necessary(&m, &order).expect("all n decode");
                let mut dec = Decoder::new(Arc::clone(&m), 4);
                for &id in &order[..need] {
                    let payload = match (id as usize).checked_sub(k) {
                        None => &src[id as usize],
                        Some(p) => &parity[p],
                    };
                    dec.push_batch(&[(id, payload)]).unwrap();
                }
                assert!(dec.try_complete(), "{right} seed {seed}");
                assert!(
                    (0..n as u32).all(|v| dec.is_known(v)),
                    "{right} seed {seed}"
                );
            }
        }
    }

    /// One packet short of the ML threshold, completion must report failure
    /// (and not corrupt the decoder for a later retry).
    #[test]
    fn one_short_of_threshold_fails_then_recovers() {
        let (k, n, len) = (60, 150, 8);
        let m = build(k, n, RightSide::Staircase, 11);
        let src = random_payloads(k, len, 42);
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let parity = Encoder::new(&m).encode(&refs).unwrap();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(99));
        let need = ml_necessary(&m, &order).unwrap();
        assert!(need > 1);

        let payload_of = |id: u32| -> &[u8] {
            if (id as usize) < k {
                &src[id as usize]
            } else {
                &parity[id as usize - k]
            }
        };
        let mut dec = Decoder::new(Arc::clone(&m), len);
        for &id in &order[..need - 1] {
            dec.push_batch(&[(id, payload_of(id))]).unwrap();
        }
        assert!(!dec.try_complete(), "must fail one packet short");
        // Delivering the final packet must now finish: the failed attempt
        // must not have corrupted state.
        dec.push_batch(&[(order[need - 1], payload_of(order[need - 1]))])
            .unwrap();
        assert!(dec.try_complete());
        assert_eq!(dec.into_object().unwrap(), src.concat());
    }

    /// Fewer than k packets can never decode (information-theoretic bound),
    /// and ml_necessary must refuse short orders outright.
    #[test]
    fn below_k_is_hopeless() {
        let m = build(40, 100, RightSide::Staircase, 5);
        let order: Vec<u32> = (0..39).collect();
        assert_eq!(ml_necessary(&m, &order), None);
        let mut dec = StructuralDecoder::new(&m);
        for id in 0..30 {
            dec.push_batch(&[id]);
        }
        // 30 sources received: 10 still unknown, residual must not claim
        // victory... but all unknowns ARE determined? No: only 30 of 40
        // sources are known and nothing else was received, so ML cannot
        // finish.
        assert!(!dec.ml_complete());
    }

    /// Receiving all k source packets is always sufficient, and the ML path
    /// agrees with peeling there (no second phase needed).
    #[test]
    fn all_sources_trivially_complete() {
        let m = build(30, 75, RightSide::Triangle, 8);
        let mut dec = StructuralDecoder::new(&m);
        for id in 0..30 {
            let done = dec.push_batch(&[id]).is_some();
            assert_eq!(done, id == 29);
        }
        assert!(dec.is_complete() && dec.ml_complete());
    }

    /// Duplicate packets consume budget but never change decodability.
    #[test]
    fn duplicates_are_neutral_for_ml() {
        let m = build(40, 100, RightSide::Staircase, 21);
        let mut with_dups = StructuralDecoder::new(&m);
        let mut without = StructuralDecoder::new(&m);
        for id in 0..35u32 {
            with_dups.push_batch(&[id]);
            with_dups.push_batch(&[id]); // duplicate
            without.push_batch(&[id]);
        }
        assert_eq!(with_dups.ml_complete(), without.ml_complete());
        assert_eq!(with_dups.received(), 70);
    }
}
