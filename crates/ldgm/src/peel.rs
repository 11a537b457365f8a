//! The peeling cascade of the paper's §2.3.2 — the only copy in the crate.
//!
//! Each check equation starts with all its variables unprocessed. A newly
//! known variable is popped off the cascade stack and folded into every
//! live equation containing it; an equation that drops to a single
//! unprocessed variable either *solves* it (the variable is still unknown:
//! its value is the XOR of everything folded so far) or is *spent* (the
//! variable is already known and merely pending on the stack, so the
//! equation has nothing left to teach). Solved variables cascade.
//!
//! Besides its unprocessed count, each equation keeps the XOR of its
//! unprocessed variables' *ids*: it starts as the XOR of the row and every
//! fold XORs the folded id out. The matrix stores every equation's start
//! state ([`SparseMatrix::start`]), so a reset is one copy. When the
//! count reaches one, that XOR is the last variable's id, so the cascade
//! never scans a row.
//!
//! A *window* of received ids whose completion point is not needed (one
//! that cannot complete the object) can skip the per-id cascade
//! ([`Peeler::fold_window`]): each id is folded into its live equations
//! without resolving anything, every equation that drops to one
//! unprocessed variable is collected, the collected ones are resolved,
//! and one cascade runs from there. That reaches the state learning the
//! ids one by one reaches, whatever their order. Peeling's result is a
//! closure: the known set is the least set holding the received ids and
//! every variable that a row with all its other variables known
//! determines, and a least closure does not depend on the order in which
//! the rule is applied. Once every known variable has been folded into
//! every equation that holds it, an equation is still live exactly when
//! two or more of its variables are unknown, and then its count and id
//! XOR are those of its unknown variables. Within the window an equation
//! may go on from one unprocessed variable to none: every variable it
//! holds is then known, so it is spent. (A row of one variable never
//! passes through one on a fold, so neither path resolves it.)
//!
//! [`Peeler`] owns that bookkeeping and nothing else. What a step means in
//! bytes is the [`Hook`]'s business: [`crate::StructuralDecoder`] peels
//! with the no-op hook `()`, [`crate::Decoder`] with its payload store —
//! the same monomorphised walk either way, so the Monte-Carlo sweeps and
//! the byte path cannot disagree about when an object decodes.

use crate::SparseMatrix;

/// What the cascade reports, in the order it happens. Every method
/// defaults to nothing — that is the index-only decoder.
pub(crate) trait Hook {
    /// `v` was popped off the stack; its equations are visited next.
    fn pop(&mut self, _v: usize) {}
    /// The popped variable is folded into live equation `e`.
    fn fold(&mut self, _e: usize) {}
    /// Equation `e` is down to the still-unknown `u`: its folded value is
    /// `u`'s value.
    fn solve(&mut self, _e: usize, _u: usize) {}
    /// Equation `e`'s last variable was already known: nothing to learn.
    fn spent(&mut self, _e: usize) {}
}

impl Hook for () {}

/// A check equation's unprocessed variables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unprocessed {
    /// How many (0 = resolved).
    pub(crate) count: u32,
    /// XOR of their ids: the last one's id once `count` is 1, and
    /// meaningless once it is 0.
    pub(crate) ids: u32,
}

/// Index-level decoder state shared by both decoders.
#[derive(Clone, Default)]
pub(crate) struct Peeler {
    /// Per check equation.
    pub(crate) eqs: Vec<Unprocessed>,
    /// Whether each variable is known (received or solved).
    pub(crate) known: Vec<bool>,
    pub(crate) decoded_source: usize,
    /// Variables not yet known.
    pub(crate) unknown: usize,
    /// Equations not yet resolved (unprocessed count above zero).
    pub(crate) live: usize,
    /// Packets pushed, duplicates included (maintained by the owners).
    pub(crate) received: u64,
    /// Reusable cascade stack (kept across pushes to avoid re-allocation).
    stack: Vec<u32>,
}

/// What [`Peeler::fold_window`] reuses from one call to the next. Only
/// the index-only decoder folds windows, so only it holds one.
#[derive(Clone, Default)]
pub(crate) struct WindowScratch {
    /// The equations a fold brought down to one unprocessed variable: one
    /// slot per equation and one spare.
    ones: Vec<u32>,
    /// One bit per variable: the window's ids, visited in ascending order
    /// (all zero between calls).
    bits: Vec<u64>,
}

impl Peeler {
    pub(crate) fn new(matrix: &SparseMatrix) -> Peeler {
        let mut peeler = Peeler::default();
        peeler.reset(matrix);
        peeler
    }

    /// Back to the freshly-constructed state, keeping allocations.
    pub(crate) fn reset(&mut self, matrix: &SparseMatrix) {
        self.eqs.clear();
        self.eqs.extend_from_slice(matrix.start());
        self.known.clear();
        self.known.resize(matrix.n(), false);
        self.decoded_source = 0;
        self.unknown = matrix.n();
        // Every row holds its own parity variable (the identity diagonal),
        // so no equation starts resolved.
        self.live = matrix.num_checks();
        self.received = 0;
        self.stack.clear();
    }

    #[inline]
    pub(crate) fn is_complete(&self, matrix: &SparseMatrix) -> bool {
        self.decoded_source == matrix.k()
    }

    /// Takes equation `e` out of the cascade: it is never folded into
    /// again. Maximum-likelihood completion retires the equations it has
    /// spent.
    pub(crate) fn retire(&mut self, e: usize) {
        if self.eqs[e].count > 0 {
            self.eqs[e].count = 0;
            self.live -= 1;
        }
    }

    #[inline(always)]
    fn mark_known(&mut self, matrix: &SparseMatrix, var: u32) {
        debug_assert!(!self.known[var as usize]);
        self.known[var as usize] = true;
        self.unknown -= 1;
        self.decoded_source += usize::from((var as usize) < matrix.k());
    }

    /// Marks the unknown variable `var` as known and runs the cascade.
    /// Inlined into each caller's per-id loop.
    #[inline(always)]
    pub(crate) fn learn<H: Hook>(&mut self, matrix: &SparseMatrix, var: u32, hook: &mut H) {
        self.mark_known(matrix, var);
        self.stack.push(var);
        self.cascade(matrix, hook);
    }

    /// Learns a window of received ids (duplicates and known ids are
    /// skipped) and reaches the state [`learn`](Self::learn) reaches on
    /// them one by one, in one fold and one cascade: see the module doc.
    /// The caller checks every id is in range. The window is visited in
    /// ascending order through the scratch bitmap, whose `n / 64` words
    /// the fold scans, so the caller folds only windows at least that long.
    pub(crate) fn fold_window(
        &mut self,
        matrix: &SparseMatrix,
        ids: &[u32],
        scratch: &mut WindowScratch,
    ) {
        let WindowScratch { ones, bits } = scratch;
        ones.resize(matrix.num_checks() + 1, 0);
        bits.resize(matrix.n().div_ceil(64), 0);
        for &id in ids {
            bits[id as usize / 64] |= 1 << (id % 64);
        }
        let (mut collected, mut folded, mut sources) = (0, 0, 0);
        for (w, word) in bits.iter_mut().enumerate() {
            let mut set = std::mem::take(word);
            while set != 0 {
                let v = (w * 64) as u32 + set.trailing_zeros();
                set &= set - 1;
                if std::mem::replace(&mut self.known[v as usize], true) {
                    continue;
                }
                folded += 1;
                sources += usize::from((v as usize) < matrix.k());
                for &e in matrix.col(v as usize) {
                    let eq = &mut self.eqs[e as usize];
                    let live = eq.count != 0;
                    eq.count -= u32::from(live);
                    eq.ids ^= v;
                    // Written on every edge, kept when the count drops to
                    // one (at most once per equation, so `ones` has room).
                    ones[collected] = e;
                    collected += usize::from(eq.count == 1);
                }
            }
        }
        self.unknown -= folded;
        self.decoded_source += sources;
        // Resolve what the fold collected: an equation still at one
        // variable solves it, unless an equation before it in this pass
        // already did (it is then pending on the stack, and this one is
        // spent); one that went on to none is spent.
        for &e in &ones[..collected] {
            let eq = &mut self.eqs[e as usize];
            let last = (eq.count == 1).then_some(eq.ids);
            eq.count = 0;
            self.live -= 1;
            if let Some(u) = last.filter(|&u| !self.known[u as usize]) {
                self.mark_known(matrix, u);
                self.stack.push(u);
            }
        }
        self.cascade(matrix, &mut ());
    }

    /// Pops the stack empty, folding each variable into its live
    /// equations and resolving those that drop to one variable.
    #[inline(always)]
    fn cascade<H: Hook>(&mut self, matrix: &SparseMatrix, hook: &mut H) {
        while let Some(v) = self.stack.pop() {
            hook.pop(v as usize);
            for &e in matrix.col(v as usize) {
                let e = e as usize;
                let eq = &mut self.eqs[e];
                // A resolved equation (count 0) stays resolved; its id XOR
                // is never read again, so the fold need not branch on it.
                let live = eq.count != 0;
                if live {
                    hook.fold(e);
                }
                eq.count -= u32::from(live);
                eq.ids ^= v;
                if eq.count == 1 {
                    // One unprocessed variable left, named by the XOR. If
                    // it is still globally unknown the equation solves it
                    // (the row XORs to zero); it may instead already be
                    // known but pending on the stack — then the equation
                    // is spent.
                    eq.count = 0;
                    self.live -= 1;
                    let u = eq.ids;
                    if self.known[u as usize] {
                        hook.spent(e);
                    } else {
                        hook.solve(e, u as usize);
                        self.mark_known(matrix, u);
                        self.stack.push(u);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LdgmParams, RightSide, TriangleFill};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Pop(usize),
        Fold(usize),
        Solve(usize, usize),
        Spent(usize),
    }

    #[derive(Default)]
    struct Recorder(Vec<Step>);

    impl Hook for Recorder {
        fn pop(&mut self, v: usize) {
            self.0.push(Step::Pop(v));
        }
        fn fold(&mut self, e: usize) {
            self.0.push(Step::Fold(e));
        }
        fn solve(&mut self, e: usize, u: usize) {
            self.0.push(Step::Solve(e, u));
        }
        fn spent(&mut self, e: usize) {
            self.0.push(Step::Spent(e));
        }
    }

    /// Reference: the cascade with unprocessed counts only, scanning the
    /// row (the encoder's) for its not-yet-known variable when the count
    /// reaches one.
    fn row_scan_trace(matrix: &SparseMatrix, arrivals: &[u32]) -> (Vec<Step>, Vec<bool>) {
        let rows = crate::Encoder::new(matrix);
        let mut unprocessed: Vec<u32> = (0..matrix.num_checks())
            .map(|e| rows.row(e).len() as u32)
            .collect();
        let mut known = vec![false; matrix.n()];
        let mut steps = Vec::new();
        let mut stack = Vec::new();
        for &id in arrivals {
            if known[id as usize] {
                continue;
            }
            known[id as usize] = true;
            stack.push(id);
            while let Some(v) = stack.pop() {
                steps.push(Step::Pop(v as usize));
                for &e in matrix.col(v as usize) {
                    let e = e as usize;
                    if unprocessed[e] == 0 {
                        continue;
                    }
                    steps.push(Step::Fold(e));
                    unprocessed[e] -= 1;
                    if unprocessed[e] == 1 {
                        unprocessed[e] = 0;
                        match rows.row(e).iter().find(|&&c| !known[c as usize]) {
                            Some(&u) => {
                                steps.push(Step::Solve(e, u as usize));
                                known[u as usize] = true;
                                stack.push(u);
                            }
                            None => steps.push(Step::Spent(e)),
                        }
                    }
                }
            }
        }
        (steps, known)
    }

    #[test]
    fn id_xor_trace_equals_row_scan_trace() {
        let (k, n) = (120, 300);
        let (mut solved, mut spent) = (0, 0);
        for right in [
            RightSide::Identity,
            RightSide::Staircase,
            RightSide::Triangle,
        ] {
            for seed in 0..8u64 {
                let matrix = SparseMatrix::build(LdgmParams::new(k, n, right, seed)).unwrap();
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                // A shuffle of everything with a tail of repeats, and
                // parity first then sources (the order that leaves
                // variables pending on the stack).
                let mut shuffled: Vec<u32> = (0..n as u32).collect();
                shuffled.shuffle(&mut rng);
                shuffled.extend_from_within(..n / 4);
                let mut parity_first: Vec<u32> = (k as u32..n as u32).collect();
                parity_first.shuffle(&mut rng);
                let mut sources: Vec<u32> = (0..k as u32).collect();
                sources.shuffle(&mut rng);
                parity_first.extend(sources);

                for arrivals in [shuffled, parity_first] {
                    let mut peeler = Peeler::new(&matrix);
                    let mut recorder = Recorder::default();
                    for &id in &arrivals {
                        if !peeler.known[id as usize] {
                            peeler.learn(&matrix, id, &mut recorder);
                        }
                    }
                    let (reference, known) = row_scan_trace(&matrix, &arrivals);
                    assert_eq!(recorder.0, reference, "{right} seed {seed}");
                    assert_eq!(peeler.known, known);
                    for step in &reference {
                        match step {
                            Step::Solve(..) => solved += 1,
                            Step::Spent(_) => spent += 1,
                            _ => {}
                        }
                    }
                }
            }
        }
        assert!(solved > 0 && spent > 0, "both endings exercised");
    }

    /// Everything the window fold promises to leave as `learn` would:
    /// the known set, the counters, and each live equation's count and id
    /// XOR (a resolved equation's id XOR is meaningless).
    fn assert_same_state(folded: &Peeler, learned: &Peeler) {
        prop_assert_eq!(&folded.known, &learned.known);
        prop_assert_eq!(folded.decoded_source, learned.decoded_source);
        prop_assert_eq!(folded.unknown, learned.unknown);
        prop_assert_eq!(folded.live, learned.live);
        for (e, (f, l)) in folded.eqs.iter().zip(&learned.eqs).enumerate() {
            prop_assert_eq!(f.count, l.count, "equation {}", e);
            if f.count != 0 {
                prop_assert_eq!(f.ids, l.ids, "equation {}", e);
            }
        }
    }

    /// The packet index within `rest` at which the object completes, fed
    /// one id at a time.
    fn completes_at(peeler: &mut Peeler, matrix: &SparseMatrix, rest: &[u32]) -> Option<usize> {
        rest.iter().position(|&id| {
            if !peeler.known[id as usize] {
                peeler.learn(matrix, id, &mut ());
            }
            peeler.is_complete(matrix)
        })
    }

    proptest! {
        // Default config, so `PROPTEST_CASES` scales it (CI runs 1024 cases).
        #[test]
        fn window_fold_equals_learning_id_by_id(
            k in 1usize..200,
            extra in 3usize..250,
            right_idx in 0usize..3,
            fill_idx in 0usize..7,
            fill_extra in 0u8..4,
            seed in any::<u64>(),
            walked in 0.0f64..1.0,
            shape in 0usize..5,
            spread in 0.0f64..1.0,
        ) {
            let right = [RightSide::Identity, RightSide::Staircase, RightSide::Triangle][right_idx];
            let fill = [
                TriangleFill::PerColumn(fill_extra),
                TriangleFill::GeometricDouble,
                TriangleFill::GeometricTriple,
                TriangleFill::ThirdDiagonal,
                TriangleFill::PerRow(fill_extra),
                TriangleFill::PerRowUniform,
                TriangleFill::HalvingTree,
            ][fill_idx];
            let n = k + extra;
            let matrix = SparseMatrix::build_with_fill(LdgmParams::new(k, n, right, seed), fill).unwrap();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.shuffle(&mut rng);

            // A fresh or mid-walk state: a prefix of the order learned id
            // by id in both.
            let (before, after) = order.split_at((walked * walked * n as f64) as usize);
            let mut learned = Peeler::new(&matrix);
            for &id in before {
                if !learned.known[id as usize] {
                    learned.learn(&matrix, id, &mut ());
                }
            }
            let mut folded = learned.clone();

            // The window: none, one, a run of the order, the parity ids
            // still to come, or all of it; the runs carry duplicates and
            // ids the prefix already made known. The run leaves variable 0
            // out: a spent equation's id XOR is 0, so a fold that took it
            // for a solve would show there.
            let run = ((spread * after.len() as f64) as usize).max(2).min(after.len());
            let mut window: Vec<u32> = match shape {
                0 => Vec::new(),
                1 => after.iter().take(1).copied().collect(),
                2 => after[..run].iter().copied().filter(|&id| id != 0).collect(),
                3 => after.iter().copied().filter(|&id| id as usize >= k).collect(),
                _ => after.to_vec(),
            };
            if shape >= 2 && !window.is_empty() {
                for _ in 0..rng.gen_range(0..=window.len() / 4) {
                    let i = rng.gen_range(0..window.len());
                    window.insert(rng.gen_range(0..=window.len()), window[i]);
                }
                for &id in before.iter().take(rng.gen_range(0..=before.len().min(8))) {
                    window.insert(rng.gen_range(0..=window.len()), id);
                }
            }

            for &id in &window {
                if !learned.known[id as usize] {
                    learned.learn(&matrix, id, &mut ());
                }
            }
            folded.fold_window(&matrix, &window, &mut WindowScratch::default());
            assert_same_state(&folded, &learned);

            // Both go on id by id through the rest of the order.
            prop_assert_eq!(
                completes_at(&mut folded, &matrix, after),
                completes_at(&mut learned, &matrix, after)
            );
            assert_same_state(&folded, &learned);
        }
    }
}
