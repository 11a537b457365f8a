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

/// Index-level decoder state shared by both decoders.
#[derive(Clone, Default)]
pub(crate) struct Peeler {
    /// Unprocessed-variable count per check equation (0 = resolved).
    eq_unknowns: Vec<u32>,
    /// Whether each variable is known (received or solved).
    pub(crate) known: Vec<bool>,
    pub(crate) decoded_source: usize,
    /// Packets pushed, duplicates included (maintained by the owners).
    pub(crate) received: u64,
    /// Reusable cascade stack (kept across pushes to avoid re-allocation).
    stack: Vec<u32>,
}

impl Peeler {
    pub(crate) fn new(matrix: &SparseMatrix) -> Peeler {
        let mut peeler = Peeler::default();
        peeler.reset(matrix);
        peeler
    }

    /// Back to the freshly-constructed state, keeping allocations.
    pub(crate) fn reset(&mut self, matrix: &SparseMatrix) {
        self.eq_unknowns.clear();
        self.eq_unknowns
            .extend((0..matrix.num_checks()).map(|e| matrix.row(e).len() as u32));
        self.known.clear();
        self.known.resize(matrix.n(), false);
        self.decoded_source = 0;
        self.received = 0;
        self.stack.clear();
    }

    #[inline]
    pub(crate) fn is_complete(&self, matrix: &SparseMatrix) -> bool {
        self.decoded_source == matrix.k()
    }

    #[inline]
    fn mark_known(&mut self, matrix: &SparseMatrix, var: u32) {
        debug_assert!(!self.known[var as usize]);
        self.known[var as usize] = true;
        if (var as usize) < matrix.k() {
            self.decoded_source += 1;
        }
    }

    /// Marks the unknown variable `var` as known and runs the cascade.
    pub(crate) fn learn<H: Hook>(&mut self, matrix: &SparseMatrix, var: u32, hook: &mut H) {
        self.mark_known(matrix, var);
        self.stack.push(var);
        while let Some(v) = self.stack.pop() {
            hook.pop(v as usize);
            for &e in matrix.col(v as usize) {
                let e = e as usize;
                if self.eq_unknowns[e] == 0 {
                    continue; // equation already fully resolved
                }
                hook.fold(e);
                self.eq_unknowns[e] -= 1;
                if self.eq_unknowns[e] == 1 {
                    // One unprocessed variable left. If it is still
                    // globally unknown the equation solves it (the row
                    // XORs to zero); it may instead already be known but
                    // pending on the stack — then the equation is spent.
                    let unknown = matrix
                        .row(e)
                        .iter()
                        .copied()
                        .find(|&c| !self.known[c as usize]);
                    self.eq_unknowns[e] = 0;
                    match unknown {
                        Some(u) => {
                            hook.solve(e, u as usize);
                            self.mark_known(matrix, u);
                            self.stack.push(u);
                        }
                        None => hook.spent(e),
                    }
                }
            }
        }
    }
}
