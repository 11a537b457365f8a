//! The paper's `(p, q)` evaluation grids.

/// The 14 probability values (as fractions) the paper sweeps for both `p`
/// and `q`: {0, 1, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100}%.
pub const PAPER_GRID: [f64; 14] = [
    0.0, 0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00,
];

/// A coarser 8-value grid for quick runs (keeps the paper's endpoints and
/// its low-loss emphasis).
const COARSE_GRID: [f64; 8] = [0.0, 0.01, 0.05, 0.20, 0.40, 0.60, 0.80, 1.00];

/// Tolerance for matching a probability against a grid axis value.
///
/// Grid values live in `[0, 1]` and neighbouring paper-grid points are at
/// least 0.01 apart, so an absolute epsilon nine orders of magnitude below
/// the spacing can never be ambiguous while still absorbing parse/arithmetic
/// noise (`1.0 - 0.9 != 0.1` bit-for-bit).
const GRID_EPSILON: f64 = 1e-9;

/// Resolves a probability to its index on a grid axis, tolerating float
/// noise up to `GRID_EPSILON`. Returns `None` for off-grid values.
pub fn index_of(axis: &[f64], value: f64) -> Option<usize> {
    axis.iter().position(|&g| (g - value).abs() <= GRID_EPSILON)
}

/// The canonical grid selection used by sweep configs, bench scaling and
/// the CLI. Every `(p, q)` axis in the workspace resolves through this one
/// type so the values cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridKind {
    /// The paper's 14-value grid.
    #[default]
    Paper,
    /// The coarse 8-value grid for quick runs.
    Coarse,
}

impl GridKind {
    /// The grid values.
    pub fn values(&self) -> &'static [f64] {
        match self {
            GridKind::Paper => &PAPER_GRID,
            GridKind::Coarse => &COARSE_GRID,
        }
    }

    /// The grid values as an owned vector (sweep configs store `Vec<f64>`).
    pub fn to_vec(&self) -> Vec<f64> {
        self.values().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sorted_probabilities() {
        for g in [&PAPER_GRID[..], &COARSE_GRID[..]] {
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert_eq!(g.first(), Some(&0.0));
            assert_eq!(g.last(), Some(&1.0));
        }
    }

    #[test]
    fn percent_labels_match_values() {
        // The percent labels the paper's appendix prints.
        let percent = [0, 1, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        for (v, pct) in PAPER_GRID.iter().zip(percent) {
            assert!((v * 100.0 - pct as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn index_of_tolerates_noise() {
        assert_eq!(index_of(&PAPER_GRID, 0.1), Some(3));
        assert_eq!(index_of(&PAPER_GRID, 1.0 - 0.9), Some(3));
        assert_eq!(index_of(&PAPER_GRID, 0.10000000049), Some(3));
        assert_eq!(index_of(&PAPER_GRID, 0.11), None);
        assert_eq!(index_of(&COARSE_GRID, 1.0), Some(7));
        assert_eq!(index_of(&[], 0.0), None);
    }

    #[test]
    fn coarse_is_subset_of_paper() {
        for v in COARSE_GRID {
            assert!(PAPER_GRID.contains(&v));
        }
    }

    #[test]
    fn grid_kind_is_the_single_source() {
        assert_eq!(GridKind::Paper.values(), &PAPER_GRID);
        assert_eq!(GridKind::Coarse.values(), &COARSE_GRID);
        assert_eq!(GridKind::default(), GridKind::Paper);
        assert_eq!(GridKind::Coarse.to_vec().len(), 8);
    }
}
