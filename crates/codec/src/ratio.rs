//! The FEC expansion ratio `n/k` — the experiment vocabulary every layer
//! shares.

use core::fmt;

use serde::{Deserialize, Serialize};

/// FEC expansion ratio `n/k` (§2.1; the inverse of the code rate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExpansionRatio {
    /// `n/k = 1.5` (code rate 2/3).
    R1_5,
    /// `n/k = 2.5` (code rate 2/5).
    R2_5,
    /// Any other ratio `>= 1` (used by ablations).
    Custom(f64),
}

impl ExpansionRatio {
    /// The two ratios studied throughout the paper.
    pub fn paper_ratios() -> [ExpansionRatio; 2] {
        [ExpansionRatio::R1_5, ExpansionRatio::R2_5]
    }

    /// The numeric value.
    pub fn as_f64(&self) -> f64 {
        match *self {
            ExpansionRatio::R1_5 => 1.5,
            ExpansionRatio::R2_5 => 2.5,
            ExpansionRatio::Custom(r) => r,
        }
    }
}

impl fmt::Display for ExpansionRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vocabulary() {
        assert_eq!(ExpansionRatio::R1_5.as_f64(), 1.5);
        assert_eq!(ExpansionRatio::R2_5.as_f64(), 2.5);
    }
}
