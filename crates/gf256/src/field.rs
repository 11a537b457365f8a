//! The GF(2^8) field element type.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables::{EXP, INV, LOG, MUL};

/// An element of GF(2^8) over the primitive polynomial `0x11D`.
///
/// The wrapped byte is the polynomial representation, so conversions to and
/// from wire bytes are free. Addition and subtraction are both XOR;
/// multiplication and division go through compile-time tables.
///
/// ```
/// use fec_gf256::Gf256;
/// let a = Gf256(0x57);
/// let b = Gf256(0x13);
/// assert_eq!(a + b, Gf256(0x57 ^ 0x13));
/// assert_eq!((a * b) / b, a);
/// assert_eq!(a - a, Gf256::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Returns `alpha^i` (exponent taken modulo 255).
    #[inline]
    pub fn alpha_pow(i: usize) -> Gf256 {
        Gf256(EXP[i % 255])
    }

    /// Returns the discrete logarithm base `alpha`, or `None` for zero.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(LOG[self.0 as usize] as u8)
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero (division by zero is a caller bug, as in integer
    /// arithmetic).
    #[inline]
    pub fn inv(self) -> Gf256 {
        assert!(self.0 != 0, "inverse of zero in GF(2^8)");
        Gf256(INV[self.0 as usize])
    }

    /// True if this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(v: Gf256) -> Self {
        v.0
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // XOR/log-table arithmetic IS the field operation
impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // XOR/log-table arithmetic IS the field operation
impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(MUL[self.0 as usize][rhs.0 as usize])
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // XOR/log-table arithmetic IS the field operation
impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inv()
    }
}

#[allow(clippy::suspicious_op_assign_impl)]
impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

#[allow(clippy::suspicious_op_assign_impl)]
impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn any_gf() -> impl Strategy<Value = Gf256> {
        any::<u8>().prop_map(Gf256)
    }

    fn nonzero_gf() -> impl Strategy<Value = Gf256> {
        (1u8..=255).prop_map(Gf256)
    }

    proptest! {
        #[test]
        fn addition_is_commutative_and_associative(a in any_gf(), b in any_gf(), c in any_gf()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn multiplication_is_commutative_and_associative(a in any_gf(), b in any_gf(), c in any_gf()) {
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributivity(a in any_gf(), b in any_gf(), c in any_gf()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn additive_identity_and_inverse(a in any_gf()) {
            prop_assert_eq!(a + Gf256::ZERO, a);
            prop_assert_eq!(a + a, Gf256::ZERO); // char 2: every element is its own negation
            prop_assert_eq!(-a, a);
        }

        #[test]
        fn multiplicative_identity_and_inverse(a in nonzero_gf()) {
            prop_assert_eq!(a * Gf256::ONE, a);
            prop_assert_eq!(a * a.inv(), Gf256::ONE);
            prop_assert_eq!(a / a, Gf256::ONE);
        }

        #[test]
        fn division_is_inverse_of_multiplication(a in any_gf(), b in nonzero_gf()) {
            prop_assert_eq!((a * b) / b, a);
            prop_assert_eq!((a / b) * b, a);
        }

        #[test]
        fn sub_is_add(a in any_gf(), b in any_gf()) {
            prop_assert_eq!(a - b, a + b);
        }
    }

    #[test]
    fn fermat_little_theorem() {
        for x in 1..=255u8 {
            let x = Gf256(x);
            assert_eq!((0..255).fold(Gf256::ONE, |acc, _| acc * x), Gf256::ONE);
        }
    }

    #[test]
    fn alpha_pow_wraps() {
        assert_eq!(Gf256::alpha_pow(0), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
        // The field generator is alpha = 2.
        assert_eq!(Gf256::alpha_pow(256), Gf256(2));
        assert_eq!(Gf256::alpha_pow(1), Gf256(2));
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inverse_of_zero_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn sum_and_product_folds() {
        let xs = [Gf256(1), Gf256(2), Gf256(3)];
        assert_eq!(xs.iter().copied().sum::<Gf256>(), Gf256(1 ^ 2 ^ 3));
        assert_eq!(
            xs.iter().copied().product::<Gf256>(),
            Gf256(1) * Gf256(2) * Gf256(3)
        );
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Gf256(0xAB)), "ab");
        assert_eq!(format!("{:?}", Gf256(0x0F)), "Gf256(0x0f)");
    }

    #[test]
    fn log_of_zero_is_none() {
        assert_eq!(Gf256::ZERO.log(), None);
        assert_eq!(Gf256::ONE.log(), Some(0));
        assert_eq!(Gf256(2).log(), Some(1));
    }
}
