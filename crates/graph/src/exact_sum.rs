//! An exact, order-independent accumulator for `f64` sums.
//!
//! WEP's global threshold is the *mean* edge weight. A plain sequential
//! `f64` sum is order-dependent (floating-point addition does not
//! associate), which ties the threshold to one specific traversal order —
//! fine for a batch pass, fatal for incremental maintenance, where edges
//! enter and leave the sum in stream order. [`ExactSum`] removes the order
//! dependence altogether: every addend is accumulated *exactly* into a
//! wide fixed-point register (a "superaccumulator" covering the full
//! finite `f64` range), and [`ExactSum::round`] returns the correctly
//! rounded (nearest-even) `f64` of the exact total. Because the register
//! arithmetic is integer, addition commutes and associates: the total is
//! bit-identical over any ordering of the same multiset — so the batch
//! [`crate::pruning::Wep`] threshold and the incremental decision stage's
//! Σw, restated from its own edge rows, agree whatever order either reads
//! the weights in.
//!
//! Costs: ~3 limb updates per [`ExactSum::add`], 544 bytes of state, and
//! an O(68-limb) carry pass per [`ExactSum::round`].

/// Base-2³² limbs spanning 2¯¹⁰⁷⁴ … 2⁹⁷¹·2⁵³ plus carry headroom.
const LIMBS: usize = 68;
/// Scale: the register holds `value · 2^BIAS` as an integer.
const BIAS: i32 = 1074;
/// Lazy-carry budget: limbs accumulate raw ±2³² chunks and are
/// re-normalised before an `i64` limb could overflow.
const RENORM_AFTER: u32 = 1 << 30;

/// Exact sum of finite `f64` values (see module docs).
#[derive(Clone)]
pub struct ExactSum {
    limbs: [i64; LIMBS],
    pending: u32,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self {
            limbs: [0; LIMBS],
            pending: 0,
        }
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSum")
            .field("value", &self.round())
            .finish()
    }
}

impl ExactSum {
    /// An empty (zero) accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact sum of an iterator of values.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for v in values {
            s.add(v);
        }
        s
    }

    /// Adds `x` exactly. `x` must be finite.
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "ExactSum over finite values only");
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let negative = bits >> 63 == 1;
        let biased_exp = ((bits >> 52) & 0x7FF) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // value = m · 2^e with m a 53-bit integer.
        let (m, e) = if biased_exp == 0 {
            (frac, -1074)
        } else {
            (frac | (1 << 52), biased_exp - 1075)
        };
        let s = (e + BIAS) as usize; // 0 ..= 2045
        let (limb, shift) = (s / 32, s % 32);
        let wide = (m as u128) << shift; // ≤ 84 bits → 3 limbs
        let chunks = [
            (wide & 0xFFFF_FFFF) as i64,
            ((wide >> 32) & 0xFFFF_FFFF) as i64,
            ((wide >> 64) & 0xFFFF_FFFF) as i64,
        ];
        for (i, c) in chunks.into_iter().enumerate() {
            if negative {
                self.limbs[limb + i] -= c;
            } else {
                self.limbs[limb + i] += c;
            }
        }
        self.pending += 1;
        if self.pending >= RENORM_AFTER {
            normalize(&mut self.limbs);
            self.pending = 0;
        }
    }

    /// The correctly rounded (round-to-nearest, ties-to-even) `f64` of the
    /// exact total. Deterministic in the accumulated multiset alone —
    /// independent of add order and of intermediate states.
    pub fn round(&self) -> f64 {
        let mut l = self.limbs;
        normalize(&mut l);
        let negative = l[LIMBS - 1] < 0;
        if negative {
            for limb in l.iter_mut() {
                *limb = -*limb;
            }
            normalize(&mut l);
        }
        let Some(top) = (0..LIMBS).rev().find(|&i| l[i] != 0) else {
            return 0.0;
        };
        // Absolute index of the most significant bit, in 2^-BIAS units.
        let top_bits = 64 - (l[top] as u64).leading_zeros() as i32;
        let msb = 32 * top as i32 + top_bits - 1;
        let sign = if negative { -1.0 } else { 1.0 };
        if msb <= 52 {
            // < 2^53 in 2^-BIAS units: exactly representable (top ≤ 1).
            let mut n = l[0] as u64;
            if top >= 1 {
                n |= (l[1] as u64) << 32;
            }
            return sign * (n as f64) * f64::from_bits(1); // · 2^-1074, exact
        }
        // Window of the top three limbs: bits [32(top-2), 32·top + top_bits).
        let hi = l[top] as u128;
        let mid = if top >= 1 { l[top - 1] as u128 } else { 0 };
        let lo = if top >= 2 { l[top - 2] as u128 } else { 0 };
        let w = (hi << 64) | (mid << 32) | lo;
        let base = 32 * (top as i32 - 2); // absolute index of window bit 0
        let cut = msb - 52 - base; // window bits below the 53-bit mantissa
        debug_assert!(cut >= 1);
        let mut mant = (w >> cut) as u64;
        let round_bit = (w >> (cut - 1)) & 1 == 1;
        let mut sticky = w & ((1u128 << (cut - 1)) - 1) != 0;
        if !sticky && top >= 3 {
            sticky = l[..top - 2].iter().any(|&x| x != 0);
        }
        let mut msb = msb;
        if round_bit && (sticky || mant & 1 == 1) {
            mant += 1;
            if mant == 1 << 53 {
                mant >>= 1;
                msb += 1;
            }
        }
        // value = mant · 2^(msb-52-BIAS), mant ∈ [2^52, 2^53) → normal.
        let biased_exp = msb - 51; // (msb - 52 - BIAS) + 1023 + 52… = msb - 51
        if biased_exp >= 0x7FF {
            return sign * f64::INFINITY;
        }
        sign * f64::from_bits(((biased_exp as u64) << 52) | (mant & ((1 << 52) - 1)))
    }
}

/// Carry-propagates limbs into canonical form: limbs 0..LIMBS-1 in
/// [0, 2³²), the top limb absorbing the (possibly negative) remainder.
fn normalize(limbs: &mut [i64; LIMBS]) {
    let mut carry = 0i64;
    for limb in limbs.iter_mut().take(LIMBS - 1) {
        let v = *limb + carry;
        let low = v & 0xFFFF_FFFF;
        carry = (v - low) >> 32;
        *limb = low;
    }
    limbs[LIMBS - 1] += carry;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(ExactSum::new().round(), 0.0);
        assert_eq!(ExactSum::new().round().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn small_integers_are_exact() {
        let mut s = ExactSum::new();
        let mut reference = 0i64;
        for v in [3i64, -7, 1 << 40, -(1 << 39), 12345, -3] {
            s.add(v as f64);
            reference += v;
        }
        assert_eq!(s.round(), reference as f64);
    }

    #[test]
    fn add_then_sub_cancels_bitwise() {
        // Subtraction is the addition of the negation.
        let mut s = ExactSum::new();
        for v in [0.1, 1e300, 5e-320, -2.5, 1e-17] {
            s.add(v);
        }
        s.add(42.0);
        for v in [0.1, 1e300, 5e-320, -2.5, 1e-17] {
            s.add(-v);
        }
        assert_eq!(s.round().to_bits(), 42.0f64.to_bits());
    }

    #[test]
    fn order_independent_bitwise() {
        let values = [0.1, 0.2, 0.3, 1e16, -1e16, 7.5e-12, 0.1, 0.7];
        let forward = ExactSum::of(values.iter().copied()).round();
        let backward = ExactSum::of(values.iter().rev().copied()).round();
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn tenth_times_ten() {
        // Σ of ten 0.1s: the exact total is 10 · fl(0.1) =
        // 1.00000000000000005551…, whose correctly rounded double is 1.0 —
        // unlike the naive sequential sum (0.9999999999999999).
        let s = ExactSum::of(std::iter::repeat_n(0.1, 10));
        assert_eq!(s.round().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn cancellation_keeps_tiny_residue() {
        // (1e16 + 1e-3) - 1e16 must recover 1e-3 exactly — a plain f64
        // sequential sum loses it entirely.
        let mut s = ExactSum::new();
        s.add(1e16);
        s.add(1e-3);
        s.add(-1e16);
        assert_eq!(s.round().to_bits(), 1e-3f64.to_bits());
    }

    #[test]
    fn subnormals_round_trip() {
        let tiny = f64::from_bits(3); // 3 · 2^-1074
        let mut s = ExactSum::new();
        s.add(tiny);
        s.add(tiny);
        assert_eq!(s.round().to_bits(), f64::from_bits(6).to_bits());
    }

    /// Reference: values m·2^e with bounded exponents sum exactly in i128
    /// at scale 2^40; `i128 as f64` is correctly rounded, the power-of-two
    /// scale-back is exact.
    fn reference_sum(parts: &[(i32, i8)]) -> f64 {
        let total: i128 = parts
            .iter()
            .map(|&(m, e)| (m as i128) << (e as i32 + 20) as u32)
            .sum();
        (total as f64) * (2.0f64).powi(-60)
    }

    fn value(m: i32, e: i8) -> f64 {
        (m as f64) * (2.0f64).powi(e as i32 - 40)
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Exact accumulation ≡ exact integer arithmetic, bit-for-bit,
            /// including removal of a random subset afterwards.
            #[test]
            fn prop_matches_integer_reference(
                parts in proptest::collection::vec((-1_000_000i32..1_000_000, -20i8..20), 0..60),
                removals in proptest::collection::vec(0u8..2, 0..60),
            ) {
                let mut s = ExactSum::new();
                for &(m, e) in &parts {
                    s.add(value(m, e));
                }
                prop_assert_eq!(s.round().to_bits(), reference_sum(&parts).to_bits());

                // Remove a subset; the survivors' exact sum must match a
                // from-scratch accumulation of just the survivors.
                let mut kept: Vec<(i32, i8)> = Vec::new();
                for (i, &(m, e)) in parts.iter().enumerate() {
                    if removals.get(i).copied().unwrap_or(0) == 1 {
                        s.add(-value(m, e));
                    } else {
                        kept.push((m, e));
                    }
                }
                prop_assert_eq!(s.round().to_bits(), reference_sum(&kept).to_bits());
            }
        }
    }
}
