//! Small formatting helpers so `blast paper` prints tables in the paper's
//! style.

/// Formats a ratio as a percentage with `digits` decimals (e.g. `99.6`).
pub fn fmt_pct(value: f64, digits: usize) -> String {
    format!("{:.*}", digits, value * 100.0)
}

/// Formats a comparison cardinality in the paper's scientific style
/// (`6.7e6` for 6.7·10⁶); exact below 10 000.
pub fn fmt_card(value: u64) -> String {
    if value < 10_000 {
        value.to_string()
    } else {
        let exp = (value as f64).log10().floor() as i32;
        let mantissa = value as f64 / 10f64.powi(exp);
        format!("{mantissa:.1}e{exp}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        assert_eq!(fmt_pct(0.996, 1), "99.6");
        assert_eq!(fmt_pct(0.052, 1), "5.2");
        assert_eq!(fmt_pct(0.00034, 4), "0.0340");
    }

    #[test]
    fn cardinalities() {
        assert_eq!(fmt_card(42), "42");
        assert_eq!(fmt_card(6_700_000), "6.7e6");
        assert_eq!(fmt_card(13_000_000_000), "1.3e10");
    }

    #[test]
    fn boundary_between_exact_and_scientific() {
        assert_eq!(fmt_card(9_999), "9999");
        assert_eq!(fmt_card(10_000), "1.0e4");
    }
}
