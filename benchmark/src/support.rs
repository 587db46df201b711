//! Small helpers every workload shares: the seeded RNG, order statistics,
//! the pair checksum and the host probes.

use blast_datamodel::entity::ProfileId;

/// SplitMix64: the benchmark's own generator, so the mutation and query
/// streams depend on `--seed` alone and not on any crate the product uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2⁻³² for the sizes
    /// used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from the run seed and a label.
pub fn mix_seed(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle values for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over the canonical pair list: two candidate sets are equal exactly
/// when their lengths and checksums are (up to a 2⁻⁶⁴ collision).
pub fn pair_checksum(pairs: &[(ProfileId, ProfileId)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(a, b) in pairs {
        for byte in a.0.to_le_bytes().into_iter().chain(b.0.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ pairs.len() as u64
}

/// Chains the checksums of a run's inputs into one.
pub fn fold_checksum(so_far: u64, next: u64) -> u64 {
    (so_far.rotate_left(7) ^ next).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Runs the tokenizer alone over `values` and counts the tokens it yields
/// (the `datamodel` layer's probe).
pub fn count_tokens<'a>(
    tokenizer: &blast_datamodel::tokenizer::Tokenizer,
    values: impl Iterator<Item = &'a str>,
) -> u64 {
    let mut tokens = 0u64;
    for value in values {
        tokenizer.for_each_token(value, |t| {
            std::hint::black_box(t);
            tokens += 1;
        });
    }
    tokens
}

/// User + system CPU seconds of this process (all threads) from
/// `/proc/self/stat`, at the 100 Hz tick Linux reports it in.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    blast_metrics::memory::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.95), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10 && r.unit() < 1.0));
    }

    #[test]
    fn checksum_separates_sets() {
        let p = |a, b| (ProfileId(a), ProfileId(b));
        assert_eq!(pair_checksum(&[p(1, 2)]), pair_checksum(&[p(1, 2)]));
        assert_ne!(pair_checksum(&[p(1, 2)]), pair_checksum(&[p(2, 1)]));
        assert_ne!(pair_checksum(&[]), pair_checksum(&[p(0, 0)]));
    }
}
