//! Sample statistics: the quantile rule every latency in the benchmark
//! follows, plus the digest used to compare outputs with their oracles.

/// Percentiles tried for the tail, highest first, in tenths of a
/// percent (integers, so ranks are exact).
const TAIL_LADDER: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and tail of one latency sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest percentile of [`TAIL_LADDER`] that leaves at least
    /// [`MIN_BEYOND`] samples beyond it, with its value; `None` when the
    /// set is too small for any.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile of non-empty sorted `v` at `tenths`/10
/// percent (1-based rank `ceil(tenths · n / 1000)`), with the number of
/// samples beyond it.
fn nearest_rank(sorted: &[f64], tenths: u64) -> (f64, usize) {
    let n = sorted.len();
    let rank = usize::try_from((tenths * n as u64).div_ceil(1000))
        .expect("rank fits the sample count")
        .clamp(1, n);
    (sorted[rank - 1], n - rank)
}

impl Quantiles {
    /// Median plus the highest percentile with at least ten samples
    /// beyond it. `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Quantiles> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (p50, _) = nearest_rank(&sorted, 500);
        let tail = TAIL_LADDER.iter().find_map(|&tenths| {
            let (v, beyond) = nearest_rank(&sorted, tenths);
            (beyond >= MIN_BEYOND).then_some((tenths as f64 / 10.0, v))
        });
        Some(Quantiles {
            n: sorted.len(),
            p50,
            tail,
        })
    }

    /// `p99`, `p99.9`, `p90`… — the tail percentile as a metric suffix.
    pub fn tail_label(&self) -> Option<String> {
        self.tail.map(|(pct, _)| format!("p{pct}"))
    }
}

/// Nearest-rank median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    Quantiles::of(samples).map_or(0.0, |q| q.p50)
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a stream of little-endian words: the digest the chaos
/// suite and the ingest reports use, so a reply can be compared with
/// its oracle without keeping the reply.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Digest of `f32` samples by bit pattern.
    pub fn of_f32(values: &[f32]) -> u64 {
        let mut d = Digest::default();
        for v in values {
            d.eat(&v.to_bits().to_le_bytes());
        }
        d.0
    }

    /// Digest of a `(dims, f64 values)` dataset by bit pattern.
    pub fn of_dataset(dims: &[u64], values: &[f64]) -> u64 {
        let mut d = Digest::default();
        for x in dims {
            d.eat(&x.to_le_bytes());
        }
        for v in values {
            d.eat(&v.to_bits().to_le_bytes());
        }
        d.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn empty_set_has_no_quantiles() {
        assert_eq!(Quantiles::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn single_sample_is_its_own_median_without_tail() {
        let q = Quantiles::of(&[4.0]).unwrap();
        assert_eq!((q.n, q.p50, q.tail), (1, 4.0, None));
    }

    #[test]
    fn median_is_nearest_rank_and_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: rank ceil(n/2) is the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 39 samples: p75 is rank 30, leaving 9 beyond — not enough,
        // and the median is never reported as a tail.
        assert_eq!(Quantiles::of(&ramp(39)).unwrap().tail, None);
        // 40 samples: p75 leaves exactly 10 beyond.
        assert_eq!(Quantiles::of(&ramp(40)).unwrap().tail, Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90, 10 beyond; p95 would leave 5.
        assert_eq!(Quantiles::of(&ramp(100)).unwrap().tail, Some((90.0, 90.0)));
    }

    #[test]
    fn thousand_samples_reach_p99_and_ten_thousand_p999() {
        let q = Quantiles::of(&ramp(1000)).unwrap();
        assert_eq!(q.tail, Some((99.0, 990.0)));
        assert_eq!(q.tail_label().as_deref(), Some("p99"));
        // 999 samples: p99 is rank 990, only 9 beyond; falls to p95.
        assert_eq!(Quantiles::of(&ramp(999)).unwrap().tail, Some((95.0, 950.0)));
        let q = Quantiles::of(&ramp(10_000)).unwrap();
        assert_eq!(q.tail_label().as_deref(), Some("p99.9"));
    }

    #[test]
    fn digest_separates_bit_patterns() {
        assert_ne!(Digest::of_f32(&[0.0]), Digest::of_f32(&[-0.0]));
        assert_eq!(Digest::of_f32(&[1.5, 2.5]), Digest::of_f32(&[1.5, 2.5]));
        assert_ne!(
            Digest::of_dataset(&[2], &[1.0, 2.0]),
            Digest::of_dataset(&[1, 2], &[1.0, 2.0])
        );
    }
}
