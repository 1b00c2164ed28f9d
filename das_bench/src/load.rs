//! Seeded inputs: the random stream, the Zipf key sampler, the ingest
//! arrival schedule, and the `dasgen` corpora. The same seed gives the
//! same inputs on every machine.

use dassa::prelude::*;
use std::path::{Path, PathBuf};

/// First minute of every generated corpus.
pub const START: &str = "170728224510";

/// SplitMix64: small, seedable, and identical everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so two clients of
    /// one run draw different sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of ranks `0..k`.
    #[cfg(test)]
    pub fn mass_below(&self, k: usize) -> f64 {
        match k {
            0 => 0.0,
            k => self.cdf[k.min(self.cdf.len()) - 1],
        }
    }
}

/// Due times (seconds after the paced phase starts) of `n` open-loop
/// arrivals every `interval_s`, each jittered by up to ±`jitter` of the
/// interval. Non-decreasing, and a function of the seed alone.
pub fn arrival_schedule(seed: u64, n: usize, interval_s: f64, jitter: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x5c4e_d01e);
    let mut last = 0.0f64;
    (0..n)
        .map(|i| {
            let j = (rng.unit() * 2.0 - 1.0) * jitter * interval_s;
            last = last.max(i as f64 * interval_s + j).max(0.0);
            last
        })
        .collect()
}

/// Shape of a generated corpus.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub channels: usize,
    pub hz: f64,
    pub minutes: usize,
    pub codec: dasf::Codec,
}

impl Shape {
    /// Raw payload bytes (f32 samples) of the whole corpus.
    pub fn raw_bytes(&self) -> u64 {
        (self.channels * self.samples_per_minute() * self.minutes * 4) as u64
    }

    /// Samples per channel in one minute file.
    pub fn samples_per_minute(&self) -> usize {
        (self.hz * 60.0).round() as usize
    }
}

/// Write `shape` as one-minute files of the `dasgen` demo scene for
/// `seed` into `dir`; returns the paths in time order. The scene is
/// rendered once over the whole acquisition and cut into minutes —
/// the same samples `das_gen` writes minute by minute, without
/// re-advancing each channel's noise stream from the start for every
/// minute.
pub fn generate(dir: &Path, shape: Shape, seed: u64) -> dassa::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let scene = dasgen::Scene::demo(shape.channels, shape.hz, shape.minutes as f64 * 60.0, seed);
    let t0 = Timestamp::parse(START)?;
    let spm = shape.samples_per_minute();
    let all = scene.render(0.0, spm * shape.minutes);
    (0..shape.minutes)
        .map(|m| {
            let ts = t0.add_minutes(m as u64);
            let meta = DasFileMeta {
                sampling_hz: scene.sampling_hz.round() as i64,
                spatial_resolution_m: scene.spatial_resolution_m,
                timestamp: ts,
                channels: scene.channels as u64,
                samples: spm as u64,
            };
            let minute =
                arrayudf::Array2::from_fn(shape.channels, spm, |c, t| all.get(c, m * spm + t));
            let path = dir.join(das_file_name(&ts));
            write_das_file_with_codec(&path, &meta, &minute, None, shape.codec)?;
            Ok(path)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_minutes_match_a_per_minute_render() {
        let dir = std::env::temp_dir().join(format!("das_bench-gen-{}", std::process::id()));
        let shape = Shape {
            channels: 4,
            hz: 10.0,
            minutes: 3,
            codec: dasf::Codec::Raw,
        };
        let paths = generate(&dir, shape, 9).unwrap();
        let scene = dasgen::Scene::demo(4, 10.0, 180.0, 9);
        for (m, p) in paths.iter().enumerate() {
            let f = dasf::File::open(p).unwrap();
            let got = f.read_f32(dassa::dass::DATASET_PATH).unwrap();
            assert_eq!(got, scene.render(m as f64 * 60.0, 600).as_slice());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_per_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
    }

    #[test]
    fn zipf_draws_repeat_per_seed_and_favour_low_ranks() {
        let z = Zipf::new(480, 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..5000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.iter().all(|&k| k < 480));
        let count = |k| a.iter().filter(|&&x| x == k).count();
        assert!(count(0) > count(1) && count(1) > count(10));
        // Observed head mass tracks the analytic one.
        let head = a.iter().filter(|&&x| x < 80).count() as f64 / a.len() as f64;
        assert!((head - z.mass_below(80)).abs() < 0.03, "{head}");
        assert_eq!(z.mass_below(480), 1.0);
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_monotone() {
        let a = arrival_schedule(5, 200, 0.05, 0.2);
        assert_eq!(a, arrival_schedule(5, 200, 0.05, 0.2));
        assert_ne!(a, arrival_schedule(6, 200, 0.05, 0.2));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        for (i, t) in a.iter().enumerate() {
            assert!((t - i as f64 * 0.05).abs() <= 0.2 * 0.05 + 1e-12);
        }
        // Without jitter the schedule is the plain grid.
        assert_eq!(arrival_schedule(5, 3, 0.5, 0.0), vec![0.0, 0.5, 1.0]);
    }
}
