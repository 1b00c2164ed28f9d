//! Fast Fourier transforms driven by reusable per-length plans.
//!
//! `Das_fft` / `Das_ifft` in the paper's Table II. DAS windows are rarely
//! powers of two: a paper minute at 500 Hz is 30000 samples, and
//! Algorithm 3 transforms 90000 = 2⁴·3²·5⁴ samples per channel after
//! resampling. An [`FftPlan`] picks one of three paths for its length:
//!
//! - powers of two: iterative radix-2 Cooley–Tukey;
//! - 2/3/5-smooth lengths: a self-sorting (Stockham) mixed-radix
//!   transform with radix 4, 2, 3 and 5 passes over one table of the n
//!   twiddles `cis(-2πj/n)`, each computed directly;
//! - lengths with a prime factor > 5: Bluestein (chirp-z), with the chirp
//!   and the kernel spectrum computed once in the plan.
//!
//! For even smooth lengths [`FftPlan::fft_real`] packs the real signal
//! into one n/2-point complex transform and unpacks the full spectrum.
//!
//! A plan is immutable and `Sync`: build one per length before a parallel
//! loop and share `&plan` across threads. The free functions [`fft`],
//! [`ifft`], [`fft_real`] and [`ifft_real`] build a plan per call and give
//! the same bits as the plan's methods.

use crate::complex::Complex;
use std::f64::consts::PI;

/// Smallest power of two ≥ `n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place iterative radix-2 Cooley–Tukey. `data.len()` must be a power
/// of two. `inverse` selects the sign of the twiddle exponent; no 1/n
/// scaling is applied here.
fn fft_pow2(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// A transform plan for one length: immutable, `Sync`, and reusable by
/// any number of threads at once.
#[derive(Clone)]
pub struct FftPlan {
    n: usize,
    kind: Kind,
}

#[derive(Clone)]
enum Kind {
    /// `n` is zero or a power of two.
    Pow2,
    /// `n` is 2/3/5-smooth. `factors` multiply to `n`; `half` multiply
    /// to `n/2` and are empty when `n` is odd. `twiddles[j] = cis(-2πj/n)`.
    MixedRadix {
        factors: Vec<usize>,
        half: Vec<usize>,
        twiddles: Vec<Complex>,
    },
    /// `n` has a prime factor > 5. `chirp[k] = cis(-πk²/n)`; `kernel` is
    /// the power-of-two spectrum of the conjugate chirp.
    Bluestein {
        chirp: Vec<Complex>,
        kernel: Vec<Complex>,
    },
}

impl std::fmt::Debug for FftPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let path = match &self.kind {
            Kind::Pow2 => "radix-2".to_string(),
            Kind::MixedRadix { factors, .. } => format!("mixed-radix {factors:?}"),
            Kind::Bluestein { kernel, .. } => format!("bluestein via {}", kernel.len()),
        };
        write!(f, "FftPlan {{ n: {}, path: {path} }}", self.n)
    }
}

/// Radix passes for a 2/3/5-smooth `n` (radix 4 first), or `None` when
/// `n` has a larger prime factor.
fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut factors = Vec::new();
    for p in [4, 2, 3, 5] {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(factors)
}

impl FftPlan {
    /// Plan transforms of length `n`.
    pub fn new(n: usize) -> FftPlan {
        let kind = if n == 0 || n.is_power_of_two() {
            Kind::Pow2
        } else if let Some(factors) = factorize(n) {
            let half = if n.is_multiple_of(2) {
                factorize(n / 2).expect("half of a smooth length is smooth")
            } else {
                Vec::new()
            };
            let twiddles = (0..n)
                .map(|j| Complex::cis(-2.0 * PI * j as f64 / n as f64))
                .collect();
            Kind::MixedRadix {
                factors,
                half,
                twiddles,
            }
        } else {
            bluestein_kind(n)
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the length-0 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn check(&self, len: usize) {
        assert_eq!(
            len, self.n,
            "FftPlan of length {} applied to {len} samples",
            self.n
        );
    }

    /// Forward DFT (unscaled, like MATLAB `fft`).
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn fft(&self, input: &[Complex]) -> Vec<Complex> {
        self.check(input.len());
        match &self.kind {
            Kind::Pow2 => {
                let mut data = input.to_vec();
                if self.n > 0 {
                    fft_pow2(&mut data, false);
                }
                data
            }
            Kind::MixedRadix {
                factors, twiddles, ..
            } => stockham(input.to_vec(), factors, twiddles, 1),
            Kind::Bluestein { chirp, kernel } => bluestein(input, chirp, kernel),
        }
    }

    /// Inverse DFT, scaled by `1/n` (like MATLAB `ifft`).
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn ifft(&self, input: &[Complex]) -> Vec<Complex> {
        self.check(input.len());
        let mut out = match &self.kind {
            Kind::Pow2 => {
                let mut data = input.to_vec();
                if self.n > 0 {
                    fft_pow2(&mut data, true);
                }
                data
            }
            // ifft(x) = conj(fft(conj(x))) / n.
            _ => {
                let conj: Vec<Complex> = input.iter().map(|z| z.conj()).collect();
                let mut out = self.fft(&conj);
                for v in &mut out {
                    *v = v.conj();
                }
                out
            }
        };
        let scale = 1.0 / self.n as f64;
        for v in &mut out {
            *v = v.scale(scale);
        }
        out
    }

    /// Forward DFT of a real signal; returns the full complex spectrum.
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn fft_real(&self, input: &[f64]) -> Vec<Complex> {
        self.check(input.len());
        match &self.kind {
            Kind::MixedRadix { half, twiddles, .. } if self.n.is_multiple_of(2) => {
                real_spectrum(input, half, twiddles)
            }
            _ => {
                let buf: Vec<Complex> = input.iter().map(|&x| Complex::real(x)).collect();
                self.fft(&buf)
            }
        }
    }

    /// Inverse DFT returning only real parts — for spectra known to be
    /// conjugate-symmetric (e.g. produced from real signals).
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn ifft_real(&self, input: &[Complex]) -> Vec<f64> {
        self.ifft(input).into_iter().map(|z| z.re).collect()
    }
}

/// Self-sorting (Stockham) decimation-in-frequency forward transform.
/// `factors` multiply to `x.len()`, and `twiddles` holds
/// `cis(-2πj/(step·x.len()))`, so entry `step·j` is the `j`-th twiddle of
/// this length.
fn stockham(
    mut x: Vec<Complex>,
    factors: &[usize],
    twiddles: &[Complex],
    step: usize,
) -> Vec<Complex> {
    let n = x.len();
    let mut y = vec![Complex::ZERO; n];
    // Pass with radix p turns n/s-point transforms at stride s into
    // m = n/(s·p)-point ones at stride s·p.
    let mut s = 1;
    for &p in factors {
        let m = n / (s * p);
        let tw = Twiddles {
            table: twiddles,
            step: step * s,
        };
        match p {
            2 => pass2(&x, &mut y, s, m, tw),
            3 => pass3(&x, &mut y, s, m, tw),
            4 => pass4(&x, &mut y, s, m, tw),
            5 => pass5(&x, &mut y, s, m, tw),
            _ => unreachable!("radix {p} is not planned"),
        }
        std::mem::swap(&mut x, &mut y);
        s *= p;
    }
    x
}

/// The twiddles of one pass: `at(k)` is `cis(-2πk/len)` for the
/// pass's current transform length `len`.
#[derive(Clone, Copy)]
struct Twiddles<'a> {
    table: &'a [Complex],
    step: usize,
}

impl Twiddles<'_> {
    #[inline]
    fn at(self, k: usize) -> Complex {
        self.table[self.step * k]
    }
}

/// Multiply by `-i`.
#[inline]
fn mul_neg_i(z: Complex) -> Complex {
    Complex::new(z.im, -z.re)
}

/// Split `y[at .. at + P·s]` into `P` output rows of length `s`.
#[inline]
fn rows_mut<const P: usize>(y: &mut [Complex], at: usize, s: usize) -> [&mut [Complex]; P] {
    let mut rest = &mut y[at..at + P * s];
    std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(s);
        rest = tail;
        row
    })
}

/// The `P` input rows of butterfly column `p`: `x[s·(p + r·m) ..][..s]`.
#[inline]
fn rows<const P: usize>(x: &[Complex], p: usize, s: usize, m: usize) -> [&[Complex]; P] {
    std::array::from_fn(|r| &x[s * (p + r * m)..][..s])
}

fn pass2(x: &[Complex], y: &mut [Complex], s: usize, m: usize, tw: Twiddles) {
    for p in 0..m {
        let w1 = tw.at(p);
        let [a0, a1] = rows::<2>(x, p, s, m);
        let [y0, y1] = rows_mut::<2>(y, 2 * s * p, s);
        for q in 0..s {
            let (u, v) = (a0[q], a1[q]);
            y0[q] = u + v;
            y1[q] = (u - v) * w1;
        }
    }
}

fn pass3(x: &[Complex], y: &mut [Complex], s: usize, m: usize, tw: Twiddles) {
    // cis(-2π/3) = -1/2 - i·√3/2.
    let h = 0.75f64.sqrt();
    for p in 0..m {
        let (w1, w2) = (tw.at(p), tw.at(2 * p));
        let [a0, a1, a2] = rows::<3>(x, p, s, m);
        let [y0, y1, y2] = rows_mut::<3>(y, 3 * s * p, s);
        for q in 0..s {
            let (u0, u1, u2) = (a0[q], a1[q], a2[q]);
            let sum = u1 + u2;
            let mid = u0 - sum.scale(0.5);
            let rot = mul_neg_i(u1 - u2).scale(h);
            y0[q] = u0 + sum;
            y1[q] = (mid + rot) * w1;
            y2[q] = (mid - rot) * w2;
        }
    }
}

fn pass4(x: &[Complex], y: &mut [Complex], s: usize, m: usize, tw: Twiddles) {
    for p in 0..m {
        let (w1, w2, w3) = (tw.at(p), tw.at(2 * p), tw.at(3 * p));
        let [a0, a1, a2, a3] = rows::<4>(x, p, s, m);
        let [y0, y1, y2, y3] = rows_mut::<4>(y, 4 * s * p, s);
        for q in 0..s {
            let (u0, u1, u2, u3) = (a0[q], a1[q], a2[q], a3[q]);
            let t0 = u0 + u2;
            let t1 = u0 - u2;
            let t2 = u1 + u3;
            let t3 = mul_neg_i(u1 - u3);
            y0[q] = t0 + t2;
            y1[q] = (t1 + t3) * w1;
            y2[q] = (t0 - t2) * w2;
            y3[q] = (t1 - t3) * w3;
        }
    }
}

fn pass5(x: &[Complex], y: &mut [Complex], s: usize, m: usize, tw: Twiddles) {
    // cis(-2π/5) = c1 - i·s1, cis(-4π/5) = c2 - i·s2.
    let (c1, s1) = ((0.4 * PI).cos(), (0.4 * PI).sin());
    let (c2, s2) = ((0.8 * PI).cos(), (0.8 * PI).sin());
    for p in 0..m {
        let (w1, w2, w3, w4) = (tw.at(p), tw.at(2 * p), tw.at(3 * p), tw.at(4 * p));
        let [a0, a1, a2, a3, a4] = rows::<5>(x, p, s, m);
        let [y0, y1, y2, y3, y4] = rows_mut::<5>(y, 5 * s * p, s);
        for q in 0..s {
            let (u0, u1, u2, u3, u4) = (a0[q], a1[q], a2[q], a3[q], a4[q]);
            let (s14, d14) = (u1 + u4, u1 - u4);
            let (s23, d23) = (u2 + u3, u2 - u3);
            let e1 = u0 + s14.scale(c1) + s23.scale(c2);
            let e2 = u0 + s14.scale(c2) + s23.scale(c1);
            let o1 = mul_neg_i(d14.scale(s1) + d23.scale(s2));
            let o2 = mul_neg_i(d14.scale(s2) - d23.scale(s1));
            y0[q] = u0 + s14 + s23;
            y1[q] = (e1 + o1) * w1;
            y2[q] = (e2 + o2) * w2;
            y3[q] = (e2 - o2) * w3;
            y4[q] = (e1 - o1) * w4;
        }
    }
}

/// Full spectrum of an even-length real signal from one half-length
/// complex transform: pack `z[j] = x[2j] + i·x[2j+1]`, transform, then
/// split `Z` into the spectra of the even and odd samples and combine
/// them with the length-n twiddles.
fn real_spectrum(input: &[f64], half: &[usize], twiddles: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let h = n / 2;
    let packed: Vec<Complex> = input
        .chunks_exact(2)
        .map(|pair| Complex::new(pair[0], pair[1]))
        .collect();
    let z = stockham(packed, half, twiddles, 2);
    let mut out = vec![Complex::ZERO; n];
    let (lo, hi) = out.split_at_mut(h);
    for k in 0..h {
        let a = z[k];
        let b = z[(h - k) % h].conj();
        let even = (a + b).scale(0.5);
        let odd = mul_neg_i(a - b).scale(0.5);
        let w_odd = twiddles[k] * odd;
        lo[k] = even + w_odd;
        hi[k] = even - w_odd;
    }
    out
}

/// Bluestein set-up for length `n`: the chirp and its kernel spectrum.
fn bluestein_kind(n: usize) -> Kind {
    // Chirp: w_k = exp(-iπ k² / n); k² mod 2n in u128 to dodge overflow
    // for huge n.
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            Complex::cis(-PI * k2 as f64 / n as f64)
        })
        .collect();
    let m = next_pow2(2 * n - 1);
    let mut kernel = vec![Complex::ZERO; m];
    kernel[0] = chirp[0].conj();
    for k in 1..n {
        let c = chirp[k].conj();
        kernel[k] = c;
        kernel[m - k] = c;
    }
    fft_pow2(&mut kernel, false);
    Kind::Bluestein { chirp, kernel }
}

/// Bluestein's algorithm: express an arbitrary-length DFT as a
/// convolution with the plan's chirp, evaluated with power-of-two FFTs.
fn bluestein(input: &[Complex], chirp: &[Complex], kernel: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let m = kernel.len();
    let mut a = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = input[k] * chirp[k];
    }
    fft_pow2(&mut a, false);
    for (x, y) in a.iter_mut().zip(kernel) {
        *x *= *y;
    }
    fft_pow2(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| a[k].scale(scale) * chirp[k]).collect()
}

/// Forward DFT of arbitrary length (unscaled, like MATLAB `fft`).
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    FftPlan::new(input.len()).fft(input)
}

/// Inverse DFT of arbitrary length, scaled by `1/n` (like MATLAB `ifft`).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    FftPlan::new(input.len()).ifft(input)
}

/// Forward DFT of a real signal; returns the full complex spectrum.
pub fn fft_real(input: &[f64]) -> Vec<Complex> {
    FftPlan::new(input.len()).fft_real(input)
}

/// Inverse DFT returning only real parts — for spectra known to be
/// conjugate-symmetric (e.g. produced from real signals).
pub fn ifft_real(input: &[Complex]) -> Vec<f64> {
    FftPlan::new(input.len()).ifft_real(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x:?} != {y:?}");
        }
    }

    /// O(n²) reference DFT.
    fn dft_naive(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
                    acc += x * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for n in [1usize, 2, 4, 8, 64] {
            let x = ramp(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [3usize, 5, 6, 7, 12, 30, 100, 243] {
            let x = ramp(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [1usize, 2, 7, 16, 30, 101] {
            let x = ramp(n);
            assert_close(&ifft(&fft(&x)), &x, 1e-9 * n as f64);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 240;
        let x = ramp(n);
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        for bin in fft(&x) {
            assert!((bin - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_hits_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, bin) in spec.iter().enumerate() {
            if k == k0 {
                assert!((bin.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(bin.abs() < 1e-8, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).cos() + 0.3).collect();
        let spec = fft_real(&x);
        let n = spec.len();
        for k in 1..n {
            let d = spec[k] - spec[n - k].conj();
            assert!(d.abs() < 1e-9);
        }
        // ...and ifft_real recovers the signal.
        let back = ifft_real(&spec);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    fn linearity() {
        let n = 21;
        let x = ramp(n);
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.2))
            .collect();
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for k in 0..n {
            assert!((fsum[k] - (fx[k] + fy[k])).abs() < 1e-8);
        }
    }

    /// `x` with a bounded, non-periodic imaginary part.
    fn wiggle(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new(
                    (0.37 * t).sin() + 0.2,
                    (0.11 * t).cos() - 0.05 * (1.7 * t).sin(),
                )
            })
            .collect()
    }

    fn real_wiggle(n: usize) -> Vec<f64> {
        wiggle(n).into_iter().map(|z| z.re + z.im).collect()
    }

    fn complexify(x: &[f64]) -> Vec<Complex> {
        x.iter().map(|&v| Complex::real(v)).collect()
    }

    /// Largest error relative to the largest reference magnitude.
    fn rel_err(got: &[Complex], want: &[Complex]) -> f64 {
        assert_eq!(got.len(), want.len());
        let scale = want
            .iter()
            .map(|z| z.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        let err = got
            .iter()
            .zip(want)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        err / scale
    }

    /// Naive DFT bin `k` with exact-index twiddles.
    fn dft_bin(x: &[Complex], k: usize) -> Complex {
        let n = x.len();
        let mut acc = Complex::ZERO;
        for (j, &v) in x.iter().enumerate() {
            let idx = (k as u128 * j as u128 % n as u128) as f64;
            acc += v * Complex::cis(-2.0 * PI * idx / n as f64);
        }
        acc
    }

    /// The same length forced through the Bluestein path.
    fn bluestein_plan(n: usize) -> FftPlan {
        FftPlan {
            n,
            kind: bluestein_kind(n),
        }
    }

    fn is_smooth(n: usize) -> bool {
        factorize(n).is_some()
    }

    #[test]
    fn mixed_radix_matches_naive_dft_for_every_smooth_length_to_1000() {
        let mut checked = 0;
        for n in (1..=1000).filter(|&n| is_smooth(n)) {
            let x = wiggle(n);
            let table: Vec<Complex> = (0..n)
                .map(|j| Complex::cis(-2.0 * PI * j as f64 / n as f64))
                .collect();
            let naive: Vec<Complex> = (0..n)
                .map(|k| {
                    x.iter()
                        .enumerate()
                        .fold(Complex::ZERO, |acc, (j, &v)| acc + v * table[k * j % n])
                })
                .collect();
            let e = rel_err(&fft(&x), &naive);
            assert!(e < 1e-12, "n = {n}: relative error {e:e}");
            checked += 1;
        }
        assert_eq!(checked, 86, "86 lengths ≤ 1000 are 2/3/5-smooth");
    }

    #[test]
    fn workload_lengths_agree_with_bluestein() {
        for n in [6000usize, 90_000] {
            let plan = FftPlan::new(n);
            assert!(format!("{plan:?}").contains("mixed-radix"), "{plan:?}");
            let reference = bluestein_plan(n);
            let x = wiggle(n);
            let e = rel_err(&plan.fft(&x), &reference.fft(&x));
            assert!(e < 1e-11, "fft n = {n}: relative error {e:e}");
            let r = real_wiggle(n);
            let e = rel_err(&plan.fft_real(&r), &reference.fft(&complexify(&r)));
            assert!(e < 1e-11, "fft_real n = {n}: relative error {e:e}");
            for k in [0, 1, 7, n / 3, n / 2, n - 1] {
                let got = plan.fft(&x)[k];
                let want = dft_bin(&x, k);
                assert!((got - want).abs() < 1e-9 * n as f64, "n = {n}, bin {k}");
            }
        }
    }

    #[test]
    fn lengths_with_large_primes_stay_on_bluestein() {
        for n in [7 * 1009usize, 30011] {
            let plan = FftPlan::new(n);
            assert!(format!("{plan:?}").contains("bluestein"), "{plan:?}");
            let x = wiggle(n);
            let spec = plan.fft(&x);
            for k in [0, 1, 1009, n / 2, n - 1] {
                let want = dft_bin(&x, k);
                assert!(
                    (spec[k] - want).abs() < 1e-9 * n as f64,
                    "n = {n}, bin {k}: {:?} vs {want:?}",
                    spec[k]
                );
            }
            let back = plan.ifft(&spec);
            let e = rel_err(&back, &x);
            assert!(e < 1e-11, "n = {n}: round trip error {e:e}");
        }
    }

    #[test]
    fn smooth_round_trips() {
        for n in [3usize, 6, 10, 45, 480, 6000, 90_000] {
            let plan = FftPlan::new(n);
            let x = wiggle(n);
            let e = rel_err(&plan.ifft(&plan.fft(&x)), &x);
            assert!(e < 1e-13, "n = {n}: relative error {e:e}");
            let r = real_wiggle(n);
            let back = plan.ifft_real(&plan.fft_real(&r));
            let e = rel_err(&complexify(&back), &complexify(&r));
            assert!(e < 1e-13, "real n = {n}: relative error {e:e}");
        }
    }

    #[test]
    fn real_path_matches_complexified_fft() {
        // Even smooth lengths take the half-length path; odd ones and
        // Bluestein lengths transform the complexified input.
        for n in [
            2usize,
            6,
            30,
            90,
            480,
            6000,
            9,
            15,
            45,
            225,
            7 * 1009,
            2 * 7 * 101,
        ] {
            let plan = FftPlan::new(n);
            let r = real_wiggle(n);
            let e = rel_err(&plan.fft_real(&r), &plan.fft(&complexify(&r)));
            assert!(e < 1e-13, "n = {n}: relative error {e:e}");
        }
    }

    #[test]
    fn shared_plan_is_bit_identical_across_threads() {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for n in [4096usize, 6000, 30011] {
            let plan = FftPlan::new(n);
            let inputs: Vec<Vec<f64>> = (0..2)
                .map(|t| {
                    real_wiggle(n + t)
                        .into_iter()
                        .take(n)
                        .map(|v| v * (t + 1) as f64)
                        .collect()
                })
                .collect();
            let from_threads: Vec<(Vec<Complex>, Vec<f64>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .iter()
                    .map(|x| {
                        let plan = &plan;
                        scope.spawn(move || {
                            let spec = plan.fft_real(x);
                            let back = plan.ifft_real(&spec);
                            (spec, back)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (x, (spec, back)) in inputs.iter().zip(&from_threads) {
                let free = fft_real(x);
                assert_eq!(bits(spec), bits(&free), "n = {n}");
                let free_back = ifft_real(&free);
                let same = back
                    .iter()
                    .zip(&free_back)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "n = {n}: ifft_real differs");
            }
        }
    }

    /// FNV-1a digest of `fft_real` at n = 4096, recorded from the
    /// radix-2 transform before mixed-radix plans existed: the
    /// power-of-two path must stay bit-identical.
    #[test]
    fn pow2_fft_real_digest_is_pinned() {
        let x: Vec<f64> = (0..4096)
            .map(|i| {
                let t = i as f64;
                (0.37 * t).sin() + 0.25 * (1.3 * t).cos() + 1e-3 * t
            })
            .collect();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for z in fft_real(&x) {
            for b in
                z.re.to_bits()
                    .to_le_bytes()
                    .into_iter()
                    .chain(z.im.to_bits().to_le_bytes())
            {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x13a7_74bb_7908_ddc6);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
    }
}
