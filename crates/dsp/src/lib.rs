//! `dsp` — DasLib: the DAS data-analysis kernel library.
//!
//! Section V-A of the DASSA paper introduces **DasLib**, a library of
//! "sequential, thread-safe" signal-processing operations whose names and
//! semantics follow MATLAB's Signal Processing Toolbox (the paper's
//! Table II). This crate is that library, implemented from scratch:
//!
//! | Paper (Table II)              | Here                                   |
//! |-------------------------------|----------------------------------------|
//! | `Das_abscorr(c1, c2)`         | [`abscorr`]                            |
//! | `Das_detrend(X)`              | [`detrend`], [`detrend_constant`]      |
//! | `Das_butter(n, fc)`           | [`butter`] (low/high/band-pass)        |
//! | `Das_filtfilt(c1, c2, X)`     | [`filtfilt`] (zero-phase IIR)          |
//! | `Das_resample(X, p, q)`       | [`resample`] (polyphase-style rational)|
//! | `Das_interp1(X0, Y0, X)`      | [`interp1`] (linear)                   |
//! | `Das_fft(X)` / `Das_ifft(X)`  | [`fft`], [`ifft`], [`fft_real`]        |
//!
//! Everything is a pure function over slices — no global state, no
//! interior mutability — which is exactly the thread-safety contract the
//! paper's hybrid execution engine (HAEE) relies on when it fans a UDF
//! out across OpenMP threads. An [`FftPlan`] is a plain immutable value
//! built by the caller, not a cache: per-channel loops build one before
//! the thread team and share `&plan`.

pub mod butter;
pub mod complex;
pub mod correlate;
pub mod detrend;
pub mod fft;
pub mod filter;
pub mod hilbert;
pub mod interp;
pub mod linalg;
pub mod normalize;
pub mod resample;
pub mod stft;
pub mod welch;
pub mod whiten;
pub mod window;

pub use butter::{butter, FilterBand};
pub use complex::Complex;
pub use correlate::{abscorr, abscorr_complex, xcorr_direct, xcorr_fft, CorrMode};
pub use detrend::{detrend, detrend_constant};
pub use fft::{fft, fft_real, ifft, ifft_real, next_pow2, FftPlan};
pub use filter::{filtfilt, lfilter, lfilter_zi};
pub use hilbert::{analytic, envelope, instantaneous_phase};
pub use interp::interp1;
pub use normalize::{clip_std, one_bit, running_abs_mean};
pub use resample::{decimate, resample};
pub use stft::{spectrogram, Spectrogram};
pub use welch::{band_power, welch_psd};
pub use whiten::whiten;
pub use window::{hamming, hann, kaiser, tukey};
