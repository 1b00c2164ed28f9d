//! The register VM that executes compiled `dasl` programs.
//!
//! The [`dasl`] crate is a pure front end — lexer, typechecker, bytecode
//! compiler — with no I/O and no kernels. This module is its back end:
//! a small register machine whose instructions map one-to-one onto the
//! engine's existing building blocks, so a compiled program and the
//! equivalent hand-wired pipeline run *the same* code:
//!
//! * `load` binds the caller-provided `channel × time` array (the I/O
//!   already happened through the lowered `IoPlan`, same planner and
//!   executor as every other read path);
//! * `apply` runs its fused kernel list over every channel row in one
//!   thread-parallel pass — `detrend | bandpass(..) | resample(..)`
//!   touches each row once, issuing exactly the [`dsp`] calls that
//!   [`preprocess_channel`](super::interferometry::preprocess_channel)
//!   would, so results are bit-identical to the hand-wired pipeline;
//! * `xcorr` / `localsim` / `stack` delegate to the flagship analyses.
//!
//! Each `apply` with `k > 1` kernels bumps the `dasl.fused_stages`
//! counter by `k - 1` — the whole-array passes fusion eliminated — which
//! CI gates on.

use super::haee::Haee;
use super::local_similarity::{local_similarity, LocalSimiParams};
use super::run::{AnalysisOutput, Job};
use super::stacking::{stacked_interferometry, StackingParams};
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasl::{Const, Instr, Kernel, Program};
use dsp::{
    abscorr_complex, butter, detrend, detrend_constant, filtfilt, one_bit, resample, FftPlan,
    FilterBand,
};
use omp::SharedSlice;
use std::borrow::Cow;

/// A [`Program`] bound to the sampling rate of the corpus it will run
/// over — needed to normalize `bandpass` corners (written in Hz) by the
/// Nyquist frequency. Construct one with [`Program::bind`] via the
/// [`BindProgram`] extension, or directly.
#[derive(Debug, Clone, Copy)]
pub struct BoundProgram<'a> {
    /// The compiled program.
    pub program: &'a Program,
    /// Sampling rate of the data, in Hz.
    pub sampling_hz: f64,
}

/// Extension trait adding [`bind`](BindProgram::bind) to
/// [`dasl::Program`].
pub trait BindProgram {
    /// Bind this program to a corpus sampling rate.
    fn bind(&self, sampling_hz: f64) -> BoundProgram<'_>;
}

impl BindProgram for Program {
    fn bind(&self, sampling_hz: f64) -> BoundProgram<'_> {
        BoundProgram {
            program: self,
            sampling_hz,
        }
    }
}

impl Job for BoundProgram<'_> {
    fn name(&self) -> &'static str {
        "dasl"
    }

    fn run(&self, data: &Array2<f64>, haee: &Haee) -> Result<AnalysisOutput> {
        execute(self.program, self.sampling_hz, data, haee)
    }
}

/// A kernel with its compile-once state (filter coefficients) ready for
/// per-row application.
enum PreparedKernel {
    Detrend,
    Demean,
    OneBit,
    Filtfilt { b: Vec<f64>, a: Vec<f64> },
    Resample { p: usize, q: usize },
}

impl PreparedKernel {
    fn apply(&self, x: Vec<f64>) -> Vec<f64> {
        match self {
            PreparedKernel::Detrend => detrend(&x),
            PreparedKernel::Demean => detrend_constant(&x),
            PreparedKernel::OneBit => one_bit(&x),
            PreparedKernel::Filtfilt { b, a } => filtfilt(b, a, &x),
            PreparedKernel::Resample { p, q } => resample(&x, *p, *q),
        }
    }
}

/// Normalize and validate a kernel against the sampling rate: bandpass
/// corners, written in Hz, become fractions of Nyquist; the Butterworth
/// design runs once per `apply`, not once per row.
fn prepare_kernel(k: &Kernel, sampling_hz: f64) -> Result<PreparedKernel> {
    match k {
        Kernel::Detrend => Ok(PreparedKernel::Detrend),
        Kernel::Demean => Ok(PreparedKernel::Demean),
        Kernel::OneBit => Ok(PreparedKernel::OneBit),
        Kernel::Bandpass {
            lo_hz,
            hi_hz,
            order,
        } => {
            let nyquist = sampling_hz / 2.0;
            let (lo, hi) = (lo_hz / nyquist, hi_hz / nyquist);
            if !(lo > 0.0 && lo < hi && hi < 1.0) {
                return Err(DassaError::BadSelection(format!(
                    "bandpass({lo_hz}, {hi_hz}) Hz does not fit inside (0, {nyquist}) Hz \
                     (the corpus Nyquist frequency)"
                )));
            }
            let (b, a) = butter(*order, FilterBand::Bandpass(lo, hi));
            Ok(PreparedKernel::Filtfilt { b, a })
        }
        Kernel::Resample { p, q } => Ok(PreparedKernel::Resample { p: *p, q: *q }),
    }
}

/// One register slot.
#[derive(Debug, Clone)]
enum Value<'a> {
    Wave(Cow<'a, Array2<f64>>),
    Done(AnalysisOutput),
}

impl<'a> Value<'a> {
    fn wave(&self, what: &str) -> Result<&Array2<f64>> {
        match self {
            Value::Wave(w) => Ok(w),
            Value::Done(_) => Err(DassaError::BadSelection(format!(
                "`{what}` expects waveforms (compiler invariant broken)"
            ))),
        }
    }
}

fn const_at<'p>(program: &'p Program, idx: u8, what: &str) -> Result<&'p Const> {
    program
        .consts
        .get(idx as usize)
        .ok_or_else(|| DassaError::BadSelection(format!("{what}: constant c{idx} out of range")))
}

/// Execute a compiled program over a merged `channel × time` array.
///
/// `sampling_hz` must be the corpus' sampling rate (it normalizes
/// `bandpass` corners). The array is whatever the lowered `IoPlan`
/// produced — full extent or the `load` clause's window.
pub fn execute(
    program: &Program,
    sampling_hz: f64,
    data: &Array2<f64>,
    haee: &Haee,
) -> Result<AnalysisOutput> {
    let _root = obs::span("dasl");
    let mut regs: Vec<Option<Value>> = vec![None; program.n_regs as usize];
    let mut result = None;
    for (_, instr) in program.decode() {
        match instr {
            Instr::Load { dst, spec } => {
                // The I/O already happened: the caller lowered the load
                // clause into an IoPlan and ran it. Binding is free.
                let Const::Load(_) = const_at(program, spec, "load")? else {
                    return Err(bad_const("load", spec));
                };
                regs[dst as usize] = Some(Value::Wave(Cow::Borrowed(data)));
            }
            Instr::Apply { dst, src, kernels } => {
                let _span = obs::span("dasl.apply");
                let input = take(&mut regs, src)?;
                let wave = input.wave("apply")?;
                let chain: Vec<Kernel> = kernels
                    .iter()
                    .map(|&k| match const_at(program, k, "apply")? {
                        Const::Kernel(kernel) => Ok(kernel.clone()),
                        _ => Err(bad_const("apply", k)),
                    })
                    .collect::<Result<_>>()?;
                let prepared: Vec<PreparedKernel> = chain
                    .iter()
                    .map(|k| prepare_kernel(k, sampling_hz))
                    .collect::<Result<_>>()?;
                if chain.len() > 1 {
                    obs::global()
                        .counter("dasl.fused_stages")
                        .add(chain.len() as u64 - 1);
                }
                let out = fused_pass(wave, &prepared, &chain, haee)?;
                regs[dst as usize] = Some(Value::Wave(Cow::Owned(out)));
            }
            Instr::Xcorr { dst, src, master } => {
                let _span = obs::span("dasl.xcorr");
                let input = take(&mut regs, src)?;
                let wave = input.wave("xcorr")?;
                let Const::Chan(k) = const_at(program, master, "xcorr")? else {
                    return Err(bad_const("xcorr", master));
                };
                let scores = xcorr(wave, *k as usize, haee)?;
                regs[dst as usize] = Some(Value::Done(AnalysisOutput::Scores(scores)));
            }
            Instr::LocalSim { dst, src, params } => {
                let _span = obs::span("dasl.localsim");
                let input = take(&mut regs, src)?;
                let wave = input.wave("localsim")?;
                let Const::LocalSim(p) = const_at(program, params, "localsim")? else {
                    return Err(bad_const("localsim", params));
                };
                let p = LocalSimiParams {
                    half_window: p.half_window as usize,
                    channel_offset: p.channel_offset as usize,
                    search_half: p.search_half as usize,
                    time_stride: p.time_stride as usize,
                };
                let map = local_similarity(wave, &p, haee);
                regs[dst as usize] = Some(Value::Done(AnalysisOutput::Map(map)));
            }
            Instr::Stack { dst, src, params } => {
                let _span = obs::span("dasl.stack");
                let input = take(&mut regs, src)?;
                let wave = input.wave("stack")?;
                let Const::Stack(p) = const_at(program, params, "stack")? else {
                    return Err(bad_const("stack", params));
                };
                let p = StackingParams {
                    window: p.window as usize,
                    hop: p.hop as usize,
                    master_channel: p.master as usize,
                    ..Default::default()
                };
                let stacks = stacked_interferometry(wave, &p, haee)?;
                regs[dst as usize] = Some(Value::Done(AnalysisOutput::Stacks(stacks)));
            }
            Instr::Ret { src } => {
                result = Some(match take(&mut regs, src)? {
                    Value::Wave(w) => AnalysisOutput::Map(w.into_owned()),
                    Value::Done(out) => out,
                });
            }
        }
    }
    result.ok_or_else(|| DassaError::BadSelection("program has no `ret` instruction".to_string()))
}

fn take<'a>(regs: &mut [Option<Value<'a>>], r: u8) -> Result<Value<'a>> {
    regs.get_mut(r as usize)
        .and_then(Option::take)
        .ok_or_else(|| DassaError::BadSelection(format!("register r{r} read before write")))
}

fn bad_const(what: &str, idx: u8) -> DassaError {
    DassaError::BadSelection(format!("`{what}`: constant c{idx} has the wrong kind"))
}

/// Run the fused kernel chain over every channel row in one
/// thread-parallel pass. The output row length is computed analytically
/// from [`Kernel::out_len`], so the output array is allocated once and
/// rows are written in place.
fn fused_pass(
    wave: &Array2<f64>,
    prepared: &[PreparedKernel],
    kernels: &[Kernel],
    haee: &Haee,
) -> Result<Array2<f64>> {
    let n_in = wave.cols();
    let n_out = kernels.iter().fold(n_in, |n, k| k.out_len(n));
    let rows = wave.rows();
    let flat: SharedSlice<f64> = SharedSlice::zeroed(rows * n_out);
    let first_err: SharedSlice<usize> = SharedSlice::zeroed(1);
    omp::parallel(haee.threads_per_process, |ctx| {
        ctx.for_static(0..rows, |ch| {
            let mut x = wave.row(ch).to_vec();
            for k in prepared {
                x = k.apply(x);
            }
            if x.len() == n_out {
                // SAFETY: static schedule gives each row range to exactly
                // one thread.
                unsafe { flat.write_slice(ch * n_out, &x) };
            } else {
                // SAFETY: last-writer-wins on a diagnostic flag is fine.
                unsafe { first_err.write(0, ch + 1) };
            }
        });
    });
    let bad = unsafe { first_err.read(0) };
    if bad != 0 {
        return Err(DassaError::BadSelection(format!(
            "kernel chain produced an unexpected row length on channel {} \
             (expected {n_out} samples)",
            bad - 1
        )));
    }
    Ok(Array2::from_vec(rows, n_out, flat.into_vec()))
}

/// Per-channel spectral correlation against the master channel — the
/// back half of Algorithm 3, applied to rows that the preceding `apply`
/// already pre-processed.
fn xcorr(wave: &Array2<f64>, master: usize, haee: &Haee) -> Result<Vec<f64>> {
    if master >= wave.rows() {
        return Err(DassaError::BadSelection(format!(
            "master channel {master} out of range for {} channels",
            wave.rows()
        )));
    }
    let plan = FftPlan::new(wave.cols());
    let master_spectrum = plan.fft_real(wave.row(master));
    let out: SharedSlice<f64> = SharedSlice::zeroed(wave.rows());
    omp::parallel(haee.threads_per_process, |ctx| {
        ctx.for_static(0..wave.rows(), |ch| {
            let spectrum = plan.fft_real(wave.row(ch));
            let v = abscorr_complex(&spectrum, &master_spectrum);
            // SAFETY: static schedule gives each channel to one thread.
            unsafe { out.write(ch, v) };
        });
    });
    Ok(out.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dasa::interferometry::{interferometry, InterferometryParams};

    fn signal(channels: usize, n: usize) -> Array2<f64> {
        Array2::from_fn(channels, n, |c, t| {
            ((t as f64 - c as f64 * 2.0) * 0.07).sin() + 0.2 * ((t * 7 + c * 3) % 13) as f64 / 13.0
        })
    }

    /// The tentpole guarantee: a compiled program computes bit-identical
    /// results to the hand-wired interferometry pipeline when the staged
    /// kernels match its parameters.
    #[test]
    fn program_matches_hand_wired_interferometry() {
        let hz = 500.0;
        let data = signal(6, 2000);
        let haee = Haee::builder().threads(2).build();

        // 0.5–24 Hz on 500 Hz data == the hand-wired defaults
        // (0.002, 0.096) of Nyquist; resample(2) == resample_q 2.
        let program = dasl::compile(
            "load(\"corpus\") | detrend | bandpass(0.5, 24) | resample(2) \
             | xcorr(master=ch[0])",
        )
        .unwrap();
        let out = execute(&program, hz, &data, &haee).unwrap();

        let expected = interferometry(&data, &InterferometryParams::default(), &haee).unwrap();
        assert_eq!(out.as_scores().unwrap(), expected.as_slice());
    }

    #[test]
    fn fused_pass_length_matches_kernel_out_len() {
        let data = signal(3, 999);
        let haee = Haee::builder().threads(2).build();
        let program =
            dasl::compile("load(\"c\") | detrend | bandpass(1, 8) | resample(4) | demean").unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        // Waveform-typed result comes back as a map: 999 → ceil(999/4).
        let map = out.as_map().unwrap();
        assert_eq!((map.rows(), map.cols()), (3, 250));
    }

    #[test]
    fn bandpass_outside_nyquist_rejected() {
        let data = signal(2, 200);
        let haee = Haee::builder().threads(1).build();
        let program = dasl::compile("load(\"c\") | bandpass(0.5, 80)").unwrap();
        // 80 Hz corner on 100 Hz data (Nyquist 50) must fail.
        let err = execute(&program, 100.0, &data, &haee).unwrap_err();
        assert!(err.to_string().contains("Nyquist"), "{err}");
    }

    #[test]
    fn localsim_and_stack_delegate_to_the_flagship_analyses() {
        let data = signal(5, 600);
        let haee = Haee::builder().threads(2).build();

        let program = dasl::compile(
            "load(\"c\") | localsim(half_window=4, channel_offset=1, search_half=2, \
             time_stride=8)",
        )
        .unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        let p = LocalSimiParams {
            half_window: 4,
            channel_offset: 1,
            search_half: 2,
            time_stride: 8,
        };
        assert_eq!(out.as_map().unwrap(), &local_similarity(&data, &p, &haee));

        let program = dasl::compile("load(\"c\") | stack(window=128, hop=128)").unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        let p = StackingParams {
            window: 128,
            hop: 128,
            ..Default::default()
        };
        assert_eq!(
            out.as_stacks().unwrap(),
            stacked_interferometry(&data, &p, &haee).unwrap().as_slice()
        );
    }

    #[test]
    fn master_out_of_range_fails_at_runtime() {
        let data = signal(3, 200);
        let haee = Haee::builder().threads(1).build();
        let program = dasl::compile("load(\"c\") | xcorr(master=ch[7])").unwrap();
        assert!(execute(&program, 100.0, &data, &haee).is_err());
    }
}
