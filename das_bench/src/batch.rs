//! `batch_interferometry`: the paper's Algorithm 3 over a raw corpus.
//!
//! One operation is one batch: `Vca::read_all_f64` → `dasa::run`
//! (interferometry, 2 Haee threads) → dasf write of the scores. The
//! oracle is a 1-thread run of the same code on the same data: every
//! batch must match it bit for bit, and the master channel must
//! correlate with itself at 1.0.

use crate::layers::{Delta, Spans, ROOT};
use crate::load::{self, Shape};
use crate::report::Metric;
use crate::stats::{median, ratio};
use crate::{err, Ctx, Phase, Res, Workload};
use dassa::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

/// 32 channels × 500 Hz × 6 one-minute files, raw: 23 MB.
pub const SHAPE: Shape = Shape {
    channels: 32,
    hz: 500.0,
    minutes: 6,
    codec: dasf::Codec::Raw,
};

/// Haee threads of the measured batch.
const THREADS: usize = 2;

/// How far the master's self-correlation may sit from 1.0 (rounding of
/// `|⟨a,a⟩| / (‖a‖‖a‖)`).
const SELF_CORR_TOL: f64 = 1e-12;

#[derive(Default)]
pub struct Batch {
    dir: PathBuf,
    out: PathBuf,
    vca: Option<Vca>,
    plan: Option<IoPlan>,
    reference: (Vec<u64>, Vec<f64>),
}

fn analysis() -> Analysis {
    Analysis::Interferometry(InterferometryParams::default())
}

/// Bitwise equality of two `f64` slices.
pub fn same_f64(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Batch {
    fn vca(&self) -> &Vca {
        self.vca.as_ref().expect("setup ran")
    }

    /// Time each interferometry pre-processing stage on one channel with
    /// the pipeline's defaults (median of 5, ms).
    fn dsp_probe(x: &[f64]) -> Vec<(&'static str, f64)> {
        use dsp::{butter, detrend, fft_real, filtfilt, resample, FilterBand};
        let p = InterferometryParams::default();
        let time = |f: &dyn Fn()| {
            let v: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&v)
        };
        let detrended = detrend(x);
        let (b, a) = butter(p.filter_order, FilterBand::Bandpass(p.band.0, p.band.1));
        let filtered = filtfilt(&b, &a, &detrended);
        let resampled = resample(&filtered, p.resample_p, p.resample_q);
        vec![
            (
                "dsp.detrend_ms",
                time(&|| drop(std::hint::black_box(detrend(x)))),
            ),
            (
                "dsp.filtfilt_ms",
                time(&|| drop(std::hint::black_box(filtfilt(&b, &a, &detrended)))),
            ),
            (
                "dsp.resample_ms",
                time(&|| {
                    drop(std::hint::black_box(resample(
                        &filtered,
                        p.resample_p,
                        p.resample_q,
                    )))
                }),
            ),
            (
                "dsp.fft_real_ms",
                time(&|| drop(std::hint::black_box(fft_real(&resampled)))),
            ),
        ]
    }
}

impl Workload for Batch {
    fn setup_reps(&self) -> usize {
        31
    }

    fn prepare(&mut self, ctx: &Ctx) -> Res<()> {
        self.dir = ctx.work.join("corpus");
        self.out = ctx.work.join("scores.dasf");
        load::generate(&self.dir, SHAPE, ctx.seed).map_err(err("generate corpus"))?;
        self.setup()?;
        let data = self.vca().read_all_f64().map_err(err("reference read"))?;
        let serial = Haee::builder().threads(1).build();
        let out = dasa::run(&analysis(), &data, &serial).map_err(err("reference run"))?;
        self.reference = out.to_dataset();
        let master = InterferometryParams::default().master_channel;
        let self_corr = self.reference.1[master];
        if (self_corr - 1.0).abs() > SELF_CORR_TOL {
            return Err(format!(
                "reference master self-correlation is {self_corr}, not 1.0"
            ));
        }
        Ok(())
    }

    fn setup(&mut self) -> Res<(f64, Vec<(&'static str, f64)>)> {
        let t = Instant::now();
        let catalog = FileCatalog::scan(&self.dir).map_err(err("scan"))?;
        let t_scan = t.elapsed();
        let vca = Vca::from_entries(catalog.entries()).map_err(err("vca"))?;
        let t_vca = t.elapsed();
        let plan = IoPlan::for_region(&vca, 0..vca.channels(), 0..vca.total_samples())
            .map_err(err("plan"))?;
        let t_plan = t.elapsed();
        self.vca = Some(vca);
        self.plan = Some(plan);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        Ok((
            t_plan.as_secs_f64(),
            vec![
                ("dass.search.scan_ms", ms(t_scan)),
                ("dass.vca.build_ms", ms(t_vca - t_scan)),
                ("dass.plan.build_ms", ms(t_plan - t_vca)),
            ],
        ))
    }

    fn measure(&mut self, spans: &Spans, seconds: f64) -> Res<Phase> {
        let haee = Haee::builder().threads(THREADS).build();
        let analysis = analysis();
        let master = InterferometryParams::default().master_channel;
        let mut p = Phase::default();
        let (mut read_s, mut exec_s) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let before = spans.on().then(|| obs::global().snapshot());
            let t = Instant::now();
            let result = {
                let _root = spans.span(ROOT);
                let r = Instant::now();
                let data = spans.time("dass.vca.read_all_f64", || self.vca().read_all_f64());
                read_s.push(r.elapsed().as_secs_f64());
                data.and_then(|data| {
                    let out = spans.time("dasa.run", || dasa::run(&analysis, &data, &haee))?;
                    let (dims, values) = out.to_dataset();
                    spans.time("dasf.write", || -> dassa::Result<()> {
                        let mut w = dasf::Writer::create(&self.out)?;
                        w.write_dataset_f64("/result", &dims, &values)?;
                        w.finish()?;
                        Ok(())
                    })?;
                    Ok((dims, values, data))
                })
            };
            p.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok((dims, values, data)) => {
                    let same = dims == self.reference.0 && same_f64(&values, &self.reference.1);
                    let self_corr = values.get(master).copied().unwrap_or(f64::NAN);
                    if !same {
                        p.mismatch("2-thread scores differ from the 1-thread run".into());
                    } else if (self_corr - 1.0).abs() > SELF_CORR_TOL {
                        p.mismatch(format!("master self-correlation {self_corr}"));
                    }
                    p.count(same && (self_corr - 1.0).abs() <= SELF_CORR_TOL);
                    if let Some(before) = before {
                        p.delta
                            .add(&Delta::between(&before, &obs::global().snapshot()));
                        // The executor alone on the same plan, untimed by
                        // the batch: read_all_f64 minus this is the
                        // f32 → f64 copy.
                        let e = Instant::now();
                        let plan = self.plan.as_ref().expect("setup ran");
                        IoExecutor::serial()
                            .run(plan)
                            .map_err(err("executor probe"))?;
                        exec_s.push(e.elapsed().as_secs_f64());
                        if exec_s.len() == 1 {
                            p.layers.extend(Self::dsp_probe(data.row(0)));
                        }
                    }
                }
                Err(e) => {
                    eprintln!("batch failed: {e}");
                    p.count(false);
                }
            }
        }
        let n = p.op_ms.len() as f64;
        // Throughput from the median batch, so one slow batch (a stall
        // elsewhere on the machine) does not set the figure.
        p.ops_s = ratio(1e3, median(&p.op_ms));
        p.per_op = n;
        let batch_s = median(&p.op_ms) / 1e3;
        p.detail = vec![
            Metric::new("batch_s", "s", batch_s),
            Metric::new("batches", "count", n),
            Metric::new("corpus_mb", "MB", SHAPE.raw_bytes() as f64 / 1e6),
        ];
        if spans.on() {
            let d = &p.delta;
            let exec = median(&exec_s);
            p.layers.insert("dass.plan.exec_s", exec);
            p.layers
                .insert("dass.vca.convert_s", median(&read_s) - exec);
            p.layers.insert(
                "dasa.prepare_master_s",
                ratio(d.sum("span.interferometry.prepare_master") as f64 / 1e9, n),
            );
            p.layers.insert(
                "dasa.apply_s",
                ratio(d.sum("span.interferometry.apply") as f64 / 1e9, n),
            );
            p.layers.insert(
                "arrayudf.busy_ratio",
                ratio(
                    d.sum("arrayudf.apply.thread_ns") as f64,
                    THREADS as f64 * d.sum("span.interferometry.apply") as f64,
                ),
            );
        }
        Ok(p)
    }
}
