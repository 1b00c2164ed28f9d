//! `storage_io`: the paper's VCA read strategies and the RCA round trip
//! over a `shuffle-lz` corpus.
//!
//! One iteration is four storage operations: a full VCA read through
//! `IoExecutor` at 2 ranks with collective-per-file exchange, the same
//! with the communication-avoiding exchange, `create_rca` (encode, CRC,
//! fsync, rename) and `read_rca`. Every result must be byte-identical
//! to a serial `IoExecutor` read of the same corpus.

use crate::layers::{Delta, Spans, ROOT};
use crate::load::{self, Shape};
use crate::report::Metric;
use crate::stats::{median, ratio};
use crate::{err, Ctx, Phase, Res, Workload};
use arrayudf::Array2;
use dassa::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

/// 32 channels × 500 Hz × 6 one-minute files, `shuffle-lz`: 23 MB raw.
pub const SHAPE: Shape = Shape {
    channels: 32,
    hz: 500.0,
    minutes: 6,
    codec: dasf::Codec::ShuffleLz,
};

/// Ranks of the in-process comm world.
const RANKS: usize = 2;

#[derive(Default)]
pub struct Storage {
    dir: PathBuf,
    rca: PathBuf,
    vca: Option<Vca>,
    plans: Vec<(Exchange, IoPlan)>,
    reference: Option<Array2<f32>>,
}

/// Bitwise equality of two `f32` slices.
fn same_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-operation timings of one phase, seconds.
#[derive(Default)]
struct Times {
    cpf: Vec<f64>,
    ca: Vec<f64>,
    create: Vec<f64>,
    read: Vec<f64>,
}

impl Storage {
    fn vca(&self) -> &Vca {
        self.vca.as_ref().expect("setup ran")
    }

    fn reference(&self) -> &Array2<f32> {
        self.reference.as_ref().expect("prepare ran")
    }

    /// Whether the rank blocks of a distributed read tile the reference.
    fn check_blocks(&self, blocks: &[Array2<f32>]) -> bool {
        let r = self.reference();
        let cols = r.cols();
        blocks.len() == RANKS
            && blocks.iter().enumerate().all(|(rank, b)| {
                let rows = arrayudf::dist::partition(r.rows(), RANKS, rank);
                b.cols() == cols
                    && same_f32(
                        b.as_slice(),
                        &r.as_slice()[rows.start * cols..rows.end * cols],
                    )
            })
    }

    /// One distributed read; returns the rank blocks and the world's
    /// point-to-point traffic.
    fn read(&self, plan: &IoPlan) -> dassa::Result<(Vec<Array2<f32>>, minimpi::StatsSnapshot)> {
        let (results, stats) = minimpi::run_with_stats(RANKS, |comm| {
            IoExecutor::new(comm).run(plan).map(|(block, _)| block)
        });
        Ok((
            results.into_iter().collect::<dassa::Result<Vec<_>>>()?,
            stats,
        ))
    }
}

impl Workload for Storage {
    fn setup_reps(&self) -> usize {
        31
    }

    fn prepare(&mut self, ctx: &Ctx) -> Res<()> {
        self.dir = ctx.work.join("corpus");
        self.rca = ctx.work.join("rca.dasf");
        load::generate(&self.dir, SHAPE, ctx.seed).map_err(err("generate corpus"))?;
        self.setup()?;
        let vca = self.vca();
        let plan = IoPlan::for_region(vca, 0..vca.channels(), 0..vca.total_samples())
            .map_err(err("reference plan"))?;
        let (reference, _) = IoExecutor::serial()
            .run(&plan)
            .map_err(err("reference read"))?;
        self.reference = Some(reference);
        Ok(())
    }

    fn setup(&mut self) -> Res<(f64, Vec<(&'static str, f64)>)> {
        let t = Instant::now();
        let catalog = FileCatalog::scan(&self.dir).map_err(err("scan"))?;
        let t_scan = t.elapsed();
        let vca = Vca::from_entries(catalog.entries()).map_err(err("vca"))?;
        let t_vca = t.elapsed();
        self.plans = [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding]
            .into_iter()
            .map(|s| {
                let plan = IoPlan::for_vca(&vca, s, RANKS);
                (plan.exchange, plan)
            })
            .collect();
        let t_plan = t.elapsed();
        self.vca = Some(vca);
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
        let mut p = Phase::default();
        let mut times = Times::default();
        let mut p2p = [(0u64, 0u64); 2];
        let mut iteration_s = Vec::new();
        let mut codec = Delta::default();
        let raw_mb = SHAPE.raw_bytes() as f64 / 1e6;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let before = obs::global().snapshot();
            let t = Instant::now();
            let root = spans.span(ROOT);
            let mut reads = Vec::new();
            for (i, (exchange, plan)) in self.plans.iter().enumerate() {
                let name = match exchange {
                    Exchange::BcastPerFile => "dass.plan.exec.cpf",
                    _ => "dass.plan.exec.ca",
                };
                let r = Instant::now();
                let result = spans.time(name, || self.read(plan));
                let s = r.elapsed().as_secs_f64();
                match exchange {
                    Exchange::BcastPerFile => times.cpf.push(s),
                    _ => times.ca.push(s),
                }
                if let Ok((_, stats)) = &result {
                    p2p[i].0 += stats.p2p_messages;
                    p2p[i].1 += stats.p2p_bytes;
                }
                reads.push(result);
            }
            let c = Instant::now();
            let created = spans.time("dass.rca.create", || {
                create_rca(self.vca().entries(), &self.rca)
            });
            times.create.push(c.elapsed().as_secs_f64());
            let r = Instant::now();
            let back = spans.time("dass.rca.read", || read_rca(&self.rca));
            times.read.push(r.elapsed().as_secs_f64());
            drop(root);
            iteration_s.push(t.elapsed().as_secs_f64());
            let delta = Delta::between(&before, &obs::global().snapshot());
            codec.add(&delta);
            if spans.on() {
                p.delta.add(&delta);
            }

            for (read, (exchange, _)) in reads.iter().zip(&self.plans) {
                let ok = matches!(read, Ok((blocks, _)) if self.check_blocks(blocks));
                if let Err(e) = read {
                    eprintln!("{exchange:?} read failed: {e}");
                } else if !ok {
                    p.mismatch(format!("{exchange:?} read differs from the serial read"));
                }
                p.count(ok);
            }
            if let Err(e) = &created {
                eprintln!("create_rca failed: {e}");
            }
            p.count(created.is_ok());
            let ok =
                matches!(&back, Ok((_, a)) if same_f32(a.as_slice(), self.reference().as_slice()));
            match &back {
                Err(e) => eprintln!("read_rca failed: {e}"),
                Ok(_) if !ok => p.mismatch("read_rca differs from the serial read".into()),
                Ok(_) => {}
            }
            p.count(ok);
        }
        let iterations = times.ca.len() as f64;
        // Four operations per iteration, at the median iteration time.
        p.ops_s = ratio(4.0, median(&iteration_s));
        p.op_ms = times.ca.iter().map(|s| s * 1e3).collect();
        p.per_op = p.attempted as f64;
        let mb_s = |v: &[f64]| ratio(raw_mb, median(v));
        p.detail = vec![
            Metric::new("read_ca_mb_s", "MB/s", mb_s(&times.ca)),
            Metric::new("read_cpf_mb_s", "MB/s", mb_s(&times.cpf)),
            Metric::new("rca_write_mb_s", "MB/s", mb_s(&times.create)),
            Metric::new("rca_read_mb_s", "MB/s", mb_s(&times.read)),
            Metric::new(
                "stored_ratio",
                "ratio",
                ratio(
                    codec.counter("dasf.codec.bytes_stored") as f64,
                    codec.counter("dasf.codec.bytes_raw") as f64,
                ),
            ),
            Metric::new("iterations", "count", iterations),
            Metric::new("corpus_mb", "MB", raw_mb),
        ];
        if spans.on() {
            let reads: Vec<f64> = times.ca.iter().chain(&times.cpf).copied().collect();
            p.layers.insert("dass.plan.exec_s", median(&reads));
            p.layers.insert("dass.rca.create_s", median(&times.create));
            let per_read = |v: u64| ratio(v as f64, iterations);
            p.layers
                .insert("minimpi.p2p.messages.cpf", per_read(p2p[0].0));
            p.layers.insert("minimpi.p2p.bytes.cpf", per_read(p2p[0].1));
            p.layers
                .insert("minimpi.p2p.messages.ca", per_read(p2p[1].0));
            p.layers.insert("minimpi.p2p.bytes.ca", per_read(p2p[1].1));
        }
        Ok(p)
    }
}
