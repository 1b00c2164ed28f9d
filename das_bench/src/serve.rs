//! `serve_mixed`: an in-process `dassd` server under two closed-loop
//! clients.
//!
//! The server runs 2 workers, the default 64 MiB chunk cache and 1 eval
//! thread over an 88 MiB raw corpus (six 15 MiB minute chunks, so four
//! fit). Each client sends `read_region` windows of 16 channels × 3000
//! samples, and every tenth request a windowed eval
//! (`load(…, t=a..a+12, ch=c..c+16) | detrend | xcorr(master=ch[0])`),
//! both drawn Zipf-skewed over windows ordered hottest file first, so
//! the hot set fits the cache and the tail misses. Refusals and errors
//! count as failed operations; nothing is retried.
//!
//! The workload's gated latency (`op_p50_ms`) is the eval median; the
//! read median and tail are printed beside it.
//!
//! Oracle: every read reply equals the same slice read through the
//! benchmark's own `Vca`, and every eval reply equals an in-process
//! compile-and-run of the same program (compared by digest).

use crate::layers::{Delta, Spans, ROOT};
use crate::load::{self, Rng, Shape, Zipf};
use crate::report::Metric;
use crate::stats::{mean, median, ratio, Digest, Quantiles};
use crate::{err, Ctx, Phase, Res, Workload};
use dassa::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// 128 channels × 500 Hz × 6 one-minute files, raw: 92 MB.
pub const SHAPE: Shape = Shape {
    channels: 128,
    hz: 500.0,
    minutes: 6,
    codec: dasf::Codec::Raw,
};

/// Closed-loop clients (one connection each).
const CLIENTS: u64 = 2;
/// One request in `EVAL_EVERY` is an eval (at a seeded phase per
/// client), so every run has the same mix and only the windows vary.
const EVAL_EVERY: usize = 10;
/// Zipf exponent over the window ranks.
const ZIPF_S: f64 = 1.0;
/// Read window: channels × samples.
const READ_CH: u64 = 16;
const READ_T: u64 = 3000;
/// Eval window: channels × seconds.
const EVAL_CH: u64 = 16;
const EVAL_S: u64 = 12;
/// Unmeasured requests per client before timing starts.
const WARMUP: usize = 60;

/// Server configuration under test.
fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        eval_threads: 1,
        ..ServerConfig::default()
    }
}

fn eval_source(ch0: u64, t0_s: u64) -> String {
    format!(
        "load(\"corpus\", t={t0_s}..{}, ch={ch0}..{}) | detrend | xcorr(master=ch[0])",
        t0_s + EVAL_S,
        ch0 + EVAL_CH
    )
}

/// A request a client sent, keyed for the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Read { ch0: u64, t0: u64 },
    Eval { ch0: u64, t0_s: u64 },
}

/// One completed (or failed) request.
struct Sample {
    key: Key,
    ms: f64,
    /// Reply digest, or `None` when the request failed.
    digest: Option<u64>,
}

#[derive(Default)]
pub struct Serve {
    dir: PathBuf,
    seed: u64,
    server: Option<Server>,
    vca: Option<Vca>,
    /// Read windows `(ch0, t0)`, hottest rank first.
    reads: Vec<(u64, u64)>,
    /// Eval windows `(ch0, t0 seconds)`, hottest rank first.
    evals: Vec<(u64, u64)>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

impl Serve {
    /// The oracle's digest for `key`.
    fn expected(&self, key: Key) -> Res<u64> {
        let vca = self.vca.as_ref().expect("prepare ran");
        match key {
            Key::Read { ch0, t0 } => {
                let a = vca
                    .read_region_f32(ch0..ch0 + READ_CH, t0..t0 + READ_T)
                    .map_err(err("oracle read"))?;
                Ok(Digest::of_f32(a.as_slice()))
            }
            Key::Eval { ch0, t0_s } => {
                let program =
                    dasl::compile(&eval_source(ch0, t0_s)).map_err(err("oracle compile"))?;
                let plan =
                    IoPlan::for_load(vca, program.load_spec(), 1).map_err(err("oracle plan"))?;
                let (block, _) = IoExecutor::serial()
                    .run(&plan)
                    .map_err(err("oracle read"))?;
                let wide = block.as_slice().iter().map(|&v| v as f64).collect();
                let data = arrayudf::Array2::from_vec(block.rows(), block.cols(), wide);
                let haee = Haee::builder().threads(config().eval_threads).build();
                let bound = program.bind(vca.sampling_hz() as f64);
                let out = dasa::run(&bound, &data, &haee).map_err(err("oracle eval"))?;
                let (dims, values) = out.to_dataset();
                Ok(Digest::of_dataset(&dims, &values))
            }
        }
    }

    /// One client's closed loop until `deadline` (or for `warmup`
    /// requests when given).
    fn client(
        &self,
        id: u64,
        spans: &Spans,
        deadline: Instant,
        warmup: Option<usize>,
    ) -> Res<(Vec<Sample>, Vec<f64>)> {
        let addr = self.server.as_ref().expect("setup ran").addr();
        let mut client = Client::connect(addr).map_err(err("connect"))?;
        let stream = if warmup.is_some() { 1000 + id } else { id };
        let mut rng = Rng::new(self.seed, stream);
        let eval_phase = rng.below(EVAL_EVERY);
        let zr = Zipf::new(self.reads.len(), ZIPF_S);
        let ze = Zipf::new(self.evals.len(), ZIPF_S);
        let mut samples = Vec::new();
        let mut compile_ms = Vec::new();
        let _root = spans.span(ROOT);
        loop {
            match warmup {
                Some(n) if samples.len() >= n => break,
                None if Instant::now() >= deadline => break,
                _ => {}
            }
            let ms_since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
            let (key, reply, ms) = if samples.len() % EVAL_EVERY == eval_phase {
                let (ch0, t0_s) = self.evals[ze.sample(&mut rng)];
                let src = eval_source(ch0, t0_s);
                if spans.on() {
                    let c = Instant::now();
                    spans
                        .time("dasl.compile", || dasl::compile(&src).map(drop))
                        .map_err(err("compile"))?;
                    compile_ms.push(ms_since(c));
                }
                let t = Instant::now();
                let r = spans.time("dassd.client.eval", || client.eval(&src));
                let ms = ms_since(t);
                let reply = r.map(|(dims, values)| Digest::of_dataset(&dims, &values));
                (Key::Eval { ch0, t0_s }, reply, ms)
            } else {
                let (ch0, t0) = self.reads[zr.sample(&mut rng)];
                let t = Instant::now();
                let r = spans.time("dassd.client.read_region", || {
                    client.read_region(ch0..ch0 + READ_CH, t0..t0 + READ_T)
                });
                let ms = ms_since(t);
                (
                    Key::Read { ch0, t0 },
                    r.map(|a| Digest::of_f32(a.as_slice())),
                    ms,
                )
            };
            let digest = match reply {
                Ok(d) => Some(d),
                Err(e) => {
                    eprintln!("client {id}: {e}");
                    if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
                        client = Client::connect(addr).map_err(err("reconnect"))?;
                    }
                    None
                }
            };
            samples.push(Sample { key, ms, digest });
        }
        Ok((samples, compile_ms))
    }

    /// Run every client until `deadline` (or for a warm-up).
    fn clients(
        &self,
        spans: &Spans,
        deadline: Instant,
        warmup: Option<usize>,
    ) -> Res<(Vec<Sample>, Vec<f64>)> {
        let results: Vec<Res<(Vec<Sample>, Vec<f64>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|id| s.spawn(move || self.client(id, spans, deadline, warmup)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut samples = Vec::new();
        let mut compile = Vec::new();
        for r in results {
            let (s, c) = r?;
            samples.extend(s);
            compile.extend(c);
        }
        Ok((samples, compile))
    }
}

impl Workload for Serve {
    fn setup_reps(&self) -> usize {
        15
    }

    fn prepare(&mut self, ctx: &Ctx) -> Res<()> {
        self.dir = ctx.work.join("corpus");
        self.seed = ctx.seed;
        load::generate(&self.dir, SHAPE, ctx.seed).map_err(err("generate corpus"))?;
        let catalog = FileCatalog::scan(&self.dir).map_err(err("scan"))?;
        self.vca = Some(Vca::from_entries(catalog.entries()).map_err(err("vca"))?);

        // Windows grouped by minute file, files in a seeded order, so
        // the Zipf head lands in the first few files.
        let mut rng = Rng::new(ctx.seed, 0xf11e);
        let mut files: Vec<u64> = (0..SHAPE.minutes as u64).collect();
        rng.shuffle(&mut files);
        let spm = SHAPE.samples_per_minute() as u64;
        let ch_blocks = SHAPE.channels as u64 / READ_CH;
        for &f in &files {
            let mut reads: Vec<(u64, u64)> = (0..ch_blocks)
                .flat_map(|c| (0..spm / READ_T).map(move |t| (c * READ_CH, f * spm + t * READ_T)))
                .collect();
            rng.shuffle(&mut reads);
            self.reads.extend(reads);
            // One eval window per channel block and minute, at a seeded
            // offset, so the oracle recomputes at most 48 distinct evals.
            let mut evals: Vec<(u64, u64)> = (0..SHAPE.channels as u64 / EVAL_CH)
                .map(|c| {
                    (
                        c * EVAL_CH,
                        f * 60 + rng.below((60 / EVAL_S) as usize) as u64 * EVAL_S,
                    )
                })
                .collect();
            rng.shuffle(&mut evals);
            self.evals.extend(evals);
        }
        Ok(())
    }

    fn setup(&mut self) -> Res<(f64, Vec<(&'static str, f64)>)> {
        if let Some(s) = self.server.take() {
            s.stop();
        }
        let t = Instant::now();
        let server = Server::start(&self.dir, config()).map_err(err("server start"))?;
        let mut client = Client::connect(server.addr()).map_err(err("connect"))?;
        client.ping().map_err(err("ping"))?;
        let s = t.elapsed().as_secs_f64();
        self.server = Some(server);
        Ok((s, Vec::new()))
    }

    fn measure(&mut self, spans: &Spans, seconds: f64) -> Res<Phase> {
        // Warm the cache with the same mix, untimed and unchecked.
        self.clients(&Spans::new(false), Instant::now(), Some(WARMUP))?;

        let server_reg = self.server.as_ref().expect("setup ran").registry().clone();
        let (g0, s0) = (obs::global().snapshot(), server_reg.snapshot());
        let t = Instant::now();
        let deadline = t + std::time::Duration::from_secs_f64(seconds);
        let (samples, compile_ms) = self.clients(spans, deadline, None)?;
        let wall = t.elapsed().as_secs_f64();
        let server = Delta::between(&s0, &server_reg.snapshot());
        let mut p = Phase {
            delta: Delta::between(&g0, &obs::global().snapshot()),
            ..Phase::default()
        };

        // Oracle, once per distinct request.
        let mut expected: BTreeMap<Key, u64> = BTreeMap::new();
        let (mut read_ms, mut eval_ms) = (Vec::new(), Vec::new());
        for s in &samples {
            let ok = match s.digest {
                None => false,
                Some(d) => {
                    let want = match expected.get(&s.key) {
                        Some(&w) => w,
                        None => {
                            let w = self.expected(s.key)?;
                            expected.insert(s.key, w);
                            w
                        }
                    };
                    if d != want {
                        p.mismatch(format!(
                            "{:?} reply differs from the in-process oracle",
                            s.key
                        ));
                    }
                    d == want
                }
            };
            p.count(ok);
            if ok {
                match s.key {
                    Key::Read { .. } => read_ms.push(s.ms),
                    Key::Eval { .. } => eval_ms.push(s.ms),
                }
            }
        }
        let completed = (read_ms.len() + eval_ms.len()) as f64;
        p.ops_s = ratio(completed, wall);
        p.per_op = samples.len() as f64;
        let reads = Quantiles::of(&read_ms);
        let evals = Quantiles::of(&eval_ms);
        p.detail = vec![
            Metric::new("serve_req_s", "req/s", p.ops_s),
            Metric::new("read_p50_ms", "ms", reads.as_ref().map_or(0.0, |q| q.p50)),
        ];
        if let Some(q) = &reads {
            if let (Some(label), Some((_, v))) = (q.tail_label(), q.tail) {
                p.detail
                    .push(Metric::new(&format!("read_{label}_ms"), "ms", v));
            }
        }
        p.detail
            .push(Metric::new("reads", "count", read_ms.len() as f64));
        p.detail.push(Metric::new(
            "eval_p50_ms",
            "ms",
            evals.as_ref().map_or(0.0, |q| q.p50),
        ));
        p.detail
            .push(Metric::new("evals", "count", eval_ms.len() as f64));
        // The gated latency is the eval's. A cache-hit read takes about a
        // quarter of a millisecond, mostly thread hand-offs, and its
        // median moved by a third between runs on a shared 2-core host;
        // the read figures stay in the table and the per-layer metrics.
        p.op_ms = eval_ms.clone();

        if spans.on() {
            let (hit, miss) = (server.counter("cache.hit"), server.counter("cache.miss"));
            let l = &mut p.layers;
            l.insert(
                "dassd.cache.hit_ratio",
                ratio(hit as f64, (hit + miss) as f64),
            );
            l.insert(
                "dassd.cache.evict",
                ratio(server.counter("cache.evict") as f64, p.per_op),
            );
            let server_read = server.mean("dassd.read.ns") / 1e6;
            l.insert("dassd.server.read_mean_ms", server_read);
            l.insert("dassd.wire_ms", mean(&read_ms) - server_read);
            l.insert(
                "dassd.server.eval_mean_ms",
                server.mean("dassd.eval.ns") / 1e6,
            );
            l.insert("dasl.compile_ms", median(&compile_ms));
            l.insert(
                "dassd.bytes_served",
                ratio(server.counter("dassd.bytes_served") as f64, p.per_op),
            );
            // Refusals also reached a client as `Busy`: failed samples.
            l.insert("dassd.busy", server.counter("dassd.busy") as f64);
        }
        Ok(p)
    }
}
