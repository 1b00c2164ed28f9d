//! `ingest_live`: the streaming daemon under a backfill burst and then
//! open-loop paced arrivals, and the same files drained as a backlog.
//!
//! `ingest::run` runs in a thread with job `local_similarity`, 1-minute
//! tumbling windows, lateness 0, a 10 ms poll and 2 evaluator threads.
//! One generator thread hard-links pre-written minute files (8 channels
//! × 250 Hz) into the spool: a burst of [`BURST`] files first, then —
//! once the burst's reports are committed — one file every
//! [`INTERVAL_S`] (±20% seeded jitter), under half the daemon's
//! capacity, for the rest of the run. [`FLIPS`] paced files carry a
//! flipped payload byte. A window's detection latency runs from the due
//! time of its file to the moment its report is on disk.
//!
//! The backfill rate comes from `ingest::run_once` (the daemon's drain
//! mode, same configuration) over the same files, placed in a fresh
//! spool at once: windows committed per second of the whole drain. It
//! runs with no benchmark thread polling beside it.
//!
//! Oracle: the live reports are byte-identical to the drain run's, and
//! the daemon quarantined exactly the flipped files.

use crate::layers::{Delta, Spans};
use crate::load::{self, arrival_schedule, Rng, Shape};
use crate::report::Metric;
use crate::stats::{mean, median, ratio, Quantiles};
use crate::{err, Ctx, Phase, Res, Workload};
use dassa::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Channels and rate of every minute file.
const CHANNELS: usize = 8;
const HZ: f64 = 250.0;
/// Files in the opening burst.
pub const BURST: usize = 8;
/// Mean gap between paced arrivals.
pub const INTERVAL_S: f64 = 0.15;
/// Jitter of each paced arrival, as a share of the interval.
const JITTER: f64 = 0.2;
/// Paced files written with a flipped payload byte.
pub const FLIPS: usize = 2;
/// Evaluator threads of the daemon under test.
const THREADS: usize = 2;
/// How often the benchmark's own threads look for progress.
const WATCH: Duration = Duration::from_millis(1);

/// Daemon configuration under test.
fn config(spool: &Path, out: &Path) -> IngestConfig {
    let mut cfg = IngestConfig::new(spool, out);
    cfg.window_minutes = 1;
    cfg.hop_minutes = 0;
    cfg.lateness_minutes = 0;
    cfg.poll = Duration::from_millis(10);
    cfg.threads = THREADS;
    cfg.job = IngestJob::Analysis(Analysis::LocalSimilarity(LocalSimiParams::default()));
    cfg
}

/// Seconds set aside for the burst (about 50 ms per window).
const BURST_S: f64 = 0.5;

/// Paced arrivals that fit `seconds` after the burst.
fn paced_for(seconds: f64) -> usize {
    ((seconds - BURST_S).max(1.0) / INTERVAL_S) as usize
}

/// `window_*.json` reports in `out`, sorted by name, with their bytes.
fn reports(out: &Path) -> Vec<(String, Vec<u8>)> {
    let Ok(entries) = std::fs::read_dir(out) else {
        return Vec::new();
    };
    let mut v: Vec<(String, Vec<u8>)> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_string();
            (name.starts_with("window_") && name.ends_with(".json"))
                .then(|| Some((name, std::fs::read(e.path()).ok()?)))
                .flatten()
        })
        .collect();
    v.sort();
    v
}

/// The report name of window `k` of a stream whose first minute is
/// `base` (1-minute tumbling windows).
fn report_name(k: u64, base: u64) -> String {
    format!(
        "window_{k:06}_{}.json",
        Timestamp::from_epoch_minutes(base + k).to_compact()
    )
}

/// Start the daemon in a scoped thread; the caller sets `stop` and
/// joins it.
fn spawn_daemon<'s>(
    s: &'s std::thread::Scope<'s, '_>,
    cfg: &'s IngestConfig,
    stop: &'s AtomicBool,
    spans: &'s Spans,
) -> std::thread::ScopedJoinHandle<'s, dassa::Result<IngestSummary>> {
    s.spawn(move || spans.time("ingest.run", || dassa::ingest::run(cfg, stop)))
}

#[derive(Default)]
pub struct Ingest {
    work: PathBuf,
    /// Pre-written minute files, in time order.
    files: Vec<PathBuf>,
    /// Indices of the files with a flipped byte.
    flipped: Vec<usize>,
    base_minute: u64,
    seed: u64,
    runs: usize,
}

impl Ingest {
    /// A fresh `(spool, out)` pair under the work directory.
    fn dirs(&mut self, tag: &str) -> Res<(PathBuf, PathBuf)> {
        self.runs += 1;
        let root = self.work.join(format!("{tag}{}", self.runs));
        let spool = root.join("spool");
        std::fs::create_dir_all(&spool).map_err(err("create spool"))?;
        Ok((spool, root.join("out")))
    }

    /// Deliver file `i` into `spool` atomically (a hard link appears
    /// whole, like a rename).
    fn deliver(&self, i: usize, spool: &Path) -> Res<()> {
        let src = &self.files[i];
        let name = src.file_name().expect("generated files have names");
        std::fs::hard_link(src, spool.join(name)).map_err(err("deliver file"))
    }
}

impl Workload for Ingest {
    fn setup_reps(&self) -> usize {
        15
    }

    fn prepare(&mut self, ctx: &Ctx) -> Res<()> {
        self.work = ctx.work.clone();
        self.seed = ctx.seed;
        let shape = Shape {
            channels: CHANNELS,
            hz: HZ,
            minutes: BURST + paced_for(ctx.seconds),
            codec: dasf::Codec::Raw,
        };
        self.files = load::generate(&ctx.work.join("staged"), shape, ctx.seed)
            .map_err(err("generate minutes"))?;
        self.base_minute = Timestamp::parse(load::START)
            .map_err(err("start"))?
            .epoch_minutes();

        // Flip one payload byte in FLIPS paced files, away from the
        // edges of the shortest (half-length) phase.
        let span = paced_for(ctx.seconds / 2.0).saturating_sub(6).max(FLIPS);
        let mut rng = Rng::new(ctx.seed, 0xf1);
        let mut picks: Vec<usize> = (0..span).collect();
        rng.shuffle(&mut picks);
        self.flipped = picks[..FLIPS].iter().map(|k| BURST + 3 + k).collect();
        self.flipped.sort_unstable();
        for &i in &self.flipped {
            let mut bytes = std::fs::read(&self.files[i]).map_err(err("read minute"))?;
            let at = bytes.len() / 2;
            bytes[at] ^= 0x10;
            std::fs::write(&self.files[i], bytes).map_err(err("flip minute"))?;
        }
        Ok(())
    }

    fn setup(&mut self) -> Res<(f64, Vec<(&'static str, f64)>)> {
        let (spool, out) = self.dirs("setup")?;
        self.deliver(0, &spool)?;
        let cfg = config(&spool, &out);
        let stop = AtomicBool::new(false);
        let first = out.join(report_name(0, self.base_minute));
        let spans = Spans::new(false);
        let t = Instant::now();
        let (waited, joined) = std::thread::scope(|s| {
            let daemon = spawn_daemon(s, &cfg, &stop, &spans);
            let deadline = t + Duration::from_secs(30);
            while !first.exists() && Instant::now() < deadline && !daemon.is_finished() {
                std::thread::sleep(Duration::from_micros(500));
            }
            let waited = t.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            (waited, daemon.join())
        });
        joined
            .map_err(|_| "ingest daemon panicked".to_string())?
            .map_err(err("ingest set-up run"))?;
        if !first.exists() {
            return Err("set-up run committed no report".into());
        }
        Ok((waited, Vec::new()))
    }

    fn measure(&mut self, spans: &Spans, seconds: f64) -> Res<Phase> {
        let paced = paced_for(seconds).min(self.files.len() - BURST);
        let n = BURST + paced;
        let schedule = arrival_schedule(self.seed, paced, INTERVAL_S, JITTER);
        let (spool, out) = self.dirs("live")?;
        let cfg = config(&spool, &out);
        let names: Vec<PathBuf> = (0..n as u64)
            .map(|k| out.join(report_name(k, self.base_minute)))
            .collect();

        let stop = AtomicBool::new(false);
        let burst_done = AtomicBool::new(false);
        let g0 = obs::global().snapshot();
        let mut committed: Vec<Option<Instant>> = vec![None; n];
        let t0 = Instant::now();
        let (gen, daemon) = std::thread::scope(|s| {
            let daemon = spawn_daemon(s, &cfg, &stop, spans);
            let gen = s.spawn(|| -> Res<(Vec<Instant>, Vec<f64>)> {
                let _root = spans.span("ingest.generator");
                for i in 0..BURST {
                    spans.time("ingest.deliver", || self.deliver(i, &spool))?;
                }
                while !burst_done.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(WATCH);
                }
                let p0 = Instant::now();
                let mut due = Vec::with_capacity(paced);
                let mut late_ms = Vec::with_capacity(paced);
                for (i, &at) in schedule.iter().enumerate() {
                    let when = p0 + Duration::from_secs_f64(at);
                    if let Some(wait) = when.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late_ms
                        .push(Instant::now().saturating_duration_since(when).as_secs_f64() * 1e3);
                    spans.time("ingest.deliver", || self.deliver(BURST + i, &spool))?;
                    due.push(when);
                }
                Ok((due, late_ms))
            });

            // Watch for committed reports, in window order.
            let deadline = t0 + Duration::from_secs_f64(seconds * 3.0 + 20.0);
            let mut next = 0;
            while next < n && Instant::now() < deadline && !daemon.is_finished() {
                if names[next].exists() {
                    committed[next] = Some(Instant::now());
                    next += 1;
                    if next == BURST {
                        burst_done.store(true, Ordering::Relaxed);
                    }
                    continue;
                }
                std::thread::sleep(WATCH);
            }
            stop.store(true, Ordering::Relaxed);
            let gen = gen
                .join()
                .unwrap_or_else(|_| Err("generator panicked".into()));
            (gen, daemon.join())
        });
        let (due, late_ms) = gen?;
        daemon
            .map_err(|_| "ingest daemon panicked".to_string())?
            .map_err(err("ingest run"))?;
        let mut p = Phase {
            delta: Delta::between(&g0, &obs::global().snapshot()),
            ..Phase::default()
        };

        // Backfill: the same files drained at once; also the oracle.
        let (drain_spool, drain_out) = self.dirs("drain")?;
        for i in 0..n {
            self.deliver(i, &drain_spool)?;
        }
        let t = Instant::now();
        spans
            .time("ingest.run_once", || {
                dassa::ingest::run_once(&config(&drain_spool, &drain_out))
            })
            .map_err(err("drain run"))?;
        let drain_s = t.elapsed().as_secs_f64();
        let want: BTreeMap<String, Vec<u8>> = reports(&drain_out).into_iter().collect();
        let got: BTreeMap<String, Vec<u8>> = reports(&out).into_iter().collect();
        if want.len() != n {
            return Err(format!("drain run emitted {} of {n} windows", want.len()));
        }
        for (k, path) in names.iter().enumerate() {
            let name = path
                .file_name()
                .and_then(|f| f.to_str())
                .unwrap_or_default();
            let ok = committed[k].is_some() && got.get(name) == want.get(name);
            if committed[k].is_some() && !ok {
                p.mismatch(format!("window {k} report differs from the drain run"));
            }
            p.count(ok);
        }
        let flips = self.flipped.iter().filter(|&&i| i < n).count() as u64;
        let quarantined = p.delta.counter("ingest.quarantined");
        if quarantined != flips {
            p.mismatch(format!(
                "quarantined {quarantined} files, {flips} were flipped"
            ));
        }

        p.ops_s = ratio(n as f64, drain_s);
        let detect_ms: Vec<f64> = due
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.flipped.contains(&(BURST + i)))
            .filter_map(|(i, &d)| committed[BURST + i].map(|c| (c - d).as_secs_f64() * 1e3))
            .collect();
        p.op_ms = detect_ms.clone();
        p.per_op = n as f64;
        let q = Quantiles::of(&detect_ms);
        p.detail = vec![
            Metric::new("ingest_minutes_s", "min/s", p.ops_s),
            Metric::new("drain_s", "s", drain_s),
            Metric::new("detect_p50_ms", "ms", q.as_ref().map_or(0.0, |q| q.p50)),
        ];
        if let Some((label, (_, v))) = q.as_ref().and_then(|q| q.tail_label().zip(q.tail)) {
            p.detail
                .push(Metric::new(&format!("detect_{label}_ms"), "ms", v));
        }
        p.detail
            .push(Metric::new("windows", "count", detect_ms.len() as f64));
        p.detail
            .push(Metric::new("gen_late_p50_ms", "ms", median(&late_ms)));

        if spans.on() {
            let d = &p.delta;
            let window_ms = d.mean("ingest.window.ns") / 1e6;
            let l = &mut p.layers;
            l.insert("ingest.window_mean_ms", window_ms);
            l.insert(
                "ingest.verify_per_read",
                ratio(
                    d.counter("dasf.verify.bytes") as f64,
                    d.counter("dasf.read.bytes") as f64,
                ),
            );
            l.insert("ingest.admitted", d.counter("ingest.admitted") as f64);
            l.insert("ingest.quarantined", quarantined as f64);
            l.insert(
                "ingest.windows_emitted",
                d.counter("ingest.windows_emitted") as f64,
            );
            l.insert("ingest.gen_late_ms", mean(&late_ms));
            l.insert(
                "dasa.local_similarity_s",
                d.mean("span.local_similarity") / 1e9,
            );
            l.insert(
                "arrayudf.busy_ratio",
                ratio(
                    d.sum("arrayudf.apply.thread_ns") as f64,
                    THREADS as f64 * d.sum("span.local_similarity.apply") as f64,
                ),
            );
            // Arrival → report time the daemon's own per-window timer
            // (seal → report) does not cover: poll wait, validation,
            // admission.
            p.unattributed_s = Some((mean(&detect_ms) - window_ms) / 1e3);
        }
        Ok(p)
    }
}
