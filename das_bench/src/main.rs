//! `das_bench` — one layer-accounted benchmark over the DASSA batch,
//! storage, serve and ingest paths.
//!
//! ```text
//! das_bench --workload <name|all> [--seed <n>=1] [--seconds <s>=10] [--trace <0|1>=0]
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! das_bench/Cargo.toml -- …`). Each workload generates a seeded
//! `dasgen` corpus under `.bench_work/`, sets up several times and
//! reports the median set-up time, measures for `--seconds`, checks
//! every output against an oracle, and prints its metrics table
//! followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` measures half the time untraced and
//! half traced (benchmark-side spans around every layer call), prints
//! the per-layer self-time table, writes the Chrome-format trace to
//! `.bench_out/<workload>.trace.json` (readable by `das_trace`), and
//! reports the per-layer metrics. An oracle mismatch exits with status
//! 1; bad arguments with status 2.

mod batch;
mod ingest;
mod layers;
mod load;
mod report;
mod serve;
mod stats;
mod storage;

use layers::{Delta, SpanStat, Spans};
use report::{Metric, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Errors travel as text: the benchmark reports them and exits.
pub type Res<T> = Result<T, String>;

/// Attach `what` to an error.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The four workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = [
    "batch_interferometry",
    "storage_io",
    "serve_mixed",
    "ingest_live",
];

/// Where a run keeps its corpora (removed on exit) and its outputs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
}

/// One measured phase of a workload.
#[derive(Default)]
pub struct Phase {
    /// Operations attempted and failed (errors, refusals, oracle
    /// mismatches).
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches, and the first few described.
    pub mismatched: u64,
    pub mismatches: Vec<String>,
    /// Latencies of the workload's headline operation, ms.
    pub op_ms: Vec<f64>,
    /// Headline throughput.
    pub ops_s: f64,
    /// The workload's own end-to-end figures.
    pub detail: Vec<Metric>,
    /// Counter deltas over the measured operations.
    pub delta: Delta,
    /// Per-layer metrics only the workload can compute.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations the per-op layer metrics divide by.
    pub per_op: f64,
    /// Unattributed time per operation, when the workload defines it
    /// other than by its root spans.
    pub unattributed_s: Option<f64>,
}

impl Phase {
    /// Record one operation's outcome.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record an oracle mismatch (the operation also counts as failed).
    pub fn mismatch(&mut self, what: String) {
        self.mismatched += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

/// What every workload provides to the shared run loop.
pub trait Workload {
    /// Set-up repetitions per run; the median is reported.
    fn setup_reps(&self) -> usize {
        7
    }
    /// Build the inputs (not timed).
    fn prepare(&mut self, ctx: &Ctx) -> Res<()>;
    /// Set up once; returns the set-up seconds and per-step layer
    /// timings (ms).
    fn setup(&mut self) -> Res<(f64, Vec<(&'static str, f64)>)>;
    /// Measure for `seconds` with `spans` recording (or not).
    fn measure(&mut self, spans: &Spans, seconds: f64) -> Res<Phase>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: das_bench --workload <{}|all> [--seed <n>=1] [--seconds <s>=10] [--trace <0|1>=0]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

fn make(name: &str) -> Box<dyn Workload> {
    match name {
        "batch_interferometry" => Box::new(batch::Batch::default()),
        "storage_io" => Box::new(storage::Storage::default()),
        "serve_mixed" => Box::new(serve::Serve::default()),
        "ingest_live" => Box::new(ingest::Ingest::default()),
        _ => unreachable!("workload names are validated"),
    }
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-layer metrics every workload derives the same way from counter
/// deltas, per operation.
fn common_layers(d: &Delta, per_op: f64, out: &mut BTreeMap<&'static str, f64>) {
    use stats::ratio;
    let per = |v: u64| ratio(v as f64, per_op);
    out.insert("dasf.open.count", per(d.counter("dasf.open.count")));
    out.insert("dasf.open_ms", per(d.sum("dasf.open.ns")) / 1e6);
    out.insert("dasf.verify_s", per(d.sum("dasf.verify.ns")) / 1e9);
    out.insert(
        "dasf.verify_mb_s",
        ratio(
            d.counter("dasf.verify.bytes") as f64 / 1e6,
            d.sum("dasf.verify.ns") as f64 / 1e9,
        ),
    );
    // `dasf.codec.bytes_raw` counts both directions; the write side's
    // share is the payload written through an encoder.
    let encode_ns = d.sum("dasf.codec.encode_ns");
    let encoded = if encode_ns > 0 {
        d.counter("dasf.write.bytes")
    } else {
        0
    };
    let decoded = d.counter("dasf.codec.bytes_raw").saturating_sub(encoded);
    out.insert(
        "dasf.codec.decode_mb_s",
        ratio(
            decoded as f64 / 1e6,
            d.sum("dasf.codec.decode_ns") as f64 / 1e9,
        ),
    );
    out.insert(
        "dasf.codec.encode_mb_s",
        ratio(encoded as f64 / 1e6, encode_ns as f64 / 1e9),
    );
    out.insert("dasf.read.bytes", per(d.counter("dasf.read.bytes")));
    out.insert("dasf.write.bytes", per(d.counter("dasf.write.bytes")));
    let (hit, miss) = (d.counter("pool.hit"), d.counter("pool.miss"));
    out.insert(
        "dasf.pool.hit_ratio",
        ratio(hit as f64, (hit + miss) as f64),
    );
    out.insert("dasf.alloc.bytes", per(d.counter("dasf.alloc.bytes")));
}

/// Run one workload; returns its report and the text printed above the
/// result line.
fn run_workload(name: &str, args: &Args, out_dir: &Path) -> Res<(Report, String)> {
    let work =
        PathBuf::from(".bench_work").join(format!("{name}-s{}-p{}", args.seed, std::process::id()));
    let _cleanup = WorkDir(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let mut w = make(name);
    let t = Instant::now();
    w.prepare(&ctx)?;
    eprintln!("{name}: inputs ready in {:.1} s", t.elapsed().as_secs_f64());

    let mut setups = Vec::new();
    let mut steps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Spaced out, so the median samples the machine over a while rather
    // than one scheduling state.
    for _ in 0..w.setup_reps() {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (s, parts) = w.setup()?;
        setups.push(s);
        for (k, v) in parts {
            steps.entry(k).or_default().push(v);
        }
    }
    let setup_s = stats::median(&setups);

    let mut text = String::new();
    let mut phases = Vec::new();
    let metrics = if !args.trace {
        layers::reset_peak_rss();
        let p = w.measure(&Spans::new(false), args.seconds)?;
        let rss = layers::peak_rss_mb();
        let mut e2e = BTreeMap::new();
        e2e.insert("setup_s", setup_s);
        e2e.insert("ops_s", p.ops_s);
        e2e.insert("op_p50_ms", stats::median(&p.op_ms));
        e2e.insert("peak_rss_mb", rss);
        let mut detail = vec![Metric::new("setup_s", "s", setup_s)];
        detail.extend(p.detail.iter().cloned());
        detail.push(Metric::new("peak_rss_mb", "MB", rss));

        detail.push(Metric::new("ops_total", "count", p.attempted as f64));
        detail.push(Metric::new("ops_failed", "count", p.failed as f64));
        text += &report::render_metrics(&format!("{name}: end-to-end (untraced)"), &detail);
        phases.push(p);
        report::complete(&report::END_TO_END, &e2e)
    } else {
        let half = args.seconds / 2.0;
        let base = w.measure(&Spans::new(false), half)?;
        let spans = Spans::new(true);
        let mut traced = w.measure(&spans, half)?;
        let trace = spans.collect();
        std::fs::create_dir_all(out_dir).map_err(err("create .bench_out"))?;
        let trace_path = out_dir.join(format!("{name}.trace.json"));
        std::fs::write(&trace_path, trace.to_chrome_json()).map_err(err("write trace"))?;
        let table = layers::span_table(&trace);
        text += &layers::render_table(name, &table);
        text += &format!(
            "trace: {} events, {} dropped -> {}\n",
            trace.events.len(),
            trace.dropped,
            trace_path.display()
        );

        let mut values = std::mem::take(&mut traced.layers);
        for (k, v) in &steps {
            values.insert(k, stats::median(v));
        }
        common_layers(&traced.delta, traced.per_op, &mut values);
        let root = table
            .get(layers::ROOT)
            .copied()
            .unwrap_or(SpanStat::default());
        let unattributed = traced
            .unattributed_s
            .unwrap_or(stats::ratio(root.self_ns as f64 / 1e9, traced.per_op));
        values.insert("unattributed_s", unattributed);
        let (b, t) = (stats::median(&base.op_ms), stats::median(&traced.op_ms));
        values.insert("obs.trace_overhead_pct", stats::ratio(t - b, b) * 100.0);
        let metrics = report::complete(&report::PER_LAYER, &values);
        text += &report::render_metrics(&format!("{name}: per-layer (traced)"), &metrics);
        phases.push(base);
        phases.push(traced);
        metrics
    };

    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum();
    let mismatched: u64 = phases.iter().map(|p| p.mismatched).sum();
    for m in phases.iter().flat_map(|p| &p.mismatches) {
        text += &format!("ORACLE MISMATCH ({name}): {m}\n");
    }
    let report = Report {
        workload: name.to_string(),
        seed: args.seed,
        correct: mismatched == 0,
        attempted,
        failed,
        metrics,
    };
    Ok((report, text))
}

fn main() -> ExitCode {
    let args = parse_args();
    let out_dir = PathBuf::from(".bench_out");
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in &names {
        match run_workload(name, &args, &out_dir) {
            Ok((report, text)) => {
                print!("{text}");
                if std::fs::create_dir_all(&out_dir).is_ok() {
                    let _ = std::fs::write(
                        out_dir.join(format!("{name}.report.json")),
                        report.to_json(),
                    );
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("das_bench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // One result line; with `all`, metric names carry the workload.
    let result = if let [one] = reports.as_slice() {
        one.clone()
    } else {
        Report {
            workload: "all".into(),
            seed: args.seed,
            correct: reports.iter().all(|r| r.correct),
            attempted: reports.iter().map(|r| r.attempted).sum(),
            failed: reports.iter().map(|r| r.failed).sum(),
            metrics: reports
                .iter()
                .flat_map(|r| {
                    r.metrics.iter().map(|m| Metric {
                        name: format!("{}.{}", r.workload, m.name),
                        ..m.clone()
                    })
                })
                .collect(),
        }
    };
    println!("{}", result.result_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
