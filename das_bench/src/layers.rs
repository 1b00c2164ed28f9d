//! Layer accounting: benchmark-side spans around every call into a
//! layer, per-workload deltas of the counters the system already
//! emits, and the self-time table built from the spans.
//!
//! Spans are recorded on a [`Tracer`] the benchmark owns and never
//! installs on a registry, so only the benchmark's own span sites land
//! on the timeline; the program's internal spans stay invisible and
//! cost nothing extra.

use obs::trace::{Phase, TraceEvent};
use obs::{Snapshot, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Span names that wrap a workload's measured loop on one thread. Their
/// self time is the part of the loop no layer span covers.
pub const ROOT: &str = "bench";

/// The benchmark's span recorder: a no-op unless the run is traced.
#[derive(Clone, Default)]
pub struct Spans(Option<Arc<Tracer>>);

/// Open span; closes on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.end(self.name);
        }
    }
}

impl Spans {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Spans {
        // Large rings: a traced phase records a few thousand spans per
        // thread and must not drop any.
        Spans(on.then(|| Arc::new(Tracer::with_capacity(1 << 18))))
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Open span `name` on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let tracer = self.0.as_deref();
        if let Some(t) = tracer {
            t.begin(name);
        }
        SpanGuard { tracer, name }
    }

    /// Run `f` inside span `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = self.span(name);
        f()
    }

    /// Everything recorded so far (empty when off).
    pub fn collect(&self) -> obs::Trace {
        self.0.as_ref().map(|t| t.collect()).unwrap_or_default()
    }
}

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name span statistics of a trace. A span's self time is its
/// duration minus the time its direct children on the same thread
/// cover.
pub fn span_table(trace: &obs::Trace) -> BTreeMap<String, SpanStat> {
    let mut threads: BTreeMap<(u32, u32), Vec<&TraceEvent>> = BTreeMap::new();
    for ev in &trace.events {
        threads.entry((ev.rank, ev.tid)).or_default().push(ev);
    }
    let mut table: BTreeMap<String, SpanStat> = BTreeMap::new();
    for events in threads.values() {
        // (name, start, time covered by children)
        let mut stack: Vec<(&str, u64, u64)> = Vec::new();
        for ev in events {
            match ev.phase {
                Phase::Begin => stack.push((&ev.name, ev.ts_ns, 0)),
                Phase::End => {
                    let Some((name, start, children)) = stack.pop() else {
                        continue;
                    };
                    let dur = ev.ts_ns.saturating_sub(start);
                    let stat = table.entry(name.to_string()).or_default();
                    stat.count += 1;
                    stat.total_ns += dur;
                    stat.self_ns += dur.saturating_sub(children);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                _ => {}
            }
        }
    }
    table
}

/// Render the per-layer table: one row per span with its count, total
/// and self time, the root spans last as `unattributed`.
pub fn render_table(workload: &str, table: &BTreeMap<String, SpanStat>) -> String {
    let mut out = format!(
        "per-layer self time, {workload} (traced run)\n{:<34} {:>8} {:>12} {:>12}\n",
        "layer", "count", "total_ms", "self_ms"
    );
    let rows = table.iter().filter(|(name, _)| *name != ROOT);
    let root = table.get(ROOT).map(|s| ("unattributed", s));
    for (name, s) in rows.map(|(n, s)| (n.as_str(), s)).chain(root) {
        out += &format!(
            "{name:<34} {:>8} {:>12.3} {:>12.3}\n",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    out
}

/// What a registry recorded between two snapshots: counter increments
/// and histogram count/sum increments, by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
}

impl Delta {
    /// `after − before`. Names absent from `before` count from zero.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Delta {
        let counters = after
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(before.counter(k))))
            .filter(|&(_, v)| v > 0)
            .collect();
        let hists = after
            .histograms
            .iter()
            .map(|(k, h)| {
                let (c0, s0) = before.histogram(k).map_or((0, 0), |b| (b.count, b.sum));
                (
                    k.clone(),
                    (h.count.saturating_sub(c0), h.sum.saturating_sub(s0)),
                )
            })
            .filter(|&(_, (c, _))| c > 0)
            .collect();
        Delta { counters, hists }
    }

    /// Add another delta into this one.
    pub fn add(&mut self, other: &Delta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (c, s)) in &other.hists {
            let e = self.hists.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
    }

    /// Counter increment (0 if untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram samples recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.0)
    }

    /// Histogram sum recorded (ns for the `*.ns` / `span.*` families).
    pub fn sum(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.1)
    }

    /// Mean of the recorded samples, from sum/count — never from the
    /// power-of-two bucket quantiles.
    pub fn mean(&self, name: &str) -> f64 {
        crate::stats::ratio(self.sum(name) as f64, self.count(name) as f64)
    }
}

/// Peak resident set since the last [`reset_peak_rss`], in MB (1e6
/// bytes), from `/proc/self/status`. 0 where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Restart the peak-RSS high-water mark at the current RSS, so the
/// peak measured afterwards belongs to the workload and not to corpus
/// generation. Best effort: without it the peak covers the whole run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_holds_only_what_happened_between_snapshots() {
        let reg = Arc::new(obs::Registry::new());
        reg.counter("dasf.open.count").add(3);
        reg.histogram("dasf.open.ns").record(100);
        let before = reg.snapshot();
        reg.counter("dasf.open.count").add(2);
        reg.counter("cache.hit").inc();
        reg.histogram("dasf.open.ns").record(50);
        reg.histogram("dasf.open.ns").record(70);
        let d = Delta::between(&before, &reg.snapshot());
        assert_eq!(d.counter("dasf.open.count"), 2);
        assert_eq!(d.counter("cache.hit"), 1);
        assert_eq!(d.counter("never.touched"), 0);
        assert_eq!((d.count("dasf.open.ns"), d.sum("dasf.open.ns")), (2, 120));
        assert_eq!(d.mean("dasf.open.ns"), 60.0);
        assert_eq!(d.mean("absent.ns"), 0.0);
    }

    #[test]
    fn deltas_of_consecutive_workloads_add_up_and_stay_apart() {
        let reg = Arc::new(obs::Registry::new());
        let s0 = reg.snapshot();
        reg.counter("minimpi.p2p.messages").add(4);
        let s1 = reg.snapshot();
        reg.counter("minimpi.p2p.messages").add(6);
        let s2 = reg.snapshot();
        let (a, b) = (Delta::between(&s0, &s1), Delta::between(&s1, &s2));
        assert_eq!(a.counter("minimpi.p2p.messages"), 4);
        assert_eq!(b.counter("minimpi.p2p.messages"), 6);
        let mut sum = a.clone();
        sum.add(&b);
        assert_eq!(sum, Delta::between(&s0, &s2));
        // A child registry's traffic lands in the parent's delta too.
        let child = obs::Registry::with_parent(Arc::clone(&reg));
        child.counter("cache.miss").inc();
        assert_eq!(
            Delta::between(&s2, &reg.snapshot()).counter("cache.miss"),
            1
        );
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        let ev = |ts_ns, tid, phase, name: &str| TraceEvent {
            ts_ns,
            rank: 0,
            tid,
            phase,
            name: name.to_string(),
            value: 0,
        };
        let trace = obs::Trace {
            events: vec![
                ev(0, 1, Phase::Begin, ROOT),
                ev(10, 1, Phase::Begin, "dass.plan.exec"),
                ev(40, 1, Phase::End, "dass.plan.exec"),
                ev(50, 1, Phase::Begin, "dasa.run"),
                ev(90, 1, Phase::End, "dasa.run"),
                ev(100, 1, Phase::End, ROOT),
                ev(0, 2, Phase::Begin, "dasa.run"),
                ev(5, 2, Phase::End, "dasa.run"),
            ],
            dropped: 0,
        };
        let t = span_table(&trace);
        assert_eq!(
            t[ROOT],
            SpanStat {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t["dasa.run"].count, 2);
        assert_eq!(t["dasa.run"].self_ns, 45);
        assert!(render_table("w", &t).contains("unattributed"));
    }

    #[test]
    fn spans_off_record_nothing() {
        let s = Spans::new(false);
        s.time("dasa.run", || ());
        assert!(s.collect().events.is_empty());
        let s = Spans::new(true);
        s.time("dasa.run", || ());
        assert_eq!(span_table(&s.collect())["dasa.run"].count, 1);
    }
}
