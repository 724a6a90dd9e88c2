//! Turn sessions into the named metrics, print them, and print the
//! result line.

use crate::session::Session;
use crate::stats::{self, Coverage, Summary};
use crate::trace::{Call, Span, Tracer};
use crate::workload::{Expected, Workload};

/// Quote a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One named figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind a timing.
    pub samples: Option<usize>,
    /// Sample count and supported tail percentile of a timing, or `n/a`
    /// for a layer off the workload's path; empty otherwise.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
        note: String::new(),
    }
}

fn timing(name: &'static str, s: &Summary, p99: bool) -> Metric {
    let tail = match s.tail_pct {
        Some(p) => format!("p{p}"),
        None => "none".into(),
    };
    Metric {
        name,
        unit: "us",
        value: if p99 { s.p99 } else { s.p50 },
        samples: Some(s.n),
        note: format!("n={} tail={tail}", s.n),
    }
}

fn pooled(sessions: &[&Session], f: impl Fn(&Session) -> &[f64]) -> Vec<f64> {
    sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
}

fn median_of(sessions: &[&Session], f: impl Fn(&Session) -> f64) -> f64 {
    let v: Vec<f64> = sessions.iter().map(|s| f(s)).collect();
    if v.is_empty() {
        return 0.0;
    }
    stats::median(&v)
}

fn summary(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        stats::summarize(&[0.0])
    } else {
        stats::summarize(samples)
    }
}

/// End-to-end figures whose run-to-run spread on a shared 2-vCPU host is
/// wider than any bound the benchmark may set: in the tails a few
/// scheduling or vCPU wake-up delays in ~1500 samples move them by 2x,
/// and on `cm1_processes` the upper half of `deliver_us` moves with the
/// load on the CPU rank 0 and the subscriber share (its median spread
/// 0.3 over five seeds, its lower quartile 0.07). They are reported with
/// the per-layer metrics, from the traced sessions, without a bound.
pub const UNBOUNDED: [&str; 4] = [
    "io_us_p99",
    "complete_us_p99",
    "deliver_us_p50",
    "deliver_us_p99",
];

/// Per-layer figures only `cm1_threads` reaches: the storage engine's
/// stage timings and the server's own frame counts stay inside the
/// dedicated rank in the process world. `BENCHMARK.json` does not list
/// `cm1_threads`, so the result line leaves these out; they are printed
/// and recorded on every run.
pub const CM1_THREADS_ONLY: [&str; 10] = [
    "storage.drain_us",
    "storage.encode_us",
    "storage.append_us",
    "storage.sync_us",
    "storage.syncs_per_iter",
    "storage.worker_busy_frac",
    "storage.scratch_grows",
    "serve.publish_us_mean",
    "serve.publish_us_max",
    "serve.frames_sent",
];

/// The end-to-end metrics, from untraced sessions.
pub fn end_to_end(w: Workload, untraced: &[&Session]) -> Vec<Metric> {
    let io = summary(&pooled(untraced, |s| &s.io_us));
    let complete = summary(&pooled(untraced, |s| &s.complete_us));
    // Without a subscriber, an iteration is delivered when the last
    // consumer (the benchmark's probe) has it.
    let deliver = if w.stores_and_serves() {
        summary(&pooled(untraced, |s| &s.deliver_us))
    } else {
        complete
    };
    vec![
        metric("setup_s", "s", median_of(untraced, |s| s.setup_s)),
        timing("io_us_p50", &io, false),
        timing("io_us_p99", &io, true),
        timing("complete_us_p50", &complete, false),
        timing("complete_us_p99", &complete, true),
        Metric {
            value: deliver.p25,
            ..timing("deliver_us_p25", &deliver, false)
        },
        timing("deliver_us_p50", &deliver, false),
        timing("deliver_us_p99", &deliver, true),
        metric("drain_ms", "ms", median_of(untraced, |s| s.drain_ms)),
        metric("idle_frac", "frac", median_of(untraced, |s| s.idle_frac)),
    ]
}

/// Layer figures read from counters and stats; 0 where the layer is not
/// in the workload's path (see [`not_applicable`]).
const COUNTERS: [(&str, &str); 28] = [
    ("client.skipped_writes", "count"),
    ("shm.peak_mb", "MB"),
    ("shm.alloc_failures", "count"),
    ("shm.class_hit_frac", "frac"),
    ("shm.buddy_hit_frac", "frac"),
    ("shm.buddy_splits", "count"),
    ("shm.buddy_merges", "count"),
    ("server.blocks", "count"),
    ("server.mb", "MB"),
    ("storage.drain_us", "us"),
    ("storage.encode_us", "us"),
    ("storage.append_us", "us"),
    ("storage.sync_us", "us"),
    ("storage.syncs_per_iter", "count"),
    ("storage.worker_busy_frac", "frac"),
    ("storage.scratch_grows", "count"),
    ("storage.compression_factor", "ratio"),
    ("format.verify_read_ms", "ms"),
    ("format.file_mb", "MB"),
    ("serve.publish_us_mean", "us"),
    ("serve.publish_us_max", "us"),
    ("serve.frames_sent", "count"),
    ("serve.frames_recv", "count"),
    ("serve.lag_events", "count"),
    ("serve.frames_dropped", "count"),
    ("serve.recv_mb", "MB"),
    ("mpi.spawn_ms", "ms"),
    ("xmlconf.parse_us", "us"),
];

/// Per-layer metrics a workload's path does not reach (reported as 0).
pub fn not_applicable(w: Workload) -> Vec<&'static str> {
    let mut na = Vec::new();
    if !w.stores_and_serves() {
        na.extend(COUNTERS.iter().map(|c| c.0).filter(|n| {
            ["storage.", "format.", "serve.", "codec."]
                .iter()
                .any(|p| n.starts_with(p))
        }));
        na.push("codec.encode_mb_s");
    }
    if w.processes() {
        // Rank 0's internals are out of the parent's reach.
        na.extend([
            "shm.peak_mb",
            "shm.alloc_failures",
            "shm.class_hit_frac",
            "shm.buddy_hit_frac",
            "shm.buddy_splits",
            "shm.buddy_merges",
            "storage.drain_us",
            "storage.encode_us",
            "storage.append_us",
            "storage.sync_us",
            "storage.syncs_per_iter",
            "storage.worker_busy_frac",
            "storage.scratch_grows",
            "serve.publish_us_mean",
            "serve.publish_us_max",
            "serve.frames_sent",
        ]);
    } else {
        na.extend(["mpi.end_iteration_us_p50", "mpi.spawn_ms"]);
    }
    if w == Workload::AmrEvents {
        na.push("client.write_us_p50");
        na.push("client.write_us_p99");
    } else {
        na.extend([
            "client.alloc_us_p50",
            "client.fill_us_p50",
            "client.commit_us_p50",
        ]);
    }
    na
}

/// Client-side coverage of every traced I/O window.
pub fn coverage(sessions: &[&Session]) -> Coverage {
    let mut c = Coverage::default();
    for s in sessions {
        for spans in &s.spans {
            for (i, io) in spans
                .iter()
                .enumerate()
                .filter(|(_, sp)| sp.call == Call::Io)
            {
                let children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|sp| sp.parent == i as u32)
                    .map(|sp| (sp.start, sp.end))
                    .collect();
                c.add(io.start, io.end, &children);
            }
        }
    }
    c
}

/// The per-layer metrics, from traced sessions (and the untraced ones
/// of the same run for the tracing overhead).
pub fn per_layer(
    w: Workload,
    traced: &[&Session],
    untraced: &[&Session],
    all: &[Session],
    e: &Expected,
) -> Vec<Metric> {
    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|s| s.spans.iter().flatten().copied())
        .collect();
    let of = |call| summary(&Tracer::us_of(&spans, call));
    let io_traced = summary(&pooled(traced, |s| &s.io_us));
    let io_untraced = summary(&pooled(untraced, |s| &s.io_us));
    let end = of(Call::EndIteration);
    let write = of(Call::Write);
    let mut m = vec![
        timing("apps.step_us_p50", &of(Call::Step), false),
        timing("client.write_us_p50", &write, false),
        timing("client.write_us_p99", &write, true),
        timing("client.alloc_us_p50", &of(Call::Alloc), false),
        timing("client.fill_us_p50", &of(Call::Fill), false),
        timing("client.commit_us_p50", &of(Call::Commit), false),
        timing("client.end_iteration_us_p50", &end, false),
        timing("client.end_iteration_us_p99", &end, true),
        metric(
            "mpi.end_iteration_us_p50",
            "us",
            if w.processes() { end.p50 } else { 0.0 },
        ),
        metric("codec.encode_mb_s", "MB/s", e.encode_mb_s),
        metric("trace.overhead_us", "us", io_traced.p50 - io_untraced.p50),
        metric(
            "trace.uncovered_frac",
            "frac",
            coverage(traced).uncovered_frac(),
        ),
        metric(
            "backlog_growth",
            "ratio",
            median_of(&all.iter().collect::<Vec<_>>(), Session::backlog_growth),
        ),
    ];
    for (name, unit) in COUNTERS {
        let value = if name == "xmlconf.parse_us" {
            median_of(traced, |s| s.parse_us)
        } else if name == "client.skipped_writes" {
            traced
                .iter()
                .map(|s| s.layer.get(name).copied().unwrap_or(0.0))
                .sum()
        } else {
            median_of(traced, |s| s.layer.get(name).copied().unwrap_or(0.0))
        };
        m.push(metric(name, unit, value));
    }
    let na = not_applicable(w);
    for x in &mut m {
        if na.contains(&x.name) {
            x.value = 0.0;
            x.samples = None;
            x.note = "n/a".into();
        }
    }
    m
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn metrics_serialise_by_name() {
        let m = [metric("setup_s", "s", 0.5)];
        assert_eq!(metrics_json(&m), r#"{"setup_s":{"value":0.5,"unit":"s"}}"#);
    }
}
