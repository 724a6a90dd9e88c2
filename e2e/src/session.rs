//! One session: parse the configuration, stand the world up, run the
//! clients, shut down, then check everything the world produced.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use damaris::core::prelude::*;
use damaris::serve::{Subscriber, SubscriberEvent};

use crate::client::{self, ClientOut};
use crate::host::{mono_ns, process_cpu_ns};
use crate::trace::{Call, Span, Tracer, NO_PARENT};
use crate::workload::{self, AmrInput, Expected, Params};

/// How long any rendezvous of a session may take before it counts as
/// failed.
const RENDEZVOUS: Duration = Duration::from_secs(60);

/// Everything one session measured and checked.
#[derive(Debug, Default)]
pub struct Session {
    /// Whether clients and subscriber recorded spans.
    pub traced: bool,
    /// Config parse to world ready (warm-up iteration 0 delivered).
    pub setup_s: f64,
    /// Last `finalize` entry to shutdown returning.
    pub drain_ms: f64,
    /// `Configuration::from_str`, µs.
    pub parse_us: f64,
    /// Per client-iteration I/O window, µs.
    pub io_us: Vec<f64>,
    /// Per iteration, last `end_iteration` entry to the benchmark's last
    /// consumer being called, µs (iteration order).
    pub complete_us: Vec<f64>,
    /// Per iteration, same anchor to the subscriber's `IterationEnd`, µs.
    pub deliver_us: Vec<f64>,
    /// Dedicated-core idle fraction.
    pub idle_frac: f64,
    /// Client-iterations attempted (warm-up included).
    pub attempted: u64,
    /// Client-iterations that failed a check.
    pub failed: u64,
    /// What failed, for the record.
    pub problems: Vec<String>,
    /// Spans per thread: each client, then the subscriber.
    pub spans: Vec<Vec<Span>>,
    /// Per-layer figures of this session.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Session {
    /// Median complete latency of the last quarter of iterations over
    /// that of the first quarter.
    pub fn backlog_growth(&self) -> f64 {
        let q = self.complete_us.len() / 4;
        if q == 0 {
            return 1.0;
        }
        let n = self.complete_us.len();
        crate::stats::median(&self.complete_us[n - q..])
            / crate::stats::median(&self.complete_us[..q])
    }
}

/// Tracks failed client-iterations of one session.
struct Failures {
    clients: usize,
    iterations: u64,
    bad: BTreeSet<(usize, u64)>,
    problems: Vec<String>,
}

impl Failures {
    fn new(clients: usize, iterations: u64) -> Self {
        Failures {
            clients,
            iterations,
            bad: BTreeSet::new(),
            problems: Vec::new(),
        }
    }

    /// An iteration failed for every client.
    fn iteration(&mut self, it: u64) {
        for c in 0..self.clients {
            self.bad.insert((c, it));
        }
    }

    /// A check that cannot be pinned to iterations failed: the whole
    /// session counts as failed.
    fn all(&mut self, why: String) {
        for it in 0..=self.iterations {
            self.iteration(it);
        }
        self.problems.push(why);
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.all(why());
        }
    }

    fn finish(self, s: &mut Session) {
        s.attempted = self.clients as u64 * (self.iterations + 1);
        s.failed = self.bad.len() as u64;
        s.problems = self.problems;
    }
}

/// The thread-world consumer the benchmark registers last: stamps each
/// iteration's completion and digests its blocks.
#[derive(Default)]
struct Probe {
    log: Mutex<Vec<(u64, u64)>>,
    digest: AtomicU64,
    completed: AtomicU64,
}

impl Plugin for Probe {
    fn name(&self) -> &str {
        "e2e-probe"
    }

    fn on_iteration(&self, ctx: &damaris::core::plugins::IterationCtx<'_>) -> Result<(), String> {
        let t = mono_ns();
        let sum = ctx.blocks.iter().fold(0u64, |acc, b| {
            acc.wrapping_add(workload::keyed(
                b.variable.index(),
                b.iteration,
                b.source as u64,
                workload::fast_hash(b.data.as_slice()),
            ))
        });
        self.digest.fetch_add(sum, Ordering::Relaxed);
        self.log
            .lock()
            .map_err(|_| "probe log poisoned".to_string())?
            .push((ctx.iteration, t));
        self.completed.fetch_add(1, Ordering::Release);
        Ok(())
    }
}

/// The process-world consumer the benchmark registers last (it runs in
/// the dedicated rank): stamps each completion with the wall and the
/// process CPU clocks, and leaves the log in the temp dir when dropped.
#[derive(Default)]
struct ProbeSink {
    log: Vec<u64>,
}

fn probe_sink_path() -> PathBuf {
    std::env::temp_dir().join("e2e-probe.bin")
}

impl ProcessSink for ProbeSink {
    fn on_block(&mut self, _var: VarId, _iteration: u64, _source: usize, _data: &[u8]) {}

    fn on_iteration_complete(&mut self, iteration: u64) {
        self.log.extend([iteration, mono_ns(), process_cpu_ns()]);
    }
}

impl Drop for ProbeSink {
    fn drop(&mut self) {
        let bytes: Vec<u8> = self.log.iter().flat_map(|w| w.to_le_bytes()).collect();
        // A lost log shows up as missing completions in the parent.
        let _ = std::fs::write(probe_sink_path(), bytes);
    }
}

/// What the subscriber saw.
#[derive(Default)]
struct SubOut {
    /// `(iteration, mono_ns)` of every `IterationEnd`.
    ends: Vec<(u64, u64)>,
    digest: u64,
    recv_bytes: u64,
    /// DATA frames received.
    data_frames: u64,
    lag_events: u64,
    dropped: u64,
    bye: bool,
    error: Option<String>,
    spans: Vec<Span>,
}

/// Subscribe to every variable and read until BYE; `on_first_end` runs
/// when the first `IterationEnd` proves the subscription live.
fn subscribe(addr: std::net::SocketAddr, traced: bool, on_first_end: &mut dyn FnMut()) -> SubOut {
    let mut out = SubOut::default();
    let mut t = Tracer::new(traced);
    let mut sub = match Subscriber::connect(addr).and_then(|mut s| s.subscribe(&[]).map(|_| s)) {
        Ok(s) => s,
        Err(e) => {
            out.error = Some(format!("subscriber connect: {e}"));
            on_first_end();
            return out;
        }
    };
    loop {
        let ev = t.call(Call::Recv, NO_PARENT, 0, || sub.next_event());
        match ev {
            Ok(SubscriberEvent::Data {
                variable,
                iteration,
                source,
                bytes,
            }) => {
                let var = workload::CM1_FIELDS
                    .iter()
                    .position(|f| *f == variable)
                    .unwrap_or(usize::MAX);
                out.recv_bytes += bytes.len() as u64;
                out.data_frames += 1;
                out.digest = out.digest.wrapping_add(workload::keyed(
                    var,
                    iteration,
                    source,
                    workload::fast_hash(&bytes),
                ));
            }
            Ok(SubscriberEvent::IterationEnd { iteration, .. }) => {
                out.ends.push((iteration, mono_ns()));
                if out.ends.len() == 1 {
                    on_first_end();
                }
            }
            Ok(SubscriberEvent::Lag { dropped_frames, .. }) => {
                out.lag_events += 1;
                out.dropped += dropped_frames;
            }
            Ok(SubscriberEvent::Bye) => {
                out.bye = true;
                break;
            }
            Err(e) => {
                out.error = Some(format!("subscriber stream: {e}"));
                break;
            }
        }
    }
    if out.ends.is_empty() {
        on_first_end();
    }
    out.spans = t.spans;
    out
}

/// Cross-thread latencies anchored at the *entry* of the last client's
/// `end_iteration` for each timed iteration; iterations without a stamp
/// are returned as failed.
fn latencies(outs: &[ClientOut], stamps: &[(u64, u64)], p: &Params) -> (Vec<f64>, Vec<u64>) {
    let by_it: BTreeMap<u64, u64> = stamps.iter().copied().collect();
    let mut lat = Vec::with_capacity(p.iterations as usize);
    let mut missing = Vec::new();
    for (i, it) in (workload::WARMUP + 1..=p.last()).enumerate() {
        let anchor = outs.iter().filter_map(|o| o.end_entry_ns.get(i)).max();
        match (anchor, by_it.get(&it)) {
            (Some(&a), Some(&t)) => lat.push((t as f64 - a as f64) / 1e3),
            _ => missing.push(it),
        }
    }
    (lat, missing)
}

/// Read back every stored CM1 dataset and compare it with the fields
/// regenerated from the seed.
fn verify_store(dir: &Path, e: &Expected, traced: bool, f: &mut Failures, s: &mut Session) {
    let store = dir.join("store");
    let file = std::fs::read_dir(&store).ok().and_then(|rd| {
        rd.flatten()
            .map(|d| d.path())
            .find(|p| p.extension().is_some_and(|x| x == "dh5"))
    });
    let Some(file) = file else {
        f.all(format!("no per-node file under {}", store.display()));
        return;
    };
    let mut t = Tracer::new(traced);
    let t0 = mono_ns();
    let mut reader = match damaris::h5::FileReader::open(&file) {
        Ok(r) => r,
        Err(err) => {
            f.all(format!("per-node file unreadable: {err}"));
            return;
        }
    };
    let expected_sets = e.cm1_hashes.len() * workload::CM1_FIELDS.len();
    let found_sets = reader.meta().datasets.len();
    f.check(found_sets == expected_sets, || {
        format!("file holds {found_sets} datasets, expected {expected_sets}")
    });
    for (it, hashes) in e.cm1_hashes.iter().enumerate() {
        let it = it as u64;
        for (v, name) in workload::CM1_FIELDS.iter().enumerate() {
            let path = format!("it{it:06}/{name}/rank0");
            let got = t.call(Call::ReadBack, NO_PARENT, it, || reader.read_bytes(&path));
            if !matches!(got, Ok(ref b) if workload::fast_hash(b) == hashes[v]) {
                f.iteration(it);
                if f.problems.len() < 8 {
                    f.problems
                        .push(format!("dataset {path} differs from the regenerated field"));
                }
            }
        }
    }
    s.layer
        .insert("format.verify_read_ms", (mono_ns() - t0) as f64 / 1e6);
    let file_bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
    s.layer.insert("format.file_mb", file_bytes as f64 / 1e6);
    s.layer.insert(
        "storage.compression_factor",
        e.bytes as f64 / file_bytes.max(1) as f64,
    );
    s.spans.push(t.spans);
}

/// Checks shared by both worlds once the session's figures are in.
fn verify_common(
    p: &Params,
    e: &Expected,
    outs: &[ClientOut],
    sub: Option<&SubOut>,
    f: &mut Failures,
    s: &mut Session,
) {
    for (c, o) in outs.iter().enumerate() {
        for &it in &o.failed_iterations {
            f.bad.insert((c, it));
        }
        if !o.failed_iterations.is_empty() {
            f.problems.push(format!(
                "client {c}: {} failed or skipped calls",
                o.failed_iterations.len()
            ));
        }
        f.check(o.io_ns.len() as u64 == p.iterations, || {
            format!(
                "client {c} timed {} of {} iterations",
                o.io_ns.len(),
                p.iterations
            )
        });
    }
    if let Some(sub) = sub {
        if let Some(err) = &sub.error {
            f.all(err.clone());
        }
        f.check(sub.bye, || "subscriber saw no BYE".into());
        f.check(sub.lag_events == 0, || {
            format!("subscriber lagged {} times", sub.lag_events)
        });
        let seen: BTreeSet<u64> = sub.ends.iter().map(|&(it, _)| it).collect();
        for it in 0..=p.last() {
            if !seen.contains(&it) {
                f.iteration(it);
            }
        }
        f.check(seen.len() as u64 == p.last() + 1, || {
            format!(
                "subscriber saw {} of {} iterations",
                seen.len(),
                p.last() + 1
            )
        });
        f.check(sub.digest == e.digest, || {
            "subscriber payload digest differs".into()
        });
        let (deliver, missing) = latencies(outs, &sub.ends, p);
        s.deliver_us = deliver;
        for it in missing {
            f.iteration(it);
        }
        s.layer.insert("serve.recv_mb", sub.recv_bytes as f64 / 1e6);
        s.layer.insert("serve.frames_recv", sub.data_frames as f64);
        s.spans.push(sub.spans.clone());
    }
    s.io_us = outs
        .iter()
        .flat_map(|o| o.io_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    s.layer.insert(
        "client.skipped_writes",
        outs.iter().map(|o| o.skipped_writes).sum::<u64>() as f64,
    );
    s.spans.extend(outs.iter().map(|o| o.spans.clone()));
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = std::time::Instant::now() + RENDEZVOUS;
    while !ready() {
        if std::time::Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// A thread-world session, driven through `DamarisNode` so the node's
/// report and counters are in reach.
pub fn threads(p: &Params, e: &Expected, amr: Option<&AmrInput>) -> Session {
    let w = p.workload;
    let mut s = Session {
        traced: p.traced,
        ..Session::default()
    };
    let mut f = Failures::new(w.clients(), p.last());
    let t0 = mono_ns();
    let cfg = Configuration::from_str(&w.config_xml(&p.dir)).expect("workload config parses");
    s.parse_us = (mono_ns() - t0) as f64 / 1e3;
    let node = DamarisNode::builder()
        .config(cfg)
        .output_dir(&p.dir)
        .build()
        .expect("node builds");
    let probe = Arc::new(Probe::default());
    node.register_plugin(probe.clone());
    let gate = Barrier::new(w.clients() + 1);
    let halo = Barrier::new(w.clients());
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let (outs, sub, report, shut_ns) = std::thread::scope(|sc| {
        let sub = node.serve_addr().map(|addr| {
            let tx = ready_tx.clone();
            sc.spawn(move || {
                subscribe(addr, p.traced, &mut || {
                    let _ = tx.send(());
                })
            })
        });
        let handles: Vec<_> = node
            .clients()
            .map(|c| {
                let (gate, halo) = (&gate, &halo);
                sc.spawn(move || {
                    let mut h = Damaris::threads(c);
                    client::run(&mut h, p, amr, Some(halo), &mut || {
                        gate.wait();
                    })
                })
            })
            .collect();
        let ready = if sub.is_some() {
            ready_rx
                .recv_timeout(RENDEZVOUS)
                .map_err(|_| "subscriber never saw iteration 0".to_string())
        } else {
            wait_for("iteration 0", || {
                probe.completed.load(Ordering::Acquire) >= 1
            })
        };
        if let Err(why) = ready {
            f.all(why);
        }
        s.setup_s = (mono_ns() - t0) as f64 / 1e9;
        gate.wait();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let report = node.shutdown();
        let shut_ns = mono_ns();
        let sub = sub.map(|h| h.join().expect("subscriber thread"));
        (outs, sub, report, shut_ns)
    });
    let last_fin = outs.iter().map(|o| o.finalize_ns).max().unwrap_or(shut_ns);
    s.drain_ms = (shut_ns - last_fin) as f64 / 1e6;

    let log = std::mem::take(&mut *probe.log.lock().expect("probe log"));
    let (complete, missing) = latencies(&outs, &log, p);
    s.complete_us = complete;
    for it in missing {
        f.iteration(it);
    }
    f.check(probe.digest.load(Ordering::Relaxed) == e.digest, || {
        "dedicated-core data digest differs from the regenerated inputs".into()
    });
    match report {
        Ok(r) => {
            s.idle_frac = r.dedicated_idle_fraction;
            f.check(r.plugin_errors.is_empty(), || {
                format!("plugin errors: {:?}", r.plugin_errors)
            });
            f.check(r.skipped_client_iterations == 0, || {
                format!("{} client-iterations skipped", r.skipped_client_iterations)
            });
            f.check(r.iterations_completed == p.last() + 1, || {
                format!("{} iterations completed", r.iterations_completed)
            });
            f.check(r.blocks_received == e.blocks, || {
                format!("blocks_received {} != {}", r.blocks_received, e.blocks)
            });
            f.check(r.bytes_received == e.bytes, || {
                format!("bytes_received {} != {}", r.bytes_received, e.bytes)
            });
            s.layer.insert("server.blocks", r.blocks_received as f64);
            s.layer.insert("server.mb", r.bytes_received as f64 / 1e6);
        }
        Err(err) => f.all(format!("shutdown failed: {err}")),
    }
    let seg = node.segment_stats();
    let allocs = seg.allocations.max(1) as f64;
    s.layer.insert("shm.peak_mb", seg.peak as f64 / 1e6);
    s.layer.insert("shm.alloc_failures", seg.failures as f64);
    s.layer
        .insert("shm.class_hit_frac", seg.class_hits as f64 / allocs);
    // A three-quarter trim is part of serving a buddy hit, so
    // `buddy_tq_hits` is not added.
    s.layer
        .insert("shm.buddy_hit_frac", seg.buddy_hits as f64 / allocs);
    s.layer.insert("shm.buddy_splits", seg.buddy_splits as f64);
    s.layer.insert("shm.buddy_merges", seg.buddy_merges as f64);
    if let Some(st) = node.storage_stats() {
        let iters = st.iterations.max(1) as f64;
        s.layer
            .insert("storage.drain_us", st.drain_ns as f64 / 1e3 / iters);
        s.layer
            .insert("storage.encode_us", st.encode_ns as f64 / 1e3 / iters);
        s.layer
            .insert("storage.append_us", st.append_ns as f64 / 1e3 / iters);
        s.layer
            .insert("storage.sync_us", st.sync_ns as f64 / 1e3 / iters);
        s.layer
            .insert("storage.syncs_per_iter", st.syncs as f64 / iters);
        s.layer
            .insert("storage.worker_busy_frac", st.worker_busy_frac());
        s.layer
            .insert("storage.scratch_grows", st.scratch_grows as f64);
    }
    if let Some(sv) = node.serve_stats() {
        let publishes = sv.publishes.max(1) as f64;
        s.layer.insert(
            "serve.publish_us_mean",
            sv.publish_ns_total as f64 / 1e3 / publishes,
        );
        s.layer
            .insert("serve.publish_us_max", sv.publish_ns_max as f64 / 1e3);
        s.layer.insert("serve.frames_sent", sv.frames_sent as f64);
        s.layer.insert("serve.lag_events", sv.lag_events as f64);
        s.layer
            .insert("serve.frames_dropped", sv.frames_dropped as f64);
    }
    verify_common(p, e, &outs, sub.as_ref(), &mut f, &mut s);
    if w.stores_and_serves() {
        verify_store(&p.dir, e, p.traced, &mut f, &mut s);
    }
    f.finish(&mut s);
    s
}

/// Identifies the process-world launch site across re-execution.
const PROGRAM: &str = "e2e-cm1-processes";

/// The process-world launch, identical in the parent and in every
/// re-executed rank (which never returns from it).
fn launch(cfg: Configuration, input: &[u8]) -> DamarisResult<SimReport> {
    Damaris::launcher(cfg, PROGRAM)
        .input(input)
        .with_sink(ProbeSink::default)
        .launch(|h, input| {
            let p = Params::decode(input);
            let go = p.dir.join("go");
            // A missing gate is reported by the parent, which then times
            // out its own rendezvous.
            let mut wait_go = || drop(wait_for("the gate", || go.exists()));
            client::run(h, &p, None, None, &mut wait_go).encode()
        })
}

/// Entry point of a re-executed rank process: everything it does
/// derives from the launch's wire bytes, not from this configuration.
pub fn rank_main() -> ! {
    let cfg = Configuration::from_str(
        r#"<simulation name="e2e-rank"><architecture><world kind="processes"/></architecture></simulation>"#,
    )
    .expect("rank stub config parses");
    let _ = launch(cfg, &[]);
    unreachable!("a spawned rank exits inside the launch")
}

/// A process-world session via `Damaris::launch` (rank 0 dedicated).
pub fn processes(p: &Params, e: &Expected) -> Session {
    let w = p.workload;
    let mut s = Session {
        traced: p.traced,
        ..Session::default()
    };
    let mut f = Failures::new(w.clients(), p.last());
    let t0 = mono_ns();
    let cfg = Configuration::from_str(&w.config_xml(&p.dir)).expect("workload config parses");
    s.parse_us = (mono_ns() - t0) as f64 / 1e3;
    let mut p = p.clone();
    p.launch_ns = mono_ns();
    let input = p.encode();
    let mut setup_ns = 0;
    let (report, ret_ns, sub) = std::thread::scope(|sc| {
        let launched = sc.spawn(|| {
            let r = launch(cfg, &input);
            (r, mono_ns())
        });
        let addr_file = p.dir.join("addr");
        let addr = wait_for("the serve address", || {
            addr_file.exists() || launched.is_finished()
        })
        .ok()
        .and_then(|_| std::fs::read_to_string(&addr_file).ok())
        .and_then(|a| a.trim().parse().ok());
        let sub = match addr {
            Some(addr) => subscribe(addr, p.traced, &mut || {
                setup_ns = mono_ns() - t0;
                let _ = std::fs::write(p.dir.join("go"), b"go");
            }),
            None => {
                let _ = std::fs::write(p.dir.join("go"), b"go");
                SubOut {
                    error: Some("serve address never published".into()),
                    ..SubOut::default()
                }
            }
        };
        let (report, ret_ns) = launched.join().expect("launch thread");
        (report, ret_ns, sub)
    });
    s.setup_s = setup_ns as f64 / 1e9;
    let mut outs = Vec::new();
    match report {
        Ok(r) => {
            outs = r.outputs.iter().map(|o| ClientOut::decode(o)).collect();
            f.check(r.dead_ranks.is_empty(), || {
                format!("dead ranks {:?}", r.dead_ranks)
            });
            f.check(r.skipped_client_iterations == 0, || {
                format!("{} client-iterations skipped", r.skipped_client_iterations)
            });
            f.check(r.iterations_completed == p.last() + 1, || {
                format!("{} iterations completed", r.iterations_completed)
            });
            f.check(r.blocks_received == e.blocks, || {
                format!("blocks_received {} != {}", r.blocks_received, e.blocks)
            });
            f.check(r.bytes_received == e.bytes, || {
                format!("bytes_received {} != {}", r.bytes_received, e.bytes)
            });
            f.check(r.data_digest == e.fnv_digest, || {
                "SimReport::data_digest differs from the regenerated inputs".into()
            });
            s.layer.insert("server.blocks", r.blocks_received as f64);
            s.layer.insert("server.mb", r.bytes_received as f64 / 1e6);
        }
        Err(err) => f.all(format!("process world failed: {err}")),
    }
    if outs.len() != w.clients() {
        f.all(format!("{} client outputs", outs.len()));
        f.finish(&mut s);
        return s;
    }
    let last_fin = outs.iter().map(|o| o.finalize_ns).max().unwrap_or(ret_ns);
    s.drain_ms = (ret_ns.saturating_sub(last_fin)) as f64 / 1e6;
    s.layer.insert(
        "mpi.spawn_ms",
        (outs[0].start_ns.saturating_sub(p.launch_ns)) as f64 / 1e6,
    );

    let words: Vec<u64> = std::fs::read(probe_sink_path())
        .unwrap_or_default()
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word")))
        .collect();
    let _ = std::fs::remove_file(probe_sink_path());
    let log: Vec<(u64, u64, u64)> = words.chunks_exact(3).map(|c| (c[0], c[1], c[2])).collect();
    let stamps: Vec<(u64, u64)> = log.iter().map(|&(it, t, _)| (it, t)).collect();
    let (complete, missing) = latencies(&outs, &stamps, &p);
    s.complete_us = complete;
    for it in missing {
        f.iteration(it);
    }
    // Idle share of the dedicated rank over the timed iterations, from
    // its CPU clock: SimReport carries no idle figure.
    let first = log.iter().find(|l| l.0 == workload::WARMUP + 1);
    let last = log.iter().find(|l| l.0 == p.last());
    if let (Some(a), Some(b)) = (first, last) {
        s.idle_frac = 1.0 - (b.2 - a.2) as f64 / (b.1 - a.1).max(1) as f64;
    }
    s.layer.insert("serve.lag_events", sub.lag_events as f64);
    s.layer.insert("serve.frames_dropped", sub.dropped as f64);
    verify_common(&p, e, &outs, Some(&sub), &mut f, &mut s);
    verify_store(&p.dir, e, p.traced, &mut f, &mut s);
    f.finish(&mut s);
    s
}
