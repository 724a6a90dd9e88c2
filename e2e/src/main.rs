//! `e2e`: the end-to-end benchmark of the Damaris middleware.
//!
//! Usage: `e2e --workload <cm1_threads|amr_events|cm1_processes>
//! --seed <n> --seconds <s> --trace <0|1>`, run from the repository root.
//! Prints every metric by name, one JSON record with the host
//! fingerprint, and as its last line the result object.

mod client;
mod host;
mod report;
mod session;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::time::Instant;

use session::Session;
use workload::{AmrInput, Params, Workload};

/// Never run longer than this, whatever `--seconds` asks.
const HARD_CAP_S: f64 = 140.0;
/// Timing samples a run needs for a p99 with ten samples beyond it.
const MIN_SAMPLES: usize = 1000;
/// Sessions a run needs at least (set-up and drain are medians of them).
const MIN_SESSIONS: usize = 3;
/// A run whose complete latency grows more than this from its first to
/// its last quarter has an unsustainable backlog.
const MAX_BACKLOG_GROWTH: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
    })
}

fn main() {
    if damaris::mpi::World::is_spawned_child() {
        session::rank_main();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2e: {e}\nusage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    if !root.join("crates").is_dir() {
        eprintln!("e2e: run from the repository root");
        std::process::exit(2);
    }
    // Every file the run makes, rank processes' included, stays under
    // the checkout: the temp dir is redirected before any thread starts.
    let work = root.join(".e2e_work").join(std::process::id().to_string());
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).expect("work dir");
    std::env::set_var("TMPDIR", &tmp);

    let code = run(&args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(code);
}

fn run(args: &Args, root: &Path, work: &Path) -> i32 {
    let w = args.workload;
    let fingerprint = host::fingerprint(root, args.seed);
    let (client_cpus, rest) = w.placement(&host::allowed_cpus());
    if let Some(cpu) = rest {
        // Threads and rank processes inherit the mask of the thread that
        // starts them.
        host::pin_to(cpu);
    }
    let amr = (w == Workload::AmrEvents).then(|| AmrInput::new(args.seed));
    let t_ref = Instant::now();
    let expected = workload::expected(
        w,
        args.seed,
        workload::WARMUP + w.iterations(),
        amr.as_ref(),
    );
    eprintln!(
        "e2e: inputs regenerated from seed {} in {:.2} s",
        args.seed,
        t_ref.elapsed().as_secs_f64()
    );

    let start = Instant::now();
    let steal0 = host::steal_ticks();
    let ref0 = host::speed_ref_us();
    let mut sessions: Vec<Session> = Vec::new();
    loop {
        // Trace runs keep their second session untraced, so the tracing
        // overhead is measured within the run.
        let traced = args.trace && sessions.len() != 1;
        let dir = work.join(format!("s{}", sessions.len()));
        std::fs::create_dir_all(&dir).expect("session dir");
        let p = Params {
            workload: w,
            seed: args.seed,
            iterations: w.iterations(),
            traced,
            dir: dir.clone(),
            launch_ns: 0,
            client_cpus: client_cpus.clone(),
        };
        let s = if w.processes() {
            session::processes(&p, &expected)
        } else {
            session::threads(&p, &expected, amr.as_ref())
        };
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "e2e: session {} ({}) setup {:.3} s, io p50 {:.1} us, {} failed of {}",
            sessions.len(),
            if traced { "traced" } else { "untraced" },
            s.setup_s,
            stats::median(if s.io_us.is_empty() { &[0.0] } else { &s.io_us }),
            s.failed,
            s.attempted
        );
        sessions.push(s);
        let elapsed = start.elapsed().as_secs_f64();
        let measured = |t: bool| -> usize {
            sessions
                .iter()
                .filter(|s| s.traced == t)
                .map(|s| s.complete_us.len().min(s.io_us.len()))
                .sum()
        };
        let enough = if args.trace {
            measured(true) >= MIN_SAMPLES && measured(false) > 0
        } else {
            measured(false) >= MIN_SAMPLES && sessions.len() >= MIN_SESSIONS
        };
        if (elapsed >= args.seconds && enough) || elapsed >= HARD_CAP_S {
            break;
        }
    }
    let steal1 = host::steal_ticks();
    let load = HostLoad {
        steal_frac: (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64,
        speed_ref_us: [ref0, host::speed_ref_us()],
    };
    emit(args, root, &fingerprint, &load, &expected, &sessions)
}

/// How busy the host was around the run: neither is a metric of the
/// program, but both tell a slower host from a slower program.
struct HostLoad {
    /// Share of CPU time the hypervisor took during the run.
    steal_frac: f64,
    /// [`host::speed_ref_us`] before and after the sessions.
    speed_ref_us: [f64; 2],
}

fn emit(
    args: &Args,
    root: &Path,
    fingerprint: &str,
    load: &HostLoad,
    expected: &workload::Expected,
    sessions: &[Session],
) -> i32 {
    let w = args.workload;
    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let attempted: u64 = sessions.iter().map(|s| s.attempted).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    let mut problems: Vec<String> = sessions.iter().flat_map(|s| s.problems.clone()).collect();

    // Untraced runs print and record every end-to-end figure; the result
    // line leaves out the unbounded tails.
    let all_e2e = report::end_to_end(w, &untraced);
    let e2e: Vec<_> = all_e2e
        .iter()
        .filter(|m| !report::UNBOUNDED.contains(&m.name))
        .cloned()
        .collect();
    let mut layers = report::per_layer(w, &traced, &untraced, sessions, expected);
    layers.extend(
        report::end_to_end(w, &traced)
            .into_iter()
            .filter(|m| report::UNBOUNDED.contains(&m.name)),
    );
    let backlog = layers
        .iter()
        .find(|m| m.name == "backlog_growth")
        .map_or(1.0, |m| m.value);
    if backlog > MAX_BACKLOG_GROWTH {
        problems.push(format!(
            "unsustainable: complete latency grew {backlog:.2}x from the first to the last quarter"
        ));
    }
    let listed_layers: Vec<_> = layers
        .iter()
        .filter(|m| !report::CM1_THREADS_ONLY.contains(&m.name))
        .cloned()
        .collect();
    let shown = if args.trace { &listed_layers } else { &e2e };
    for m in shown.iter().filter(|m| m.name.ends_with("_p99")) {
        if let Some(n) = m.samples.filter(|&n| n < MIN_SAMPLES) {
            problems.push(format!("{}: only {n} samples", m.name));
        }
    }
    if args.trace {
        let cov = report::coverage(&traced);
        if !cov.passes() {
            problems.push(format!(
                "coverage: {} of {} I/O spans leave more than {:.0} % (or {} us) uncovered",
                cov.failing,
                cov.spans,
                stats::COVER_TOL_FRAC * 100.0,
                stats::COVER_TOL_NS / 1000
            ));
        }
        let out = root
            .join(".e2e_out")
            .join(format!("trace-{}.csv", w.name()));
        let per_thread: Vec<(usize, usize, &[trace::Span])> = sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.traced)
            .flat_map(|(i, s)| {
                s.spans
                    .iter()
                    .enumerate()
                    .map(move |(t, sp)| (i, t, sp.as_slice()))
            })
            .collect();
        if let Err(e) = trace::write_csv(&out, &per_thread) {
            eprintln!("e2e: cannot write {}: {e}", out.display());
        }
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let correct = failed == 0 && problems.is_empty();

    println!(
        "e2e {} seed {} ({} sessions, {} traced)",
        w.name(),
        args.seed,
        sessions.len(),
        traced.len()
    );
    let listed: &[report::Metric] = if args.trace { &layers } else { &[] };
    // Trace runs report the tails with the per-layer metrics.
    let printed = if args.trace { &e2e } else { &all_e2e };
    for m in printed.iter().chain(listed) {
        println!(
            "  {:<32} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<32} {:>14.4} {:<6} {failed} of {attempted} client-iterations",
        "failed_frac", failed_frac, "frac"
    );
    println!(
        "  {:<32} {:>14.4} {:<6} CPU time the hypervisor took during the run",
        "host_steal_frac", load.steal_frac, "frac"
    );
    println!(
        "  {:<32} {:>14.1} {:<6} fixed ALU loop before the sessions ({:.1} after)",
        "host_speed_ref_us", load.speed_ref_us[0], "us", load.speed_ref_us[1]
    );
    for p in &problems {
        println!("  FAILED: {p}");
    }
    let notes: Vec<String> = printed
        .iter()
        .chain(listed)
        .filter(|m| !m.note.is_empty())
        .map(|m| format!("{}:{}", report::json_str(m.name), report::json_str(&m.note)))
        .collect();
    println!(
        "{{\"record\":{{\"workload\":\"{}\",\"host\":{},\"sessions\":{},\"failed_frac\":{failed_frac},\"host_steal_frac\":{},\"host_speed_ref_us\":[{},{}],\"notes\":{{{}}},\"end_to_end\":{},\"per_layer\":{},\"problems\":[{}]}}}}",
        w.name(),
        fingerprint,
        sessions.len(),
        load.steal_frac,
        load.speed_ref_us[0],
        load.speed_ref_us[1],
        notes.join(","),
        report::metrics_json(printed),
        report::metrics_json(listed),
        problems.iter().map(|p| report::json_str(p)).collect::<Vec<_>>().join(","),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        report::metrics_json(shown)
    );
    0
}
