//! Clocks shared across processes, and the host fingerprint every result
//! record carries.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask (1024 CPUs, glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to one CPU. Best effort: placement is a
/// measurement condition, not a correctness one.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // both clock ids are always supported by Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds on `CLOCK_MONOTONIC`: one time base for every thread and
/// every rank process on the host, so cross-process latencies subtract.
pub fn mono_ns() -> u64 {
    read_clock(CLOCK_MONOTONIC)
}

/// CPU nanoseconds this process has consumed (all threads).
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else on this machine's virtual CPUs.
pub fn steal_ticks() -> (u64, u64) {
    let line = first_line("/proc/stat");
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Microseconds a fixed ALU-bound loop takes on the calling thread
/// (median of five): a host-speed reference for the record, so that a run
/// made while the host was slower can be told from a slower program.
pub fn speed_ref_us() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = mono_ns();
            let x = (0..1_000_000u64).fold(0, |x, i| crate::workload::mix(x ^ i));
            std::hint::black_box(x);
            (mono_ns() - t0) as f64 / 1e3
        })
        .collect();
    crate::stats::median(&times)
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the sorted source files of the repository: identifies the
/// code under test where the checkout carries no version-control data.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "src", "e2e"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The host block of a result record, as a JSON object.
pub fn fingerprint(root: &Path, seed: u64) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Only ask git inside a repository of our own: a checkout without
    // `.git` could otherwise report an unrelated enclosing repository.
    // Such a checkout is identified by a digest of its sources instead.
    let code = if root.join(".git").exists() {
        let commit = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]);
        format!("\"commit\":{}", crate::report::json_str(&commit))
    } else {
        format!(
            "\"commit\":\"none\",\"source_digest\":\"{}\"",
            source_digest(root)
        )
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"kernel\":{},{code},\"rustc\":{},\"seed\":{seed}}}",
        crate::report::json_str(&cpu_model()),
        crate::report::json_str(&first_line("/proc/sys/kernel/osrelease")),
        crate::report::json_str(&command_line("rustc", &["--version"])),
    )
}
