//! The three workloads: their configurations, their seeded inputs and
//! what a correct run must produce.

use std::path::{Path, PathBuf};

use damaris::apps::{Cm1, Cm1Config, ProxyApp};

/// One benchmark workload (names are what `--workload` takes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Thread world, one CM1 client, store and serve on.
    Cm1Threads,
    /// Thread world, two AMR-style clients writing 32 variable-size
    /// blocks per iteration; store and serve off.
    AmrEvents,
    /// Process world (rank 0 dedicated), one CM1 client rank, store and
    /// serve on, heartbeats on.
    Cm1Processes,
}

/// CM1 output fields, in declaration order.
pub const CM1_FIELDS: [&str; 5] = ["u", "v", "w", "theta", "qv"];
/// CM1 steps between two outputs.
pub const CM1_STEPS_PER_OUTPUT: usize = 8;
/// Variables each AMR client writes per iteration.
pub const AMR_VARS: usize = 32;
/// Smallest and largest AMR block, bytes.
pub const AMR_MIN_BYTES: usize = 512;
/// See [`AMR_MIN_BYTES`].
pub const AMR_MAX_BYTES: usize = 32 << 10;
/// Seeded bytes AMR blocks are cut from.
const AMR_POOL_BYTES: usize = 1 << 20;
/// Untimed iterations after the set-up iteration 0: they touch every
/// block the allocator and the consumers recycle, so first-touch page
/// faults, which a long simulation pays once, stay out of the timings.
pub const WARMUP: u64 = 8;
/// Heartbeat interval of the process world: the mesh monitor's tick
/// floor. Each rank's shutdown joins the monitor thread, which sleeps one
/// tick at a time, so a longer interval would put up to a tick of timer
/// wait into `drain_ms`. The default 10 s timeout keeps a tick this short
/// from declaring a busy rank dead.
const HEARTBEAT_MS: u64 = 5;

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cm1_threads" => Some(Workload::Cm1Threads),
            "amr_events" => Some(Workload::AmrEvents),
            "cm1_processes" => Some(Workload::Cm1Processes),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cm1Threads => "cm1_threads",
            Workload::AmrEvents => "amr_events",
            Workload::Cm1Processes => "cm1_processes",
        }
    }

    /// Compute clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::AmrEvents => 2,
            _ => 1,
        }
    }

    /// Whether store and serve are on.
    pub fn stores_and_serves(self) -> bool {
        self != Workload::AmrEvents
    }

    /// Where the clients run, given the CPUs this process may use; the
    /// returned CPU, if any, is where the rest of the run goes. One CPU
    /// per AMR client, as on a node whose cores all compute (the
    /// dedicated core takes the time they leave). With one CM1 client,
    /// the paper's placement: the client owns the first CPU, and the
    /// dedicated core with its helper threads (rank 0 in the process
    /// world), the subscriber and the driver share the last.
    pub fn placement(self, cpus: &[usize]) -> (Vec<usize>, Option<usize>) {
        if cpus.len() < 2 {
            return (Vec::new(), None);
        }
        match self {
            Workload::AmrEvents => (cpus[..2].to_vec(), None),
            Workload::Cm1Threads | Workload::Cm1Processes => (vec![cpus[0]], cpus.last().copied()),
        }
    }

    /// Whether the dedicated core is a separate process.
    pub fn processes(self) -> bool {
        self == Workload::Cm1Processes
    }

    /// Timed iterations per session (after iteration 0 and the
    /// [`WARMUP`] iterations). Sessions are short so that a run holds
    /// many: each session maps fresh memory, and the run's figures pool
    /// over those placements (about 50 CM1 sessions in 30 s).
    pub fn iterations(self) -> u64 {
        match self {
            Workload::AmrEvents => 300,
            _ => 40,
        }
    }

    /// The configuration of one session whose files live under `dir`.
    pub fn config_xml(self, dir: &Path) -> String {
        match self {
            Workload::AmrEvents => {
                let vars: String = (0..AMR_VARS)
                    .map(|v| format!(r#"<variable name="{}" layout="patch"/>"#, amr_var(v)))
                    .collect();
                format!(
                    r#"<simulation name="e2e-amr">
                         <architecture>
                           <dedicated cores="1"/>
                           <clients count="2"/>
                           <buffer size="16777216"/>
                           <world kind="threads"/>
                         </architecture>
                         <data>
                           <layout name="patch" type="f64" dimensions="dynamic" max_size="{AMR_MAX_BYTES}"/>
                           {vars}
                         </data>
                       </simulation>"#
                )
            }
            Workload::Cm1Threads | Workload::Cm1Processes => {
                let (nx, ny, nz) = CM1_GRID;
                let vars: String = CM1_FIELDS
                    .iter()
                    .map(|f| {
                        format!(
                            r#"<variable name="{f}" layout="grid" codec="xor-delta8,shuffle8,rle"/>"#
                        )
                    })
                    .collect();
                let world = if self.processes() {
                    format!(r#"<world kind="processes" heartbeat_ms="{HEARTBEAT_MS}"/>"#)
                } else {
                    r#"<world kind="threads"/>"#.to_string()
                };
                format!(
                    r#"<simulation name="e2e-cm1">
                         <architecture>
                           <dedicated cores="1"/>
                           <clients count="1"/>
                           <buffer size="33554432"/>
                           {world}
                           <store type="h5lite" path="{store}" sync="true"/>
                           <serve listen="127.0.0.1:0" addr_file="{addr}"/>
                         </architecture>
                         <data>
                           <layout name="grid" type="f64" dimensions="{nz},{ny},{nx}"/>
                           {vars}
                         </data>
                       </simulation>"#,
                    store = dir.join("store").display(),
                    addr = dir.join("addr").display(),
                )
            }
        }
    }
}

/// CM1 grid of the `cm1_*` workloads (x, y, z): 0.66 MB per output.
/// The client's working set (the proxy's six arrays plus the blocks it
/// writes, 1.4 MB) fits a 2 MB L2; at 48×48×16 (1.47 MB per output,
/// 3.2 MB in all) it spilled into the L3 the host shares, and `io_us`
/// drifted with the host from minute to minute.
pub const CM1_GRID: (usize, usize, usize) = (32, 32, 16);
/// CM1 grid of the `amr_events` compute phase.
pub const AMR_GRID: (usize, usize, usize) = (32, 32, 16);

/// Name of AMR variable `v`.
pub fn amr_var(v: usize) -> String {
    format!("p{v:02}")
}

/// A CM1 proxy on `grid`, seeded.
pub fn cm1_app(grid: (usize, usize, usize), seed: u64) -> Cm1 {
    Cm1::new(Cm1Config {
        nx: grid.0,
        ny: grid.1,
        nz: grid.2,
        seed,
        ..Cm1Config::default()
    })
}

/// splitmix64: the benchmark's one seeded generator.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fast 64-bit content hash (8 bytes per step) for read-back and
/// subscriber checks.
pub fn fast_hash(data: &[u8]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    mix(h)
}

/// A block's contribution to an order-independent digest: its content
/// hash keyed by (variable index, iteration, 0-based client). Digests are
/// wrapping sums of these.
pub fn keyed(var: usize, iteration: u64, client: u64, content_hash: u64) -> u64 {
    content_hash ^ mix((var as u64) << 48 ^ iteration << 8 ^ client)
}

/// The per-block digest `SimReport::data_digest` sums: FNV-1a over
/// (variable, iteration, client, payload).
pub fn fnv_block_digest(var: u64, iteration: u64, client: u64, data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [var, iteration, client] {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seeded AMR input: one byte pool every block is cut from.
pub struct AmrInput {
    seed: u64,
    pool: Vec<u8>,
}

impl AmrInput {
    /// Generate the pool from the seed.
    pub fn new(seed: u64) -> Self {
        let pool = (0..AMR_POOL_BYTES / 8)
            .flat_map(|i| mix(seed ^ mix(i as u64)).to_le_bytes())
            .collect();
        AmrInput { seed, pool }
    }

    /// The bytes client `client` writes to variable `var` at `iteration`:
    /// a whole number of f64 in `[AMR_MIN_BYTES, AMR_MAX_BYTES]`.
    pub fn block(&self, client: usize, iteration: u64, var: usize) -> &[u8] {
        let r = mix(self.seed ^ mix((client as u64) << 56 ^ iteration << 8 ^ var as u64));
        let span = (AMR_MAX_BYTES - AMR_MIN_BYTES) / 8 + 1;
        let len = AMR_MIN_BYTES + (r % span as u64) as usize * 8;
        let off = ((r >> 32) as usize % ((AMR_POOL_BYTES - len) / 8)) * 8;
        &self.pool[off..off + len]
    }
}

/// What a correct session must deliver: per-block content hashes and the
/// digests, blocks and bytes of all iterations `0..=iterations`.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// Content hash of block `(iteration, var)` of client 0, CM1 only
    /// (the stored datasets are checked against it).
    pub cm1_hashes: Vec<[u64; 5]>,
    /// Wrapping sum of [`keyed`] over every block.
    pub digest: u64,
    /// Wrapping sum of [`fnv_block_digest`] over every block
    /// (process world only: what `SimReport::data_digest` must equal).
    pub fnv_digest: u64,
    /// Blocks per session.
    pub blocks: u64,
    /// Payload bytes per session.
    pub bytes: u64,
    /// `Pipeline::encode_with` throughput on sampled fields, MB/s (CM1).
    pub encode_mb_s: f64,
}

/// Regenerate from the seed everything a session must produce: re-run the
/// CM1 proxy (or re-cut the AMR blocks) for `0..=iterations`.
pub fn expected(w: Workload, seed: u64, iterations: u64, amr: Option<&AmrInput>) -> Expected {
    let mut e = Expected::default();
    match w {
        Workload::AmrEvents => {
            let amr = amr.expect("AMR input");
            for it in 0..=iterations {
                for c in 0..w.clients() {
                    for v in 0..AMR_VARS {
                        let b = amr.block(c, it, v);
                        e.digest = e.digest.wrapping_add(keyed(v, it, c as u64, fast_hash(b)));
                        e.blocks += 1;
                        e.bytes += b.len() as u64;
                    }
                }
            }
        }
        Workload::Cm1Threads | Workload::Cm1Processes => {
            let pipeline = damaris::codec::Pipeline::from_spec("xor-delta8,shuffle8,rle")
                .expect("codec spec is valid");
            let mut scratch = damaris::codec::EncodeScratch::new();
            let (mut enc_bytes, mut enc_ns) = (0u64, 0u64);
            let mut app = cm1_app(CM1_GRID, seed);
            for it in 0..=iterations {
                if it > 0 {
                    for _ in 0..CM1_STEPS_PER_OUTPUT {
                        app.step();
                    }
                }
                let mut hashes = [0u64; 5];
                for (v, (_, field)) in app.fields().into_iter().enumerate() {
                    let bytes = as_bytes(field);
                    hashes[v] = fast_hash(bytes);
                    e.digest = e.digest.wrapping_add(keyed(v, it, 0, hashes[v]));
                    if w.processes() {
                        e.fnv_digest = e
                            .fnv_digest
                            .wrapping_add(fnv_block_digest(v as u64, it, 0, bytes));
                    }
                    e.blocks += 1;
                    e.bytes += bytes.len() as u64;
                    if it % 16 == 1 {
                        let t0 = crate::host::mono_ns();
                        std::hint::black_box(pipeline.encode_with(bytes, &mut scratch).len());
                        enc_ns += crate::host::mono_ns() - t0;
                        enc_bytes += bytes.len() as u64;
                    }
                }
                e.cm1_hashes.push(hashes);
            }
            e.encode_mb_s = enc_bytes as f64 / 1e6 / (enc_ns.max(1) as f64 / 1e9);
        }
    }
    e
}

/// View an f64 slice as its native-endian bytes.
pub fn as_bytes(v: &[f64]) -> &[u8] {
    // SAFETY: any initialised f64 slice is a valid byte slice of 8× its
    // length, u8 has alignment 1, and the lifetime is carried over.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Everything one session's client(s) need, encoded for the trip to a
/// re-executed rank process.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed iterations (after iteration 0 and the warm-up).
    pub iterations: u64,
    /// Whether clients record spans.
    pub traced: bool,
    /// Session directory (store, serve address, gate file).
    pub dir: PathBuf,
    /// `mono_ns` when the launch began (process world).
    pub launch_ns: u64,
    /// CPU client `i` pins itself to; unpinned beyond the list.
    pub client_cpus: Vec<usize>,
}

impl Params {
    /// The last iteration of the session.
    pub fn last(&self) -> u64 {
        WARMUP + self.iterations
    }

    /// Whether `it` is timed.
    pub fn timed(&self, it: u64) -> bool {
        it > WARMUP
    }

    /// Encode as bytes.
    pub fn encode(&self) -> Vec<u8> {
        let kind = match self.workload {
            Workload::Cm1Threads => 0u64,
            Workload::AmrEvents => 1,
            Workload::Cm1Processes => 2,
        };
        let mut out = Vec::new();
        for w in [
            kind,
            self.seed,
            self.iterations,
            u64::from(self.traced),
            self.launch_ns,
            self.client_cpus.len() as u64,
        ]
        .into_iter()
        .chain(self.client_cpus.iter().map(|&c| c as u64))
        {
            out.extend(w.to_le_bytes());
        }
        out.extend(self.dir.to_string_lossy().as_bytes());
        out
    }

    /// Decode what [`Params::encode`] produced.
    pub fn decode(bytes: &[u8]) -> Params {
        let w = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("word"));
        Params {
            workload: [
                Workload::Cm1Threads,
                Workload::AmrEvents,
                Workload::Cm1Processes,
            ][w(0) as usize],
            seed: w(1),
            iterations: w(2),
            traced: w(3) == 1,
            launch_ns: w(4),
            client_cpus: (0..w(5) as usize).map(|i| w(6 + i) as usize).collect(),
            dir: PathBuf::from(
                std::str::from_utf8(&bytes[48 + 8 * w(5) as usize..]).expect("utf-8 dir"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amr_blocks_are_seeded_sized_and_in_range() {
        let a = AmrInput::new(7);
        let b = AmrInput::new(7);
        let mut sizes = std::collections::BTreeSet::new();
        for it in 0..50 {
            for v in 0..AMR_VARS {
                let blk = a.block(1, it, v);
                assert_eq!(blk, b.block(1, it, v), "same seed, same bytes");
                assert!((AMR_MIN_BYTES..=AMR_MAX_BYTES).contains(&blk.len()));
                assert_eq!(blk.len() % 8, 0);
                sizes.insert(blk.len());
            }
        }
        assert!(sizes.len() > 500, "sizes vary: {}", sizes.len());
        assert_ne!(a.block(0, 3, 4), AmrInput::new(8).block(0, 3, 4));
    }

    #[test]
    fn params_roundtrip() {
        let p = Params {
            workload: Workload::Cm1Processes,
            seed: 42,
            iterations: 250,
            traced: true,
            dir: PathBuf::from("some/dir"),
            launch_ns: 123,
            client_cpus: vec![1, 0],
        };
        assert_eq!(Params::decode(&p.encode()), p);
    }

    #[test]
    fn fnv_digest_matches_the_facade_formula() {
        // The process world's SimReport::data_digest over one block.
        use damaris::core::prelude::*;
        let xml = r#"<simulation name="d"><architecture><clients count="1"/>
            <buffer size="65536"/><world kind="threads"/></architecture>
            <data><layout name="r" type="f64" dimensions="4"/>
            <variable name="a" layout="r"/></data></simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        let data = [1.5f64, 2.0, -3.0, 4.25];
        let report = Damaris::launch(cfg, "fnv-digest", &[], |h, _| {
            h.write("a", 0, &data).unwrap();
            h.end_iteration(0).unwrap();
            Vec::new()
        })
        .unwrap();
        assert_eq!(
            report.data_digest,
            fnv_block_digest(0, 0, 0, as_bytes(&data))
        );
    }

    #[test]
    fn every_config_parses() {
        use damaris::core::prelude::Configuration;
        for w in [
            Workload::Cm1Threads,
            Workload::AmrEvents,
            Workload::Cm1Processes,
        ] {
            let cfg = Configuration::from_str(&w.config_xml(Path::new("d"))).unwrap();
            assert_eq!(cfg.architecture.clients, w.clients());
            assert_eq!(cfg.architecture.store.is_some(), w.stores_and_serves());
            assert_eq!(cfg.architecture.serve.is_some(), w.stores_and_serves());
        }
    }
}
