//! Process-mode Damaris: clients and the dedicated core as separate OS
//! **processes**, exactly like the original middleware's MPI ranks.
//!
//! The thread-mode [`crate::DamarisNode`] shares one address space, which
//! makes its shared segment and event queue trivially "shared". The paper's
//! architecture is stronger: every core of an SMP node is its own MPI
//! process, the segment is a POSIX shared-memory object all of them map,
//! and events travel through real IPC. This module reproduces that
//! boundary on top of two substrate pieces:
//!
//! * a [`mini_mpi`] **socket world** ([`mini_mpi::World::run_spawned`]) —
//!   one process per rank, envelopes over Unix-domain sockets;
//! * a [`damaris_shm::ShmFile`] — a `/dev/shm` file every rank maps, so
//!   block payloads move through genuine shared memory while only tiny
//!   *descriptors* (variable id, iteration, file offset, length) cross
//!   the socket.
//!
//! ## Roles and protocol
//!
//! Rank 0 is the dedicated core ([`ProcessServer`]); ranks 1.. are
//! clients ([`ProcessClient`]). The shared file is partitioned into one
//! slice per client; each client lays a private allocator
//! ([`damaris_shm::SharedSegment::over_mapping`]) over its slice, so
//! allocation never needs cross-process coordination. A write is: carve a
//! block, one memcpy into the mapping, append a 3-word descriptor to the
//! iteration's envelope (§IV.B's "the time to write … is the time
//! required to write in shared-memory"). Descriptors are **coalesced**:
//! `end_iteration` flushes the whole client-iteration — every write
//! descriptor plus the end marker — as one framed message, so the socket
//! carries one envelope per client per iteration instead of one message
//! per block.
//!
//! The dedicated rank copies each validated block out of the mapping
//! **once** into an owned [`damaris_shm::Payload`] and indexes it in a
//! [`VariableStore`] under its 0-based client id, then drives the node's
//! [`PluginSet`] exactly as the thread world does: every
//! [`crate::Plugin`] runs unchanged in both worlds.
//!
//! Flow control is iteration-grained: the server acknowledges an
//! iteration once every client has ended it and its blocks are consumed;
//! clients keep at most [`ACK_WINDOW`] iterations of blocks alive before
//! blocking on acknowledgements — the same bounded-buffer behaviour the
//! thread-mode segment enforces by occupancy, expressed over messages
//! (the server cannot free ranges in another process's allocator).
//!
//! ## API parity with thread mode
//!
//! The client implements the full paper surface at parity with
//! [`crate::DamarisClient`]: `write`/`write_id` returning
//! [`WriteStatus`], zero-copy [`ProcessClient::alloc`] →
//! [`ProcessClient::commit`] over the shared mapping, user
//! [`ProcessClient::signal`]s delivered to the dedicated core
//! (`KIND_SIGNAL` descriptors → the signal `<action>`s' plugins),
//! [`SkipMode::DropIteration`] admission/exhaustion semantics, and the
//! lock-free latency histogram behind [`ProcessClient::stats`]. The
//! recommended way to consume all of it is through the unified
//! [`crate::facade::SimHandle`] facade: [`ProcessHandle`] bundles a
//! client with its communicator so simulation code never threads a
//! [`Comm`] through every call.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use damaris_shm::{Block, BlockRef, Payload, SharedSegment, ShmFile};
use damaris_xml::schema::{AllocatorKind, Configuration, SkipMode};
use damaris_xml::{EventId, VarId};
use mini_mpi::{Comm, Source};

use crate::client::{ClientStats, StatsRecorder, WriteStatus};
use crate::error::{DamarisError, DamarisResult};
use crate::facade::{check_layout, resolve_var, SimHandle, SimWriter};
use crate::plugins::PluginSet;
use crate::policy::SkipPolicy;
use crate::store::{StoredBlock, VariableStore};

/// World rank of the dedicated core.
pub const DEDICATED_RANK: usize = 0;

/// Iterations a client may keep un-acknowledged before `end_iteration`
/// blocks (bounded staging, like the thread-mode segment watermark).
pub const ACK_WINDOW: u64 = 2;

/// Client → server messages (tag [`TAG_MSG`]), `u64`-encoded with a
/// leading kind word.
const TAG_MSG: u32 = 1;
/// Server → client iteration acknowledgements (tag [`TAG_ACK`]).
const TAG_ACK: u32 = 2;

// Kinds 1 and 2 belonged to the retired per-write framing; never reuse
// them, so a stale client is rejected instead of misread.
const KIND_FIN: u64 = 3;
/// A user signal: `[KIND_SIGNAL, event_id, iteration]` — the process-mode
/// `damaris_signal`, firing the event's `<action>`s on the dedicated
/// core. Signals stay their own immediate messages (they are
/// order-independent with respect to writes), everything else coalesces
/// into the iteration envelope.
const KIND_SIGNAL: u64 = 4;
/// One client-iteration coalesced into a single framed envelope:
/// `[KIND_BATCH, iteration, writes, skipped, (var, offset, len) × writes]`
/// — flushed on `end_iteration`, so every write descriptor plus the
/// end-of-iteration marker travel as **one message per client per
/// iteration**. This is the only way blocks reach the server.
const KIND_BATCH: u64 = 5;

/// Words of the [`KIND_BATCH`] envelope header preceding the descriptor
/// triples.
const BATCH_HEADER: usize = 4;

/// Where the node's segment file lives, given a directory every rank can
/// derive (e.g. [`mini_mpi::World::spawn_dir`]).
pub fn segment_path(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join("damaris-segment.shm")
}

fn slice_bytes(cfg: &Configuration, clients: usize) -> DamarisResult<usize> {
    let align = damaris_shm::segment::BLOCK_ALIGN;
    let slice = (cfg.architecture.buffer_size / clients.max(1)) / align * align;
    // Fixed layouts bound themselves; dynamic layouts count through
    // their declared `max_size` (an unbounded dynamic layout is checked
    // per write against the live slice instead).
    let largest = cfg
        .registry()
        .vars()
        .filter_map(|(_, e)| e.layout.max_byte_size())
        .max()
        .unwrap_or(0);
    if slice < largest.max(align) {
        return Err(DamarisError::InvalidState(format!(
            "buffer of {} bytes over {clients} clients leaves {slice}-byte slices, \
             smaller than the largest declared layout ({largest} bytes)",
            cfg.architecture.buffer_size
        )));
    }
    Ok(slice)
}

/// A per-block consumer: the shape a [`crate::Launcher::with_sink`]
/// adapter drives. The adapter is a [`crate::Plugin`] firing at
/// iteration completion, so a sink runs in either world and sees exactly
/// the completed iterations' blocks.
pub trait ProcessSink {
    /// One block of a completed iteration: variable, iteration, writing
    /// client (0-based client id) and the block's bytes.
    fn on_block(&mut self, var: VarId, iteration: u64, source: usize, data: &[u8]);
    /// Every block of `iteration` was handed to [`ProcessSink::on_block`].
    fn on_iteration_complete(&mut self, iteration: u64) {
        let _ = iteration;
    }
}

/// Summary returned by [`ProcessServer::serve`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Iterations fully completed (all clients, all blocks).
    pub iterations_completed: u64,
    /// Blocks consumed.
    pub blocks_received: u64,
    /// Payload bytes consumed out of the shared mapping.
    pub bytes_received: u64,
    /// Client-iterations the skip policy dropped (announced by clients
    /// in their end-of-iteration descriptors).
    pub skipped_client_iterations: u64,
    /// User signals delivered to the plugins.
    pub signals_delivered: u64,
    /// World ranks of clients that died mid-run (reliable heartbeat mesh
    /// only — see [`mini_mpi::SpawnOptions::heartbeat_ms`]); ascending.
    pub dead_ranks: Vec<usize>,
    /// Whether the serve ran in degraded mode: at least one client died
    /// and its staged iterations were closed without it (a dead client
    /// counts as "ended" for every iteration, so survivors keep
    /// completing instead of wedging the node).
    pub degraded: bool,
}

/// World ranks (1-based clients) that ended each staged iteration.
type EndedBy = HashMap<u64, BTreeSet<usize>>;

/// One serve's bookkeeping on the dedicated rank.
struct Serving<'a> {
    comm: &'a Comm,
    clients: usize,
    plugins: &'a PluginSet,
    /// Blocks of in-flight iterations, keyed by 0-based client id.
    store: VariableStore,
    ended: EndedBy,
    dead: BTreeSet<usize>,
    report: ServeReport,
}

impl Serving<'_> {
    /// Complete `iteration` if every client has either ended it or died:
    /// fire the plugins, count it, and acknowledge the survivors.
    fn try_complete(&mut self, iteration: u64) {
        let Some(ended) = self.ended.get(&iteration) else {
            return;
        };
        if !(1..=self.clients).all(|c| ended.contains(&c) || self.dead.contains(&c)) {
            return;
        }
        self.ended.remove(&iteration);
        let blocks = self.store.remove_iteration(iteration);
        self.plugins.fire_iteration(iteration, &blocks);
        self.report.iterations_completed += 1;
        for client in 1..=self.clients {
            if !self.dead.contains(&client) {
                self.comm.send(client, TAG_ACK, &[iteration]);
            }
        }
    }
}

/// The dedicated-core role: owns the segment file, consumes descriptors,
/// reads blocks in place, acknowledges completed iterations.
pub struct ProcessServer {
    cfg: Arc<Configuration>,
    shm: Arc<ShmFile>,
    /// Bytes of the mapping each client owns; client rank `r` writes
    /// only inside `(r-1)*slice .. r*slice`.
    slice: usize,
}

impl ProcessServer {
    /// Create the segment file (sized from the configuration's buffer,
    /// one slice per client) and synchronize with the clients. Must be
    /// called by rank [`DEDICATED_RANK`] of `comm`; every rank must enter
    /// its constructor at the same time (internal barrier).
    pub fn new(comm: &Comm, cfg: Configuration, dir: &std::path::Path) -> DamarisResult<Self> {
        assert_eq!(comm.rank(), DEDICATED_RANK, "server must be rank 0");
        let clients = comm.size() - 1;
        if clients == 0 {
            return Err(DamarisError::InvalidState(
                "a process node needs at least one client rank".into(),
            ));
        }
        let slice = slice_bytes(&cfg, clients)?;
        let shm = ShmFile::create(segment_path(dir), slice * clients)?;
        comm.barrier(); // clients may open the file now
        Ok(ProcessServer {
            cfg: Arc::new(cfg),
            shm: Arc::new(shm),
            slice,
        })
    }

    /// The loaded configuration.
    pub fn config(&self) -> &Configuration {
        &self.cfg
    }

    /// Check one client-sent `(var, offset, len)` descriptor before it
    /// reaches the mapping or a plugin: the bytes must lie inside the
    /// sending rank's slice, the variable must be declared, and the length
    /// must fit its layout.
    fn checked_block(
        &self,
        source: usize,
        var_raw: u64,
        offset: u64,
        len: u64,
    ) -> DamarisResult<(VarId, usize, usize)> {
        let lo = ((source - 1) * self.slice) as u64;
        let hi = lo + self.slice as u64;
        let in_slice = offset >= lo && offset.checked_add(len).is_some_and(|end| end <= hi);
        if !in_slice {
            return Err(DamarisError::InvalidState(format!(
                "rank {source} sent a {len}-byte block at offset {offset}, \
                 outside its slice {lo}..{hi}"
            )));
        }
        let var = u32::try_from(var_raw)
            .map(VarId::from_raw)
            .ok()
            .filter(|&var| self.cfg.registry().get(var).is_some())
            .ok_or_else(|| {
                DamarisError::InvalidState(format!(
                    "rank {source} sent a block of undeclared variable id {var_raw}"
                ))
            })?;
        check_layout(&self.cfg, var, len as usize).map_err(|e| {
            DamarisError::InvalidState(format!("rank {source} sent a misfit block: {e}"))
        })?;
        Ok((var, offset as usize, len as usize))
    }

    /// Serve until every client finalizes **or dies**, firing `plugins`
    /// on each completed iteration and signal, with 0-based client ids
    /// as in the thread world. Finalizing the plugins is the caller's
    /// step ([`PluginSet::finalize`]).
    ///
    /// With the reliable heartbeat mesh, a client crash does not wedge
    /// the node: the dead rank is recorded in
    /// [`ServeReport::dead_ranks`], it counts as "ended" for every
    /// staged and future iteration, and the survivors' iterations keep
    /// completing ([`ServeReport::degraded`]). In the legacy EOF-only
    /// mesh a death still poisons the mailbox and this call panics, as
    /// before.
    ///
    /// A malformed message — an unknown kind, a block outside the sending
    /// rank's slice or misfit for its layout, an undeclared variable or
    /// event — ends the serve with [`DamarisError::InvalidState`] naming
    /// the rank; nothing a client sends can panic the dedicated core.
    pub fn serve(&self, comm: &Comm, plugins: &PluginSet) -> DamarisResult<ServeReport> {
        let clients = comm.size() - 1;
        let mut s = Serving {
            comm,
            clients,
            plugins,
            store: VariableStore::new(),
            ended: EndedBy::new(),
            dead: BTreeSet::new(),
            report: ServeReport::default(),
        };
        let mut finalized: BTreeSet<usize> = BTreeSet::new();
        while (1..=clients).any(|c| !finalized.contains(&c) && !s.dead.contains(&c)) {
            let known_dead: Vec<usize> = s.dead.iter().copied().collect();
            let (msg, source) = match comm.recv_any_or_death::<u64>(TAG_MSG, &known_dead) {
                Ok(pair) => pair,
                Err(newly_dead) => {
                    // Degraded mode: close the dead ranks' staged
                    // iterations and keep serving the survivors.
                    for rank in newly_dead {
                        if rank != DEDICATED_RANK && rank <= clients {
                            s.dead.insert(rank);
                        }
                    }
                    s.report.degraded = true;
                    let staged: Vec<u64> = s.ended.keys().copied().collect();
                    for iteration in staged {
                        s.try_complete(iteration);
                    }
                    continue;
                }
            };
            match msg.first().copied() {
                Some(KIND_BATCH) => {
                    // The whole client-iteration in one envelope: header
                    // plus 3-word write descriptors, indexed in the
                    // client's publish order before the end-of-iteration
                    // effect.
                    let ok = msg.len() >= BATCH_HEADER
                        && (msg.len() - BATCH_HEADER) as u64 == msg[2].saturating_mul(3);
                    if !ok {
                        return Err(DamarisError::InvalidState(format!(
                            "malformed iteration envelope from rank {source}: \
                             {} words announcing {:?} writes",
                            msg.len(),
                            msg.get(2),
                        )));
                    }
                    let (iteration, skipped) = (msg[1], msg[3]);
                    for desc in msg[BATCH_HEADER..].chunks_exact(3) {
                        let (var, offset, len) =
                            self.checked_block(source, desc[0], desc[1], desc[2])?;
                        // The one copy: the client frees its slice range
                        // once the iteration is acknowledged, while
                        // plugins may keep the payload longer.
                        let bytes = self.shm.with_bytes(offset, len, |b| b.to_vec());
                        s.store.insert(StoredBlock {
                            variable: var,
                            source: source - 1,
                            iteration,
                            data: Payload::Owned(Arc::new(bytes)),
                        });
                        s.report.blocks_received += 1;
                        s.report.bytes_received += len as u64;
                    }
                    if skipped != 0 {
                        s.report.skipped_client_iterations += 1;
                    }
                    s.ended.entry(iteration).or_default().insert(source);
                    s.try_complete(iteration);
                }
                Some(KIND_SIGNAL) => {
                    let [_, event_raw, iteration] = msg[..] else {
                        return Err(DamarisError::InvalidState(format!(
                            "malformed signal from rank {source}: {msg:?}"
                        )));
                    };
                    if event_raw >= self.cfg.registry().event_count() as u64 {
                        return Err(DamarisError::InvalidState(format!(
                            "rank {source} raised undeclared event id {event_raw}"
                        )));
                    }
                    let blocks: Vec<StoredBlock> =
                        s.store.iteration_blocks(iteration).cloned().collect();
                    let event = EventId::from_raw(event_raw as u32);
                    plugins.fire_signal(event, source - 1, iteration, &blocks);
                    s.report.signals_delivered += 1;
                }
                Some(KIND_FIN) => {
                    finalized.insert(source);
                }
                other => {
                    return Err(DamarisError::InvalidState(format!(
                        "unknown process-mode message kind {other:?} from rank {source}"
                    )));
                }
            }
        }
        let mut report = s.report;
        report.dead_ranks = s.dead.into_iter().collect();
        report.degraded = !report.dead_ranks.is_empty();
        Ok(report)
    }
}

/// An in-place block being filled by the simulation in process mode (the
/// zero-copy path over the shared mapping). Obtained from
/// [`ProcessClient::alloc`], published with [`ProcessClient::commit`].
pub struct ProcessBlockWriter {
    var: VarId,
    iteration: u64,
    /// `None` when the skip policy dropped the iteration.
    block: Option<Block>,
    /// Started at [`ProcessClient::alloc`], so the recorded write time
    /// covers allocation and in-place fill — same clock placement as the
    /// thread-mode [`crate::client::BlockWriter`].
    t0: Instant,
}

impl SimWriter for ProcessBlockWriter {
    fn is_skipped(&self) -> bool {
        self.block.is_none()
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.block {
            Some(b) => b.as_mut_slice(),
            None => &mut [],
        }
    }

    fn fill_pod<T: damaris_shm::segment::Pod>(&mut self, data: &[T]) {
        if let Some(b) = &mut self.block {
            b.write_pod(data);
        }
    }
}

/// The client role: a private allocator over this rank's slice of the
/// shared file, plus the descriptor protocol to the dedicated core.
///
/// This raw layer threads the [`Comm`] through every call; use
/// [`ProcessHandle`] (or [`crate::Damaris`]) for the paper-shaped
/// comm-free surface.
pub struct ProcessClient {
    cfg: Arc<Configuration>,
    seg: SharedSegment,
    /// File offset of this client's slice inside the mapping.
    base: usize,
    /// Blocks alive until the server acknowledges their iteration.
    pending: HashMap<u64, Vec<BlockRef>>,
    /// The open iteration's coalesced [`KIND_BATCH`] envelope:
    /// [`BATCH_HEADER`] placeholder words followed by one `(var, offset,
    /// len)` triple per publish, flushed by `end_iteration` as a single
    /// message. Cleared but never shrunk, so steady-state publishing
    /// stops allocating once it reaches the working-set size.
    batch: Vec<u64>,
    /// Writes published for the currently open iteration.
    writes_this_iteration: u64,
    /// Highest iteration acknowledged by the server (None before any).
    acked: Option<u64>,
    /// Backpressure admission, identical policy engine to thread mode.
    policy: SkipPolicy,
    /// Lock-free write-latency recorder, identical to thread mode.
    stats: StatsRecorder,
    /// Whether `finalize` already ran (it is idempotent).
    finalized: bool,
}

impl ProcessClient {
    /// Join the node as client rank `comm.rank()` (≥ 1): wait for the
    /// server to create the segment file, map it, and carve this rank's
    /// slice. Every rank must enter its constructor at the same time
    /// (internal barrier).
    pub fn new(comm: &Comm, cfg: Configuration, dir: &std::path::Path) -> DamarisResult<Self> {
        assert_ne!(comm.rank(), DEDICATED_RANK, "rank 0 is the dedicated core");
        let clients = comm.size() - 1;
        let slice = slice_bytes(&cfg, clients)?;
        comm.barrier(); // server created the file before this returns
        let shm = Arc::new(ShmFile::open(segment_path(dir))?);
        let base = (comm.rank() - 1) * slice;
        let classes = cfg.registry().distinct_byte_sizes();
        // Same dynamic-aware default as `NodeBuilder`: size-class
        // upgrades to buddy when any layout is dynamic, so variable-size
        // writes never silently serialize on the slice's first-fit list.
        let allocator = match cfg.architecture.allocator {
            AllocatorKind::SizeClass if cfg.registry().any_dynamic() => AllocatorKind::Buddy,
            other => other,
        };
        let seg = match allocator {
            AllocatorKind::SizeClass => SharedSegment::over_mapping(&shm, base, slice, &classes)?,
            AllocatorKind::Buddy => {
                SharedSegment::over_mapping_with_buddy(&shm, base, slice, &classes)?
            }
            AllocatorKind::FirstFit => SharedSegment::over_mapping(&shm, base, slice, &[])?,
        };
        let policy = SkipPolicy::new(cfg.architecture.skip);
        Ok(ProcessClient {
            cfg: Arc::new(cfg),
            seg,
            base,
            pending: HashMap::new(),
            batch: Vec::new(),
            writes_this_iteration: 0,
            acked: None,
            policy,
            stats: StatsRecorder::new(),
            finalized: false,
        })
    }

    /// The loaded configuration.
    pub fn config(&self) -> &Configuration {
        &self.cfg
    }

    /// Occupancy of this client's slice in `[0, 1]`.
    pub fn slice_occupancy(&self) -> f64 {
        self.seg.occupancy()
    }

    /// Lifetime allocator counters of this client's slice.
    pub fn slice_stats(&self) -> damaris_shm::SegmentStats {
        self.seg.stats()
    }

    /// Resolve a variable name to its interned id (shared validation
    /// with thread mode).
    pub fn var_id(&self, variable: &str) -> DamarisResult<VarId> {
        resolve_var(&self.cfg, variable)
    }

    /// Snapshot of this client's timing statistics — the same lock-free
    /// histogram thread mode reports, so per-rank instrumentation is
    /// uniform regardless of backend.
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot()
    }

    /// Iterations dropped by the skip policy so far.
    pub fn skipped_iterations(&self) -> u64 {
        self.policy.dropped_iterations()
    }

    /// Publish one variable for one iteration: allocate in the shared
    /// mapping, one memcpy, one descriptor message. Under
    /// [`SkipMode::DropIteration`] an iteration starting above the
    /// high-watermark (or exhausting the slice mid-iteration) is dropped
    /// and reported as [`WriteStatus::Skipped`] instead of stalling or
    /// erroring.
    pub fn write<T: damaris_shm::Pod>(
        &mut self,
        comm: &Comm,
        variable: &str,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        let var = self.var_id(variable)?;
        self.write_id(comm, var, iteration, data)
    }

    /// [`ProcessClient::write`] with a pre-resolved [`VarId`].
    pub fn write_id<T: damaris_shm::Pod>(
        &mut self,
        comm: &Comm,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        let t0 = Instant::now();
        let bytes = std::mem::size_of_val(data);
        check_layout(&self.cfg, var, bytes)?;
        let Some(mut block) = self.acquire(comm, var, iteration, bytes)? else {
            return Ok(WriteStatus::Skipped);
        };
        block.write_pod(data);
        self.publish(var, iteration, block);
        self.stats
            .record_write(t0.elapsed().as_nanos() as u64, bytes as u64);
        Ok(WriteStatus::Written)
    }

    /// Zero-copy variant: allocate the block in the shared mapping, let
    /// the caller fill it in place, then [`ProcessClient::commit`] it.
    /// The write-timing clock starts here (allocation + fill counted),
    /// matching thread mode.
    ///
    /// Variables on a `dimensions="dynamic"` layout have no fixed size —
    /// use [`ProcessClient::alloc_sized`] with this write's byte count.
    pub fn alloc(
        &mut self,
        comm: &Comm,
        variable: &str,
        iteration: u64,
    ) -> DamarisResult<ProcessBlockWriter> {
        let t0 = Instant::now();
        let var = self.var_id(variable)?;
        if self.cfg.registry().is_dynamic(var) {
            return Err(DamarisError::InvalidState(format!(
                "variable '{variable}' has a dynamic layout; use alloc_sized with this \
                 write's byte count"
            )));
        }
        let bytes = self.cfg.registry().byte_size(var);
        let block = self.acquire(comm, var, iteration, bytes)?;
        Ok(ProcessBlockWriter {
            var,
            iteration,
            block,
            t0,
        })
    }

    /// [`ProcessClient::alloc`] with a caller-supplied block length —
    /// variable-size (AMR) zero-copy writes over the shared mapping,
    /// same contract as the thread-mode `alloc_sized`.
    pub fn alloc_sized(
        &mut self,
        comm: &Comm,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<ProcessBlockWriter> {
        let t0 = Instant::now();
        let var = self.var_id(variable)?;
        check_layout(&self.cfg, var, bytes)?;
        let block = self.acquire(comm, var, iteration, bytes)?;
        Ok(ProcessBlockWriter {
            var,
            iteration,
            block,
            t0,
        })
    }

    /// Publish a block obtained from [`ProcessClient::alloc`]. The
    /// descriptor joins the iteration's coalesced envelope (no message
    /// until `end_iteration`); the communicator is kept in the signature
    /// for surface stability.
    pub fn commit(
        &mut self,
        _comm: &Comm,
        writer: ProcessBlockWriter,
    ) -> DamarisResult<WriteStatus> {
        match writer.block {
            None => Ok(WriteStatus::Skipped),
            Some(block) => {
                let bytes = block.len();
                self.publish(writer.var, writer.iteration, block);
                self.stats
                    .record_write(writer.t0.elapsed().as_nanos() as u64, bytes as u64);
                Ok(WriteStatus::Written)
            }
        }
    }

    /// Raise a user event on the dedicated core, firing the plugins its
    /// `<action event="…">`s name. Names no `<action>` declares are
    /// silently dropped at this edge, exactly like thread mode.
    pub fn signal(&mut self, comm: &Comm, name: &str, iteration: u64) -> DamarisResult<()> {
        let Some(event) = self.cfg.registry().event_id(name) else {
            return Ok(());
        };
        comm.send(
            DEDICATED_RANK,
            TAG_MSG,
            &[KIND_SIGNAL, u64::from(event.raw()), iteration],
        );
        Ok(())
    }

    /// Mark `iteration` finished: flush the iteration's coalesced batch
    /// envelope (all of its write descriptors plus the end-of-iteration
    /// marker in one message). Blocks while more than `ACK_WINDOW`
    /// iterations are staged un-acknowledged.
    pub fn end_iteration(&mut self, comm: &Comm, iteration: u64) -> DamarisResult<()> {
        let skipped = self.policy.was_dropped(iteration);
        if self.batch.is_empty() {
            self.batch.resize(BATCH_HEADER, 0);
        }
        self.batch[..BATCH_HEADER].copy_from_slice(&[
            KIND_BATCH,
            iteration,
            self.writes_this_iteration,
            u64::from(skipped),
        ]);
        comm.send(DEDICATED_RANK, TAG_MSG, &self.batch);
        self.batch.clear();
        self.writes_this_iteration = 0;
        self.drain_acks(comm);
        while self.pending.len() as u64 > ACK_WINDOW {
            self.wait_ack(comm);
        }
        Ok(())
    }

    /// Announce that this client is done, then wait for every staged
    /// iteration to be acknowledged (so the slice reads empty).
    /// Idempotent: repeated calls after the first are no-ops.
    pub fn finalize(&mut self, comm: &Comm) -> DamarisResult<()> {
        if self.finalized {
            return Ok(());
        }
        while !self.pending.is_empty() {
            self.wait_ack(comm);
        }
        comm.send(DEDICATED_RANK, TAG_MSG, &[KIND_FIN]);
        self.finalized = true;
        Ok(())
    }

    /// Admission plus allocation: `None` means the skip policy dropped
    /// the iteration (either at its first write or on mid-iteration
    /// slice exhaustion in drop mode).
    fn acquire(
        &mut self,
        comm: &Comm,
        var: VarId,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Option<Block>> {
        // Opportunistically retire acknowledged iterations so the slice
        // recycles without blocking.
        self.drain_acks(comm);
        // Transport-pressure analogue: how full the bounded staging
        // window is (the slice occupancy itself is the segment signal).
        let staged = self.pending.len() as f64 / (ACK_WINDOW + 1) as f64;
        if !self.policy.admit(iteration, &self.seg, || staged) {
            self.stats.record_skip();
            return Ok(None);
        }
        loop {
            match self.seg.allocate(bytes) {
                Ok(b) => return Ok(Some(b)),
                Err(damaris_shm::ShmError::OutOfMemory { .. }) => {
                    if self.policy.mode() == SkipMode::DropIteration {
                        // §V.C.1: never stall the simulation. One
                        // non-blocking ack drain; if it retired a staged
                        // iteration, retry — otherwise lose this
                        // iteration's remaining data, exactly like the
                        // thread-mode client on segment exhaustion.
                        let before = self.pending.len();
                        self.drain_acks(comm);
                        if self.pending.len() < before {
                            continue;
                        }
                        self.policy.drop_current(iteration);
                        self.stats.record_skip();
                        return Ok(None);
                    }
                    // Block mode waits on *acknowledgements*, not on the
                    // segment condvar: in process mode every free of this
                    // slice happens on this very thread (ack retirement),
                    // so blocking inside the allocator could never be
                    // woken. Acks only ever retire iterations whose END
                    // was sent; if nothing older than the current
                    // iteration is staged, no ack can come and the slice
                    // genuinely cannot hold this iteration's working set.
                    if !self.pending.keys().any(|&k| k != iteration) {
                        return Err(DamarisError::InvalidState(format!(
                            "client slice of {} bytes cannot hold one iteration's blocks \
                             (writing '{}', {bytes} bytes): grow <buffer size> or \
                             reduce per-iteration data",
                            self.seg.capacity(),
                            self.cfg.var_name(var),
                        )));
                    }
                    self.wait_ack(comm);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn publish(&mut self, var: VarId, iteration: u64, block: Block) {
        let offset = (self.base + block.offset()) as u64;
        let bytes = block.len() as u64;
        let frozen = block.freeze();
        // No message yet: the descriptor joins the iteration's envelope,
        // sent once by `end_iteration`.
        if self.batch.is_empty() {
            self.batch.resize(BATCH_HEADER, 0);
        }
        self.batch
            .extend_from_slice(&[u64::from(var.raw()), offset, bytes]);
        self.pending.entry(iteration).or_default().push(frozen);
        self.writes_this_iteration += 1;
    }

    fn retire(&mut self, iteration: u64) {
        self.acked = Some(self.acked.map_or(iteration, |a| a.max(iteration)));
        // Dropping the BlockRefs frees the ranges back into this slice's
        // allocator (class queues first — the zero-lock recycle path).
        self.pending.remove(&iteration);
    }

    fn drain_acks(&mut self, comm: &Comm) {
        while let Some((ack, _)) = comm.try_recv::<u64>(Source::Rank(DEDICATED_RANK), TAG_ACK) {
            self.retire(ack[0]);
        }
    }

    fn wait_ack(&mut self, comm: &Comm) {
        let ack = comm.recv::<u64>(Source::Rank(DEDICATED_RANK), TAG_ACK);
        self.retire(ack[0]);
    }
}

impl std::fmt::Debug for ProcessClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessClient")
            .field("base", &self.base)
            .field("pending_iterations", &self.pending.len())
            .field("acked", &self.acked)
            .finish()
    }
}

/// A [`ProcessClient`] bundled with its communicator: the process-mode
/// implementation of [`SimHandle`], so simulation code carries one handle
/// instead of threading a [`Comm`] through every call.
pub struct ProcessHandle<'a> {
    client: ProcessClient,
    comm: &'a Comm,
}

impl<'a> ProcessHandle<'a> {
    /// Join the node as a client rank (see [`ProcessClient::new`]) and
    /// bundle the communicator.
    pub fn new(comm: &'a Comm, cfg: Configuration, dir: &std::path::Path) -> DamarisResult<Self> {
        Ok(ProcessHandle {
            client: ProcessClient::new(comm, cfg, dir)?,
            comm,
        })
    }

    /// The wrapped raw client.
    pub fn client(&self) -> &ProcessClient {
        &self.client
    }

    /// The wrapped raw client, mutably.
    pub fn client_mut(&mut self) -> &mut ProcessClient {
        &mut self.client
    }

    /// The bundled communicator.
    pub fn comm(&self) -> &Comm {
        self.comm
    }
}

impl SimHandle for ProcessHandle<'_> {
    type Writer = ProcessBlockWriter;

    fn id(&self) -> usize {
        self.comm.rank() - 1
    }

    fn config(&self) -> &Configuration {
        self.client.config()
    }

    fn var_id(&self, variable: &str) -> DamarisResult<VarId> {
        self.client.var_id(variable)
    }

    fn write_id<T: damaris_shm::segment::Pod>(
        &mut self,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        self.client.write_id(self.comm, var, iteration, data)
    }

    fn alloc(&mut self, variable: &str, iteration: u64) -> DamarisResult<Self::Writer> {
        self.client.alloc(self.comm, variable, iteration)
    }

    fn alloc_sized(
        &mut self,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Self::Writer> {
        self.client
            .alloc_sized(self.comm, variable, iteration, bytes)
    }

    fn commit(&mut self, writer: Self::Writer) -> DamarisResult<WriteStatus> {
        self.client.commit(self.comm, writer)
    }

    fn signal(&mut self, name: &str, iteration: u64) -> DamarisResult<()> {
        self.client.signal(self.comm, name, iteration)
    }

    fn end_iteration(&mut self, iteration: u64) -> DamarisResult<()> {
        self.client.end_iteration(self.comm, iteration)
    }

    fn finalize(&mut self) -> DamarisResult<()> {
        self.client.finalize(self.comm)
    }

    fn stats(&self) -> ClientStats {
        self.client.stats()
    }

    fn skipped_iterations(&self) -> u64 {
        self.client.skipped_iterations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_mpi::World;
    use proptest::prelude::*;

    const XML: &str = r#"<simulation name="wire">
        <architecture><buffer size="65536"/></architecture>
        <data>
          <layout name="row" type="f64" dimensions="8"/>
          <variable name="u" layout="row"/>
        </data>
        <actions>
          <action name="summary" plugin="stats" event="end-of-iteration"/>
          <action name="snap" plugin="stats" event="snap"/>
        </actions>
      </simulation>"#;

    /// Rank 1 sends `msg`, then its goodbye (so a server that accepts
    /// `msg` returns instead of waiting); returns what rank 0's serve
    /// returned. The statistics plugin reads every block that gets
    /// through, so a payload that slipped past validation would panic
    /// here. A panic on the dedicated rank fails the calling test.
    fn serve_crafted(tag: &str, msg: Vec<u64>) -> DamarisResult<ServeReport> {
        let dir = std::env::temp_dir().join(format!("damaris-wire-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let seg_dir = dir.clone();
        let out = World::run(2, move |comm| {
            let cfg = Configuration::from_str(XML).unwrap();
            if comm.rank() == DEDICATED_RANK {
                let plugins = PluginSet::new(cfg.clone(), 0, &seg_dir);
                plugins.register_builtins().unwrap();
                let server = ProcessServer::new(comm, cfg, &seg_dir).unwrap();
                Some(server.serve(comm, &plugins))
            } else {
                comm.barrier(); // the server created the segment
                comm.send(DEDICATED_RANK, TAG_MSG, &msg);
                comm.send(DEDICATED_RANK, TAG_MSG, &[KIND_FIN]);
                None
            }
        });
        std::fs::remove_dir_all(&dir).ok();
        out.into_iter().flatten().next().unwrap()
    }

    fn batch(var: u64, offset: u64, len: u64) -> Vec<u64> {
        vec![KIND_BATCH, 0, 1, 0, var, offset, len]
    }

    #[test]
    fn malformed_descriptors_are_errors_not_panics() {
        // Control: a well-formed envelope inside rank 1's slice is served.
        let report = serve_crafted("ok", batch(0, 64, 64)).expect("valid batch");
        assert_eq!(
            (report.blocks_received, report.iterations_completed),
            (1, 1)
        );

        let slice = 65536;
        for (tag, msg, needle) in [
            ("past-slice", batch(0, slice, 64), "outside its slice"),
            ("wrapping", batch(0, u64::MAX - 7, 64), "outside its slice"),
            (
                "undeclared-var",
                batch(7, 0, 64),
                "undeclared variable id 7",
            ),
            ("misfit-len", batch(0, 0, 13), "misfit block"),
            (
                "undeclared-event",
                vec![KIND_SIGNAL, 3, 0],
                "undeclared event id 3",
            ),
            (
                "retired-kind",
                vec![1, 0, 0, 0, 64],
                "unknown process-mode message kind",
            ),
        ] {
            match serve_crafted(tag, msg) {
                Err(DamarisError::InvalidState(m)) => {
                    assert!(m.contains(needle) && m.contains("rank 1"), "{tag}: {m}")
                }
                other => panic!("{tag}: expected InvalidState, got {other:?}"),
            }
        }
    }

    /// A random client envelope: any kind word (live, retired, unknown),
    /// a batch header announcing roughly as many writes as it carries,
    /// random `(var, offset, len)` triples, random event ids, and a random
    /// truncation of the whole message.
    fn envelope() -> impl Strategy<Value = Vec<u64>> {
        let kind = prop_oneof![
            Just(1u64),
            Just(2u64),
            Just(KIND_FIN),
            Just(KIND_SIGNAL),
            Just(KIND_BATCH),
            Just(KIND_BATCH),
            any::<u64>(),
        ];
        let triple = (
            0u64..3,
            prop_oneof![0u64..131_072, any::<u64>()],
            prop_oneof![Just(64u64), 0u64..256],
        );
        (
            kind,
            0u64..3,
            proptest::collection::vec(triple, 0..4),
            0u64..3,
            0u64..3,
            0usize..16,
        )
            .prop_map(|(kind, iteration, triples, skew, event, keep)| {
                let mut msg = if kind == KIND_SIGNAL {
                    vec![kind, event, iteration]
                } else {
                    let announced = (triples.len() as u64 + skew).saturating_sub(1);
                    let mut m = vec![kind, iteration, announced, skew % 2];
                    m.extend(triples.iter().flat_map(|&(v, o, l)| [v, o, l]));
                    m
                };
                if keep < msg.len() && keep % 3 == 0 {
                    msg.truncate(keep);
                }
                msg
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn random_envelopes_are_served_or_rejected(msg in envelope()) {
            static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let shown = format!("{msg:?}");
            match serve_crafted(&format!("prop{case}"), msg) {
                Ok(_) | Err(DamarisError::InvalidState(_)) => {}
                Err(other) => panic!("{shown}: unexpected error {other:?}"),
            }
        }
    }
}
