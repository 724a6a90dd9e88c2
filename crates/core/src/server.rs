//! The dedicated-core event loop.
//!
//! Each dedicated core runs [`server_loop`] over an
//! [`EventConsumer`] handle of the node's event transport: it drains
//! events, indexes blocks, detects iteration completion (all clients
//! ended the step *and* all announced blocks arrived — necessary because
//! several dedicated cores may drain events concurrently, and, with the
//! sharded transport, because events from different clients may arrive
//! reordered), fires the node's [`PluginSet`], and garbage-collects the
//! iteration's shared memory.
//!
//! The loop is transport-agnostic: a mutex [`damaris_shm::MessageQueue`]
//! and a work-stealing [`damaris_shm::StealingConsumer`] plug in
//! unchanged.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use damaris_shm::transport::EventConsumer;
use damaris_xml::schema::Configuration;
use parking_lot::{Condvar, Mutex};

use crate::event::Event;
use crate::plugins::PluginSet;
use crate::store::{StoredBlock, VariableStore};

/// Progress bookkeeping for one in-flight iteration.
#[derive(Debug, Default)]
struct IterProgress {
    /// Clients that sent `EndIteration`.
    ended: usize,
    /// Blocks those clients announced.
    expected_blocks: u64,
    /// Guards against double-firing when two server threads race.
    fired: bool,
}

/// State shared between all dedicated cores of a node (and the node handle).
pub struct ServerShared {
    pub(crate) n_clients: usize,
    pub(crate) store: Mutex<VariableStore>,
    progress: Mutex<HashMap<u64, IterProgress>>,
    /// The node's plugins and their dispatch rules.
    pub(crate) plugins: PluginSet,
    /// Clients that called finalize, with a condvar for shutdown waits.
    finalized: Mutex<usize>,
    pub(crate) all_finalized: Condvar,
    /// Completed iterations (actions fired, memory reclaimed).
    pub(crate) iterations_completed: AtomicU64,
    /// Skipped client-iterations observed.
    pub(crate) skipped_client_iterations: AtomicU64,
    /// User signals processed (undeclared names never arrive — the
    /// client edge filters them).
    pub(crate) signals_delivered: AtomicU64,
    /// Blocks consumed off the transport.
    pub(crate) blocks_received: AtomicU64,
    /// Payload bytes of those blocks.
    pub(crate) bytes_received: AtomicU64,
    /// Nanoseconds the dedicated cores spent doing work.
    pub(crate) busy_nanos: AtomicU64,
    /// Nanoseconds the dedicated cores spent idle (waiting for events) —
    /// the §IV.D "idle 92–99 % of the time" measurement at node scale.
    pub(crate) idle_nanos: AtomicU64,
}

impl ServerShared {
    /// Shared state of one node's dedicated cores; registers the
    /// configuration's built-in plugins (see [`PluginSet::register_builtins`]).
    pub(crate) fn new(
        cfg: Arc<Configuration>,
        node_id: usize,
        n_clients: usize,
        output_dir: PathBuf,
    ) -> Result<Self, String> {
        let plugins = PluginSet::new(cfg, node_id, output_dir);
        plugins.register_builtins()?;
        Ok(ServerShared {
            n_clients,
            store: Mutex::new(VariableStore::new()),
            progress: Mutex::new(HashMap::new()),
            plugins,
            finalized: Mutex::new(0),
            all_finalized: Condvar::new(),
            iterations_completed: AtomicU64::new(0),
            skipped_client_iterations: AtomicU64::new(0),
            signals_delivered: AtomicU64::new(0),
            blocks_received: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            idle_nanos: AtomicU64::new(0),
        })
    }

    /// Block until every client has finalized (returns false on timeout).
    pub(crate) fn wait_all_finalized(&self, timeout: std::time::Duration) -> bool {
        let mut n = self.finalized.lock();
        while *n < self.n_clients {
            if self.all_finalized.wait_for(&mut n, timeout).timed_out() {
                return false;
            }
        }
        true
    }

    /// Fraction of time the dedicated cores sat idle so far.
    pub fn idle_fraction(&self) -> f64 {
        let busy = self.busy_nanos.load(Ordering::Relaxed) as f64;
        let idle = self.idle_nanos.load(Ordering::Relaxed) as f64;
        if busy + idle == 0.0 {
            return 1.0;
        }
        idle / (busy + idle)
    }

    /// Fire-and-collect if iteration `it` became complete. Returns true if
    /// this call fired it.
    fn maybe_complete(&self, it: u64) -> bool {
        let blocks = {
            let mut progress = self.progress.lock();
            let mut store = self.store.lock();
            let Some(p) = progress.get_mut(&it) else {
                return false;
            };
            if p.fired || p.ended < self.n_clients || (store.count(it) as u64) < p.expected_blocks {
                return false;
            }
            p.fired = true;
            progress.remove(&it);
            // Taken out of the store before firing, so other server
            // threads keep indexing while the plugins run.
            store.remove_iteration(it)
        };
        self.plugins.fire_iteration(it, &blocks);
        self.iterations_completed.fetch_add(1, Ordering::Relaxed);
        // `blocks` dropped here: the shared memory is reclaimed once the
        // plugins drop their own references.
        true
    }
}

/// Run one dedicated core until the transport is closed and drained.
pub fn server_loop<C: EventConsumer<Event>>(shared: Arc<ServerShared>, mut events: C) {
    loop {
        let wait_start = Instant::now();
        let event = match events.recv() {
            Ok(ev) => ev,
            Err(_) => break, // closed and drained
        };
        shared
            .idle_nanos
            .fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let busy_start = Instant::now();
        match event {
            Event::Write {
                variable,
                iteration,
                source,
                block,
            } => {
                shared.blocks_received.fetch_add(1, Ordering::Relaxed);
                shared
                    .bytes_received
                    .fetch_add(block.len() as u64, Ordering::Relaxed);
                shared.store.lock().insert(StoredBlock {
                    variable,
                    source,
                    iteration,
                    data: block.into(),
                });
                shared.maybe_complete(iteration);
            }
            Event::EndIteration {
                source: _,
                iteration,
                writes,
                skipped,
            } => {
                {
                    let mut progress = shared.progress.lock();
                    let p = progress.entry(iteration).or_default();
                    p.ended += 1;
                    p.expected_blocks += writes;
                    if skipped {
                        shared
                            .skipped_client_iterations
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                shared.maybe_complete(iteration);
            }
            Event::Signal {
                event,
                source,
                iteration,
            } => {
                shared.signals_delivered.fetch_add(1, Ordering::Relaxed);
                let blocks: Vec<StoredBlock> = shared
                    .store
                    .lock()
                    .iteration_blocks(iteration)
                    .cloned()
                    .collect();
                shared
                    .plugins
                    .fire_signal(event, source, iteration, &blocks);
            }
            Event::ClientFinalize { .. } => {
                let mut n = shared.finalized.lock();
                *n += 1;
                if *n >= shared.n_clients {
                    shared.all_finalized.notify_all();
                }
            }
        }
        shared
            .busy_nanos
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::{FnPlugin, Plugin, SignalCtx};
    use damaris_shm::transport::{EventChannel, EventProducer, ShardedChannel};
    use damaris_shm::{MessageQueue, SharedSegment};
    use std::sync::atomic::AtomicUsize;

    fn config(actions: &str) -> Arc<Configuration> {
        Arc::new(
            Configuration::from_str(&format!(
                r#"<simulation name="t">
                     <data>
                       <layout name="l" type="f64" dimensions="2"/>
                       <variable name="u" layout="l"/>
                     </data>
                     {actions}
                   </simulation>"#
            ))
            .unwrap(),
        )
    }

    fn write_event(seg: &SharedSegment, it: u64, source: usize) -> Event {
        let mut b = seg.allocate(16).unwrap();
        b.write_pod(&[source as f64, it as f64]);
        Event::Write {
            variable: damaris_xml::VarId::from_raw(0), // "u" in `config()`
            iteration: it,
            source,
            block: b.freeze(),
        }
    }

    /// Drive a server loop synchronously by closing the queue first.
    fn run_events(shared: &Arc<ServerShared>, events: Vec<Event>) {
        let queue = MessageQueue::bounded(events.len().max(1));
        for e in events {
            queue.send(e).unwrap();
        }
        queue.close();
        server_loop(shared.clone(), queue);
    }

    /// Same, but through the sharded transport (events keyed by source).
    fn run_events_sharded(shared: &Arc<ServerShared>, clients: usize, events: Vec<Event>) {
        let ch: ShardedChannel<Event> = ShardedChannel::new(clients, events.len().max(1));
        for e in events {
            let p = ch.producer(e.source());
            p.send(e).unwrap();
        }
        EventChannel::close(&ch);
        server_loop(shared.clone(), ch.consumer(0, 1));
    }

    #[test]
    fn iteration_fires_once_all_clients_and_blocks_arrive() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()).unwrap());
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        shared
            .plugins
            .register(Arc::new(FnPlugin::new("probe", move |ctx| {
                assert_eq!(ctx.blocks.len(), 2);
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 0, 1),
                Event::EndIteration {
                    source: 1,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(shared.iterations_completed.load(Ordering::Relaxed), 1);
        assert_eq!(seg.used_bytes(), 0, "iteration memory reclaimed");
    }

    #[test]
    fn out_of_order_block_after_end_iteration_still_completes() {
        // Mimics two dedicated cores racing: EndIteration processed before
        // the matching Write. The expected-block count holds firing back.
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()).unwrap());
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        shared
            .plugins
            .register(Arc::new(FnPlugin::new("probe", move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 0, 0),
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn action_frequency_respected() {
        let cfg = config(
            r#"<actions>
                 <action name="dump" plugin="probe" event="end-of-iteration" frequency="2"/>
               </actions>"#,
        );
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()).unwrap());
        let fired = Arc::new(Mutex::new(Vec::new()));
        let f = fired.clone();
        shared
            .plugins
            .register(Arc::new(FnPlugin::new("probe", move |ctx| {
                f.lock().push(ctx.iteration);
                Ok(())
            })));
        let seg = SharedSegment::new(8192).unwrap();
        let mut events = Vec::new();
        for it in 0..5 {
            events.push(write_event(&seg, it, 0));
            events.push(Event::EndIteration {
                source: 0,
                iteration: it,
                writes: 1,
                skipped: false,
            });
        }
        run_events(&shared, events);
        assert_eq!(
            *fired.lock(),
            vec![0, 2, 4],
            "frequency=2 fires on even steps"
        );
        assert_eq!(shared.iterations_completed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn signals_fire_matching_actions() {
        let cfg = config(
            r#"<actions>
                 <action name="snap" plugin="viz" event="user-snapshot"/>
                 <action name="other" plugin="someone-else" event="unrelated"/>
               </actions>"#,
        );
        let snapshot = cfg.registry().event_id("user-snapshot").unwrap();
        let unrelated = cfg.registry().event_id("unrelated").unwrap();
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()).unwrap());
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        struct SignalProbe(Arc<AtomicUsize>);
        impl Plugin for SignalProbe {
            fn name(&self) -> &str {
                "viz"
            }
            fn on_signal(&self, ctx: &SignalCtx<'_>) -> Result<(), String> {
                assert_eq!(ctx.name, "user-snapshot");
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        shared.plugins.register(Arc::new(SignalProbe(f)));
        run_events(
            &shared,
            vec![
                Event::Signal {
                    event: snapshot,
                    source: 0,
                    iteration: 0,
                },
                Event::Signal {
                    event: unrelated,
                    source: 0,
                    iteration: 0,
                },
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn plugin_errors_collected_not_fatal() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()).unwrap());
        shared
            .plugins
            .register(Arc::new(FnPlugin::new("bad", |_| Err("kaboom".into()))));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 1, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 1,
                    writes: 1,
                    skipped: false,
                },
            ],
        );
        let errors = shared.plugins.errors();
        assert_eq!(
            errors.len(),
            2,
            "one error per iteration, service kept going"
        );
        assert!(errors[0].contains("kaboom"));
    }

    #[test]
    fn skipped_iterations_fire_with_partial_blocks() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()).unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        shared
            .plugins
            .register(Arc::new(FnPlugin::new("probe", move |ctx| {
                s.lock().push(ctx.blocks.len());
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                // Client 1 skipped the whole iteration.
                Event::EndIteration {
                    source: 1,
                    iteration: 0,
                    writes: 0,
                    skipped: true,
                },
            ],
        );
        assert_eq!(*seen.lock(), vec![1], "fires with one client's blocks");
        assert_eq!(shared.skipped_client_iterations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn iteration_completes_over_sharded_transport() {
        // The same completion logic must hold when events arrive through
        // per-client rings drained by a stealing consumer.
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()).unwrap());
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        shared
            .plugins
            .register(Arc::new(FnPlugin::new("probe", move |ctx| {
                assert_eq!(ctx.blocks.len(), 2);
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events_sharded(
            &shared,
            2,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 0, 1),
                Event::EndIteration {
                    source: 1,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(shared.iterations_completed.load(Ordering::Relaxed), 1);
        assert_eq!(seg.used_bytes(), 0, "iteration memory reclaimed");
    }

    #[test]
    fn finalize_notifies_waiters() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()).unwrap());
        let queue: MessageQueue<Event> = MessageQueue::bounded(8);
        let s2 = shared.clone();
        let q2 = queue.clone();
        let server = std::thread::spawn(move || server_loop(s2, q2));
        queue.send(Event::ClientFinalize { source: 0 }).unwrap();
        queue.send(Event::ClientFinalize { source: 1 }).unwrap();
        assert!(shared.wait_all_finalized(std::time::Duration::from_secs(5)));
        queue.close();
        server.join().unwrap();
        assert!(shared.idle_fraction() > 0.0);
    }
}
