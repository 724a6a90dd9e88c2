//! The plugin system.
//!
//! Paper §III.A: "The second strength of Damaris consists in a plugin
//! system which makes the design of custom data management services
//! straightforward. Plugins can be written in C or C++ as dynamic
//! libraries, or even in Python scripts […] This plugin system may simply
//! be used to forward I/O operations to the HDF5 library, but it can also
//! be (and has been) used to integrate statistical analysis […] and
//! visualization tasks."
//!
//! In this Rust reproduction a plugin is any `Send + Sync` implementor of
//! [`Plugin`]; closures are supported through [`FnPlugin`]. It is the one
//! consumer seam of both worlds: a [`PluginSet`] dispatches the same
//! [`IterationCtx`] / [`SignalCtx`] whether the thread world's
//! [`crate::server::server_loop`] or the process world's
//! [`crate::ProcessServer::serve`] drives it. Built-ins, each written
//! once:
//!
//! * [`StoragePlugin`] (`plugin="storage"`) — the storage pipeline behind
//!   `<store type="h5lite">` and the **only path to disk**: per-variable
//!   codec compression into one chunked h5lite file per node (the
//!   aggregation-without-communication at the heart of §IV.C), fsync'd
//!   off the hot path (see [`storage`](self::StorageEngine));
//! * [`StatsPlugin`] (`plugin="stats"`) — streaming min/max/mean/σ per
//!   variable, the "statistical analysis" plugin class;
//! * [`ServePlugin`] (`plugin="serve"`) — the subscriber streaming tier
//!   behind `<serve listen="…">`: every completed iteration is published
//!   to concurrent TCP subscribers with bounded per-subscriber queues
//!   (see `damaris_serve`).

mod serve;
mod stats;
mod storage;

pub use serve::ServePlugin;
pub use stats::{StatsPlugin, VariableSummary};
pub use storage::{StorageEngine, StoragePlugin, StorageStats};

use std::path::{Path, PathBuf};
use std::sync::Arc;

use damaris_xml::schema::{Action, Configuration, Trigger};
use damaris_xml::EventId;
use parking_lot::{Mutex, RwLock};

use crate::store::StoredBlock;

/// Everything a plugin sees when an iteration completes on this node.
pub struct IterationCtx<'a> {
    /// The completed simulation time step.
    pub iteration: u64,
    /// This node's id.
    pub node_id: usize,
    /// Simulation name from the configuration.
    pub simulation: &'a str,
    /// Every block published for this iteration (all variables, all
    /// clients), ordered by `(variable, source)`. Shared-memory views in
    /// the thread world, shared owned copies in the process world;
    /// resolve names and layouts through
    /// [`Configuration::var_name`] / [`Configuration::layout_of_id`].
    pub blocks: &'a [StoredBlock],
    /// The full data description.
    pub config: &'a Configuration,
    /// Directory plugins should write artifacts into.
    pub output_dir: &'a Path,
    /// The action that triggered this invocation (parameters live here).
    pub action: &'a Action,
}

/// Context for a user signal ([`crate::client::DamarisClient::signal`]).
pub struct SignalCtx<'a> {
    /// Signal name.
    pub name: &'a str,
    /// Client that raised it (0-based client id, in both worlds).
    pub source: usize,
    /// Iteration during which it was raised.
    pub iteration: u64,
    /// Blocks currently indexed for that iteration (possibly incomplete).
    pub blocks: &'a [StoredBlock],
    /// The full data description.
    pub config: &'a Configuration,
    /// Directory plugins should write artifacts into.
    pub output_dir: &'a Path,
    /// The action that triggered this invocation.
    pub action: &'a Action,
}

/// A data-management service running on the dedicated cores.
pub trait Plugin: Send + Sync {
    /// Identifier matched against `<action plugin="…">`.
    fn name(&self) -> &str;

    /// Called when every client of the node has finished an iteration and
    /// all of its blocks are indexed.
    fn on_iteration(&self, _ctx: &IterationCtx<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Called when a client raises a matching user event.
    fn on_signal(&self, _ctx: &SignalCtx<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Called once at node shutdown, after every client finalized and the
    /// dedicated cores drained — the place to close files and release
    /// long-lived resources (the storage pipeline finishes and syncs its
    /// per-node file here). Errors are collected into the node report's
    /// plugin errors, never fatal.
    fn on_finalize(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A plugin defined by a closure — the Rust equivalent of the paper's
/// "Python script" plugins: one-liner custom services.
///
/// ```
/// use damaris_core::plugins::{FnPlugin, Plugin};
/// let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
/// let c2 = count.clone();
/// let plugin = FnPlugin::new("counter", move |ctx| {
///     c2.fetch_add(ctx.blocks.len() as u64, std::sync::atomic::Ordering::Relaxed);
///     Ok(())
/// });
/// assert_eq!(plugin.name(), "counter");
/// ```
pub struct FnPlugin<F> {
    name: String,
    f: F,
}

impl<F> FnPlugin<F>
where
    F: Fn(&IterationCtx<'_>) -> Result<(), String> + Send + Sync,
{
    /// Wrap a closure as an end-of-iteration plugin.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnPlugin {
            name: name.into(),
            f,
        }
    }
}

impl<F> Plugin for FnPlugin<F>
where
    F: Fn(&IterationCtx<'_>) -> Result<(), String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        (self.f)(ctx)
    }
}

/// A registered plugin plus the end-of-iteration actions that fire it,
/// resolved once at registration.
struct Entry {
    plugin: Arc<dyn Plugin>,
    /// End-of-iteration actions naming the plugin; a plugin no action
    /// names fires every iteration under a default action.
    on_iteration: Vec<Action>,
}

#[derive(Default)]
struct Registry {
    entries: Vec<Entry>,
    /// Typed handles of the built-ins, so a node can report their
    /// counters; cleared when the built-in is replaced.
    storage: Option<Arc<StoragePlugin>>,
    serve: Option<Arc<ServePlugin>>,
}

/// The plugins of one node and the rules that dispatch to them: action
/// matching (`<action plugin="…" frequency="…">`), signal routing
/// (`<action event="…">`), error collection, and built-in
/// registration. Every dedicated core of a node shares one set; the
/// thread world's event loop and the process world's dedicated rank both
/// drive it, so a plugin behaves the same in either world.
pub struct PluginSet {
    cfg: Arc<Configuration>,
    node_id: usize,
    output_dir: PathBuf,
    /// Actions per interned user event, so a signal dispatch is an index
    /// instead of a scan over every declared action.
    signal_actions: Vec<Vec<Action>>,
    registry: RwLock<Registry>,
    /// Plugin failures (collected, never fatal to the service).
    errors: Mutex<Vec<String>>,
}

impl PluginSet {
    /// An empty set for one node: plugin artifacts (and a `<store>`
    /// without `path`) go to `output_dir`; `node_id` names the node's
    /// file. [`PluginSet::register_builtins`] adds what the configuration
    /// asks for.
    pub fn new(
        cfg: impl Into<Arc<Configuration>>,
        node_id: usize,
        output_dir: impl Into<PathBuf>,
    ) -> Self {
        let cfg = cfg.into();
        let registry = cfg.registry();
        let mut signal_actions = vec![Vec::new(); registry.event_count()];
        for action in &cfg.actions {
            if let Trigger::Event(name) = &action.trigger {
                if let Some(id) = registry.event_id(name) {
                    signal_actions[id.index()].push(action.clone());
                }
            }
        }
        PluginSet {
            cfg,
            node_id,
            output_dir: output_dir.into(),
            signal_actions,
            registry: RwLock::new(Registry::default()),
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Register the built-ins the configuration asks for: the storage
    /// pipeline when `<store>` is declared, the streaming tier when
    /// `<serve>` is, and `stats`/`storage` when an `<action>` names them.
    pub fn register_builtins(&self) -> Result<(), String> {
        let (cfg, dir) = (&self.cfg, &self.output_dir);
        let named = |plugin: &str| cfg.actions.iter().any(|a| a.plugin == plugin);
        if cfg.architecture.store.is_some() || named("storage") {
            let plugin = Arc::new(StoragePlugin::new(cfg, self.node_id, dir)?);
            self.registry.write().storage = Some(plugin.clone());
            self.push(plugin);
        }
        if cfg.architecture.serve.is_some() {
            let plugin = Arc::new(ServePlugin::new(cfg, dir)?);
            self.registry.write().serve = Some(plugin.clone());
            self.push(plugin);
        }
        if named("stats") {
            self.push(Arc::new(StatsPlugin::new()));
        }
        Ok(())
    }

    fn push(&self, plugin: Arc<dyn Plugin>) {
        let name = plugin.name();
        let mut declared = false;
        let mut on_iteration = Vec::new();
        for action in self.cfg.actions.iter().filter(|a| a.plugin == name) {
            declared = true;
            if let Trigger::EndOfIteration { .. } = action.trigger {
                on_iteration.push(action.clone());
            }
        }
        if !declared {
            on_iteration.push(Action {
                name: name.to_string(),
                plugin: name.to_string(),
                trigger: Trigger::EndOfIteration { frequency: 1 },
                params: vec![],
            });
        }
        self.registry.write().entries.push(Entry {
            plugin,
            on_iteration,
        });
    }

    /// Add a plugin. One already registered under the same name — a
    /// built-in included — is replaced and finalized
    /// ([`Plugin::on_finalize`]), and a replaced built-in's typed handle
    /// ([`PluginSet::storage`], [`PluginSet::serve`]) reads `None` from
    /// then on: the caller holds its own handle to the replacement.
    pub fn register(&self, plugin: Arc<dyn Plugin>) {
        let replaced: Vec<Entry> = {
            let mut reg = self.registry.write();
            match plugin.name() {
                "storage" => reg.storage = None,
                "serve" => reg.serve = None,
                _ => {}
            }
            let (replaced, kept) = std::mem::take(&mut reg.entries)
                .into_iter()
                .partition(|e| e.plugin.name() == plugin.name());
            reg.entries = kept;
            replaced
        };
        for old in replaced {
            self.finalize_one(old.plugin.as_ref());
        }
        self.push(plugin);
    }

    /// The auto-registered storage pipeline, unless replaced.
    pub fn storage(&self) -> Option<Arc<StoragePlugin>> {
        self.registry.read().storage.clone()
    }

    /// The auto-registered streaming server, unless replaced.
    pub fn serve(&self) -> Option<Arc<ServePlugin>> {
        self.registry.read().serve.clone()
    }

    /// Errors collected so far, in the order they happened.
    pub fn errors(&self) -> Vec<String> {
        self.errors.lock().clone()
    }

    /// Run every plugin whose actions select `iteration`, in registration
    /// order, once the iteration is complete (every client ended it and
    /// all its blocks are indexed). Errors are collected, never fatal.
    pub fn fire_iteration(&self, iteration: u64, blocks: &[StoredBlock]) {
        let reg = self.registry.read();
        for entry in &reg.entries {
            for action in &entry.on_iteration {
                let Trigger::EndOfIteration { frequency } = action.trigger else {
                    continue;
                };
                if !iteration.is_multiple_of(frequency) {
                    continue;
                }
                let ctx = IterationCtx {
                    iteration,
                    node_id: self.node_id,
                    simulation: &self.cfg.name,
                    blocks,
                    config: &self.cfg,
                    output_dir: &self.output_dir,
                    action,
                };
                if let Err(msg) = entry.plugin.on_iteration(&ctx) {
                    self.errors.lock().push(format!(
                        "plugin '{}' at iteration {iteration}: {msg}",
                        entry.plugin.name()
                    ));
                }
            }
        }
    }

    /// Route a user event raised by client `source` during `iteration` to
    /// the plugins its `<action event="…">`s name; `blocks` are the
    /// iteration's blocks indexed so far.
    pub fn fire_signal(
        &self,
        event: EventId,
        source: usize,
        iteration: u64,
        blocks: &[StoredBlock],
    ) {
        let name = self.cfg.registry().event_name(event);
        let reg = self.registry.read();
        for action in &self.signal_actions[event.index()] {
            for entry in reg
                .entries
                .iter()
                .filter(|e| e.plugin.name() == action.plugin)
            {
                let ctx = SignalCtx {
                    name,
                    source,
                    iteration,
                    blocks,
                    config: &self.cfg,
                    output_dir: &self.output_dir,
                    action,
                };
                if let Err(msg) = entry.plugin.on_signal(&ctx) {
                    self.errors.lock().push(format!(
                        "plugin '{}' on signal '{name}': {msg}",
                        entry.plugin.name()
                    ));
                }
            }
        }
    }

    /// Finalize every plugin (after the dedicated cores drained): the
    /// storage pipeline closes its file, the streaming tier says goodbye.
    pub fn finalize(&self) {
        for entry in &self.registry.read().entries {
            self.finalize_one(entry.plugin.as_ref());
        }
    }

    fn finalize_one(&self, plugin: &dyn Plugin) {
        if let Err(msg) = plugin.on_finalize() {
            self.errors
                .lock()
                .push(format!("plugin '{}' at finalize: {msg}", plugin.name()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_xml::schema::Trigger;

    #[test]
    fn fn_plugin_invokes_closure() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let p = FnPlugin::new("probe", move |ctx| {
            h.fetch_add(ctx.iteration, Ordering::Relaxed);
            Ok(())
        });
        let cfg = Configuration::default();
        let action = Action {
            name: "probe".into(),
            plugin: "probe".into(),
            trigger: Trigger::EndOfIteration { frequency: 1 },
            params: vec![],
        };
        let ctx = IterationCtx {
            iteration: 5,
            node_id: 0,
            simulation: "t",
            blocks: &[],
            config: &cfg,
            output_dir: Path::new("/tmp"),
            action: &action,
        };
        p.on_iteration(&ctx).unwrap();
        p.on_iteration(&ctx).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        // Default signal handler is a no-op.
        let sctx = SignalCtx {
            name: "s",
            source: 0,
            iteration: 0,
            blocks: &[],
            config: &cfg,
            output_dir: Path::new("/tmp"),
            action: &action,
        };
        p.on_signal(&sctx).unwrap();
    }
}
