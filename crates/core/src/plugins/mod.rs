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
//! [`Plugin`]; closures are supported through [`FnPlugin`]. Built-ins:
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

pub use serve::{ServePlugin, ServeSink};
pub use stats::{StatsPlugin, VariableSummary};
pub use storage::{StorageEngine, StoragePlugin, StorageSink, StorageStats};

use std::path::Path;

use damaris_xml::schema::{Action, Configuration};

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
    /// clients), ordered by `(variable, source)`. Zero-copy views into
    /// shared memory; resolve names and layouts through
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
    /// Client that raised it.
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
