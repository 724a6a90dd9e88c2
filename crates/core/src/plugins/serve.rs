//! The serving-tier glue: one `damaris_serve::StreamServer` behind the
//! plugin seam, in both worlds.
//!
//! [`ServePlugin`] runs on the dedicated core at iteration completion and
//! publishes clones of the completed blocks' payloads, in `(variable,
//! source)` order with 0-based client ids. In the thread world those are
//! shared-segment views: the bytes never leave the segment until the poll
//! thread writes the last subscriber frame referencing them. In the
//! process world they are the one owned copy the dedicated rank made of
//! each block. Either way the DATA frames are byte-identical across
//! worlds.
//!
//! It is auto-registered from `<serve listen="addr:port" …/>` — see
//! [`super::PluginSet::register_builtins`].

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use damaris_serve::{PublishBlock, ServeOptions, ServeStats, StreamServer};
use damaris_xml::schema::Configuration;

use super::{IterationCtx, Plugin};

/// How long shutdown lets the poll thread flush queued frames before
/// force-closing slow subscribers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The serving plugin (`plugin="serve"`), auto-registered when the
/// configuration has a `<serve>` element.
pub struct ServePlugin {
    server: StreamServer,
}

impl ServePlugin {
    /// Bind the streaming server per the `<serve>` element (relative
    /// `addr_file` resolves against `output_dir`).
    pub fn new(cfg: &Configuration, output_dir: &Path) -> Result<Self, String> {
        let sc = cfg.architecture.serve.clone().unwrap_or_default();
        let addr_file = sc.addr_file.map(|p| {
            let p = PathBuf::from(p);
            if p.is_absolute() {
                p
            } else {
                output_dir.join(p)
            }
        });
        let server = StreamServer::bind(ServeOptions {
            listen: sc.listen.clone(),
            queue_frames: sc.queue_frames as usize,
            simulation: cfg.name.clone(),
            addr_file,
        })
        .map_err(|e| format!("serve: cannot bind '{}': {e}", sc.listen))?;
        Ok(ServePlugin { server })
    }

    /// The bound address (resolves an ephemeral `listen="…:0"` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Serving counters.
    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }
}

impl Plugin for ServePlugin {
    fn name(&self) -> &str {
        "serve"
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        let blocks = ctx
            .blocks
            .iter()
            .map(|b| PublishBlock {
                variable: ctx.config.var_name(b.variable).to_string(),
                source: b.source as u64,
                // No byte copy: the frame holds the payload alive until
                // the last subscriber write completes.
                payload: b.data.clone(),
            })
            .collect();
        self.server.publish(ctx.iteration, blocks);
        Ok(())
    }

    fn on_finalize(&self) -> Result<(), String> {
        self.server.shutdown(DRAIN_TIMEOUT);
        Ok(())
    }
}
