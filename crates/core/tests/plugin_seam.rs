//! One consumer seam: the same `Plugin`s, dispatched by the same
//! `PluginSet`, behave the same whether the dedicated core is a thread
//! (`DamarisNode`) or a separate OS process (`ProcessServer` on rank 0 of
//! a spawned world).

use std::sync::{Arc, Mutex};

use damaris_core::plugins::SignalCtx;
use damaris_core::prelude::*;
use damaris_core::process::DEDICATED_RANK;
use mini_mpi::World;

const ITERATIONS: u64 = 7;

fn config(world: &str) -> Configuration {
    Configuration::from_str(&format!(
        r#"<simulation name="seam">
             <architecture>
               <dedicated cores="1"/>
               <clients count="2"/>
               <buffer size="262144"/>
               <queue capacity="64"/>
               <world kind="{world}"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="16"/>
               <variable name="u" layout="row"/>
             </data>
             <actions>
               <action name="thin" plugin="stats" event="end-of-iteration" frequency="3"/>
               <action name="snap" plugin="viz" event="snap"/>
             </actions>
           </simulation>"#
    ))
    .unwrap()
}

/// Both clients write every iteration; client 0 signals at iteration 2,
/// client 1 at iteration 4, and an undeclared name is dropped at the edge.
fn simulate<H: SimHandle>(h: &mut H) {
    for it in 0..ITERATIONS {
        let data = vec![h.id() as f64 + it as f64; 16];
        h.write("u", it, &data).unwrap();
        if it == 2 + 2 * h.id() as u64 {
            h.signal("snap", it).unwrap();
            h.signal("nobody-listens", it).unwrap();
        }
        h.end_iteration(it).unwrap();
    }
    h.finalize().unwrap();
}

/// Records every signal it is routed as `(event, iteration, source)`.
#[derive(Default)]
struct SignalLog(Mutex<Vec<(String, u64, usize)>>);

impl Plugin for SignalLog {
    fn name(&self) -> &str {
        "viz"
    }

    fn on_signal(&self, ctx: &SignalCtx<'_>) -> Result<(), String> {
        let seen = (ctx.name.to_string(), ctx.iteration, ctx.source);
        self.0.lock().unwrap().push(seen);
        Ok(())
    }
}

/// What the dedicated core's plugins saw, in an order-free rendering.
fn observed(stats: &StatsPlugin, log: &SignalLog) -> String {
    let mut signals = log.0.lock().unwrap().clone();
    signals.sort();
    format!("{:?}\n{signals:?}", stats.all())
}

#[test]
fn plugins_see_the_same_iterations_and_signals_in_both_worlds() {
    let processes = World::run_spawned_test(
        3,
        "plugins_see_the_same_iterations_and_signals_in_both_worlds",
        &[],
        |comm, _| {
            let cfg = config("processes");
            let dir = World::spawn_dir().expect("rank runs inside a spawned world");
            if comm.rank() == DEDICATED_RANK {
                let set = PluginSet::new(cfg.clone(), 0, &dir);
                let (stats, log) = (Arc::new(StatsPlugin::new()), Arc::new(SignalLog::default()));
                set.register(stats.clone());
                set.register(log.clone());
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                server.serve(comm, &set).unwrap();
                set.finalize();
                assert!(set.errors().is_empty(), "{:?}", set.errors());
                observed(&stats, &log).into_bytes()
            } else {
                let mut h = ProcessHandle::new(comm, cfg, &dir).unwrap();
                simulate(&mut h);
                Vec::new()
            }
        },
    )
    .expect("process world runs");
    let processes = String::from_utf8(processes[DEDICATED_RANK].clone()).unwrap();

    let node = DamarisNode::builder()
        .config(config("threads"))
        .build()
        .unwrap();
    let (stats, log) = (Arc::new(StatsPlugin::new()), Arc::new(SignalLog::default()));
    node.register_plugin(stats.clone());
    node.register_plugin(log.clone());
    std::thread::scope(|s| {
        for client in node.clients() {
            s.spawn(move || simulate(&mut Damaris::threads(client)));
        }
    });
    let report = node.shutdown().unwrap();
    assert!(
        report.plugin_errors.is_empty(),
        "{:?}",
        report.plugin_errors
    );
    let threads = observed(&stats, &log);

    // frequency="3" thins the summaries to iterations 0, 3 and 6; the
    // signals carry 0-based client ids.
    assert_eq!(stats.iterations_seen(), 3);
    let at_3 = stats.summary(3, "u").unwrap();
    assert_eq!((at_3.count, at_3.min, at_3.max), (32, 3.0, 4.0));
    assert!(
        threads.ends_with(r#"[("snap", 2, 0), ("snap", 4, 1)]"#),
        "{threads}"
    );
    assert_eq!(
        processes, threads,
        "process world saw what the thread world saw"
    );
}

/// A launch whose plugin fails returns the failure instead of `Ok`.
fn launch_with_failing_plugin(world: &str) -> DamarisResult<SimReport> {
    Damaris::launcher(
        config(world),
        "failing_plugin_fails_the_launch_in_both_worlds",
    )
    .test_harness()
    .with_plugin(|| {
        Arc::new(FnPlugin::new("bad", |ctx| {
            Err(format!("boom {}", ctx.iteration))
        }))
    })
    .launch(|h, _| {
        simulate(h);
        Vec::new()
    })
}

#[test]
fn failing_plugin_fails_the_launch_in_both_worlds() {
    // Processes first: a re-executed rank never returns from its launch.
    for world in ["processes", "threads"] {
        match launch_with_failing_plugin(world) {
            Err(DamarisError::InvalidState(msg)) => {
                for it in 0..ITERATIONS {
                    let needle = format!("plugin 'bad' at iteration {it}: boom {it}");
                    assert!(msg.contains(&needle), "{world}: {msg}");
                }
            }
            other => panic!("{world}: expected InvalidState, got {other:?}"),
        }
    }
}
