//! End-to-end process mode: clients and the dedicated core as separate OS
//! processes, events over Unix-domain sockets, block payloads through a
//! file-backed shared-memory segment.

use std::sync::{Arc, Mutex};

use damaris_core::plugins::SignalCtx;
use damaris_core::prelude::*;
use damaris_core::process::{
    segment_path, ProcessClient, ProcessServer, ServeReport, DEDICATED_RANK,
};
use damaris_core::SimWriter;
use mini_mpi::World;

const XML: &str = r#"
  <simulation name="process-mode">
    <architecture>
      <dedicated cores="1"/>
      <buffer size="262144"/>
      <queue capacity="64"/>
    </architecture>
    <data>
      <layout name="row" type="f64" dimensions="64"/>
      <variable name="u" layout="row"/>
      <variable name="v" layout="row"/>
    </data>
  </simulation>"#;

const ITERATIONS: u64 = 8;

fn le_u64s(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The dedicated rank's plugin set (these configurations ask for no
/// built-ins).
fn plugins(server: &ProcessServer, dir: &std::path::Path) -> PluginSet {
    PluginSet::new(server.config().clone(), 0, dir)
}

fn from_le_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn clients_and_dedicated_core_as_processes() {
    // 1 dedicated core + 2 clients, each a real OS process.
    let out = World::run_spawned_test(
        3,
        "clients_and_dedicated_core_as_processes",
        &[],
        |comm, _| {
            let cfg = Configuration::from_str(XML).unwrap();
            let dir = World::spawn_dir().expect("rank runs inside a spawned world");
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let stats = Arc::new(StatsPlugin::new());
                let set = plugins(&server, &dir);
                set.register(stats.clone());
                let report: ServeReport = server.serve(comm, &set).unwrap();
                // Verify data integrity on the server side: iteration 3,
                // variable "u" = 2 clients × 64 values of (client_rank + 3).
                let s = stats.summary(3, "u").unwrap();
                assert_eq!(s.count, 2 * 64);
                assert_eq!(s.min, 1.0 + 3.0);
                assert_eq!(s.max, 2.0 + 3.0);
                assert_eq!(s.mean * s.count as f64, 64.0 * (4.0 + 5.0));
                assert_eq!(stats.iterations_seen(), ITERATIONS);
                le_u64s(&[
                    report.iterations_completed,
                    report.blocks_received,
                    report.bytes_received,
                ])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                for it in 0..ITERATIONS {
                    let data = vec![comm.rank() as f64 + it as f64; 64];
                    assert_eq!(
                        client.write(comm, "u", it, &data).unwrap(),
                        WriteStatus::Written
                    );
                    // "v" takes the zero-copy path: allocate in the shared
                    // mapping, fill in place, commit a descriptor.
                    let mut w = client.alloc(comm, "v", it).unwrap();
                    assert!(!SimWriter::is_skipped(&w));
                    SimWriter::fill_pod(&mut w, &data);
                    assert_eq!(client.commit(comm, w).unwrap(), WriteStatus::Written);
                    client.end_iteration(comm, it).unwrap();
                }
                // Bad writes fail fast without wedging the protocol.
                assert!(matches!(
                    client.write(comm, "ghost", 0, &[0.0f64; 64]),
                    Err(DamarisError::UnknownVariable(_))
                ));
                assert!(matches!(
                    client.write(comm, "u", 0, &[0.0f64; 3]),
                    Err(DamarisError::LayoutMismatch { .. })
                ));
                let stats = client.slice_stats();
                let occupancy_zero = client.slice_occupancy();
                // Process mode records the same lock-free client stats as
                // thread mode: every copy write and zero-copy commit
                // counted with its latency and bytes.
                let cstats = client.stats();
                client.finalize(comm).unwrap();
                le_u64s(&[
                    stats.allocations,
                    stats.class_hits,
                    (occupancy_zero >= 0.0) as u64,
                    cstats.writes,
                    cstats.skipped_writes,
                    cstats.bytes_written,
                    (cstats.max_write_seconds > 0.0) as u64,
                ])
            }
        },
    )
    .expect("process node must succeed");

    let server = from_le_u64s(&out[DEDICATED_RANK]);
    assert_eq!(server[0], ITERATIONS, "iterations completed");
    assert_eq!(server[1], ITERATIONS * 2 * 2, "2 vars × 2 clients per iter");
    assert_eq!(server[2], ITERATIONS * 2 * 2 * 512, "512 bytes per block");
    for (rank, bytes) in out.iter().enumerate().skip(1) {
        let client = from_le_u64s(bytes);
        assert_eq!(client[0], ITERATIONS * 2, "one allocation per write");
        assert!(
            client[1] > 0,
            "recycled iterations must come from the class queues (rank {rank})"
        );
        assert_eq!(client[3], ITERATIONS * 2, "stats count every write");
        assert_eq!(client[4], 0, "nothing skipped");
        assert_eq!(client[5], ITERATIONS * 2 * 512, "bytes recorded");
        assert_eq!(client[6], 1, "latencies recorded (rank {rank})");
    }
}

#[test]
fn oversized_iteration_fails_fast_not_timeout() {
    // A slice that fits exactly one block cannot hold a two-block
    // iteration: no acknowledgement can ever retire the *current*
    // iteration (its END is not sent yet), so the second write must fail
    // immediately with a sizing error — not ride a 60 s allocator
    // timeout, and not deadlock on the segment condvar that nothing in
    // this process could ever signal.
    const TIGHT: &str = r#"
      <simulation name="tight">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="576"/>
          <queue capacity="8"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
      </simulation>"#;
    let out = World::run_spawned_test(2, "oversized_iteration_fails_fast_not_timeout", &[], {
        |comm, _| {
            let cfg = Configuration::from_str(TIGHT).unwrap();
            let dir = World::spawn_dir().unwrap();
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let report = server.serve(comm, &plugins(&server, &dir)).unwrap();
                le_u64s(&[report.blocks_received])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                let data = vec![1.0f64; 64];
                client.write(comm, "u", 0, &data).unwrap();
                let t0 = std::time::Instant::now();
                let err = client.write(comm, "u", 0, &data).unwrap_err();
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(5),
                    "sizing error must be immediate"
                );
                assert!(
                    matches!(err, DamarisError::InvalidState(_)),
                    "expected a sizing error, got {err}"
                );
                // The session stays usable: finish the iteration with the
                // one block that did fit.
                client.end_iteration(comm, 0).unwrap();
                client.finalize(comm).unwrap();
                le_u64s(&[1])
            }
        }
    })
    .expect("world must succeed");
    assert_eq!(from_le_u64s(&out[0]), vec![1], "server saw the one block");
}

#[test]
fn drop_policy_skips_oversized_iterations_instead_of_erroring() {
    // Same slice-too-small shape as the fail-fast test below, but under
    // <skip mode="drop-iteration"/>: the paper's §V.C.1 choice is to lose
    // data rather than stall (or error), so the second write of each
    // iteration must report Skipped, the client must keep running, and
    // the server must see the iterations as (partially) skipped.
    const TIGHT_DROP: &str = r#"
      <simulation name="tight-drop">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="576"/>
          <queue capacity="8"/>
          <skip mode="drop-iteration" high-watermark="1.0"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
      </simulation>"#;
    const ITERS: u64 = 3;
    let out = World::run_spawned_test(
        2,
        "drop_policy_skips_oversized_iterations_instead_of_erroring",
        &[],
        |comm, _| {
            let cfg = Configuration::from_str(TIGHT_DROP).unwrap();
            let dir = World::spawn_dir().unwrap();
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let report = server.serve(comm, &plugins(&server, &dir)).unwrap();
                le_u64s(&[
                    report.iterations_completed,
                    report.blocks_received,
                    report.skipped_client_iterations,
                ])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                let data = vec![1.0f64; 64];
                // Iteration 0 is fully deterministic: the slice starts
                // empty, fits exactly one block (occupancy 512/576 < 1.0
                // never rejects up front), and exhaustion is hit on the
                // second write — which must *drop*, never block or error.
                assert_eq!(
                    client.write(comm, "u", 0, &data).unwrap(),
                    WriteStatus::Written,
                    "first block of iteration 0 fits"
                );
                assert_eq!(
                    client.write(comm, "u", 0, &data).unwrap(),
                    WriteStatus::Skipped,
                    "exhaustion drops the rest of iteration 0"
                );
                assert_eq!(
                    client.write(comm, "u", 0, &data).unwrap(),
                    WriteStatus::Skipped,
                    "the drop decision sticks for iteration 0"
                );
                client.end_iteration(comm, 0).unwrap();
                // Later iterations stay live but are timing-dependent:
                // drop mode never *waits* for the previous iteration's
                // ack, so the first write lands only if the ack already
                // arrived. Assert consistency, not exact statuses.
                for it in 1..ITERS {
                    for _ in 0..3 {
                        client.write(comm, "u", it, &data).unwrap();
                    }
                    client.end_iteration(comm, it).unwrap();
                }
                let stats = client.stats();
                let skipped = client.skipped_iterations();
                client.finalize(comm).unwrap();
                le_u64s(&[stats.writes, stats.skipped_writes, skipped])
            }
        },
    )
    .expect("drop-policy world must succeed");
    let server = from_le_u64s(&out[0]);
    let client = from_le_u64s(&out[1]);
    let (writes, skipped_writes, skipped_iters) = (client[0], client[1], client[2]);
    assert_eq!(server[0], ITERS, "every iteration still completes");
    assert_eq!(server[1], writes, "server consumed exactly what landed");
    assert_eq!(server[2], ITERS, "each iteration announced as skipped");
    assert!(
        (1..=ITERS).contains(&writes),
        "at most one block per iteration fits, iteration 0's always does ({writes})"
    );
    assert_eq!(writes + skipped_writes, ITERS * 3, "every call accounted");
    assert_eq!(skipped_iters, ITERS, "every iteration partially dropped");
}

/// Records every signal it is routed as `(event index, iteration,
/// source)`.
#[derive(Default)]
struct SignalLog(Mutex<Vec<(usize, u64, usize)>>);

impl Plugin for SignalLog {
    fn name(&self) -> &str {
        "viz"
    }

    fn on_signal(&self, ctx: &SignalCtx<'_>) -> Result<(), String> {
        let event = ctx.config.registry().event_id(ctx.name).unwrap();
        self.0
            .lock()
            .unwrap()
            .push((event.index(), ctx.iteration, ctx.source));
        Ok(())
    }
}

#[test]
fn signals_reach_the_dedicated_core_plugin() {
    const WITH_ACTION: &str = r#"
      <simulation name="signals">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="262144"/>
          <queue capacity="64"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
        <actions>
          <action name="snap" plugin="viz" event="take-snapshot"/>
        </actions>
      </simulation>"#;
    let out = World::run_spawned_test(
        2,
        "signals_reach_the_dedicated_core_plugin",
        &[],
        |comm, _| {
            let cfg = Configuration::from_str(WITH_ACTION).unwrap();
            let dir = World::spawn_dir().unwrap();
            if comm.rank() == DEDICATED_RANK {
                let server = ProcessServer::new(comm, cfg, &dir).unwrap();
                let log = Arc::new(SignalLog::default());
                let set = plugins(&server, &dir);
                set.register(log.clone());
                let report = server.serve(comm, &set).unwrap();
                assert_eq!(
                    *log.0.lock().unwrap(),
                    vec![(0, 2, 0)],
                    "event 0, iteration 2, client 0 (world rank 1)"
                );
                le_u64s(&[report.signals_delivered])
            } else {
                let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
                client.write(comm, "u", 2, &vec![4.0f64; 64]).unwrap();
                client.signal(comm, "take-snapshot", 2).unwrap();
                // Undeclared names are filtered at the client edge, exactly
                // like thread mode.
                client.signal(comm, "nobody-listens", 2).unwrap();
                client.end_iteration(comm, 2).unwrap();
                client.finalize(comm).unwrap();
                le_u64s(&[])
            }
        },
    )
    .expect("signal world must succeed");
    assert_eq!(from_le_u64s(&out[0]), vec![1], "one declared signal only");
}

#[test]
fn segment_file_cleaned_up() {
    // The server owns the segment file and must unlink it on drop; the
    // rendezvous dir disappears with the world.
    let out = World::run_spawned_test(2, "segment_file_cleaned_up", &[], |comm, _| {
        let cfg = Configuration::from_str(XML).unwrap();
        let dir = World::spawn_dir().unwrap();
        let path = segment_path(&dir);
        if comm.rank() == DEDICATED_RANK {
            let server = ProcessServer::new(comm, cfg, &dir).unwrap();
            server.serve(comm, &plugins(&server, &dir)).unwrap();
            let existed = path.exists();
            drop(server);
            le_u64s(&[u64::from(existed), u64::from(path.exists())])
        } else {
            let mut client = ProcessClient::new(comm, cfg, &dir).unwrap();
            client.write(comm, "u", 0, &vec![1.0f64; 64]).unwrap();
            client.end_iteration(comm, 0).unwrap();
            client.finalize(comm).unwrap();
            le_u64s(&[])
        }
    })
    .expect("world must succeed");
    assert_eq!(
        from_le_u64s(&out[0]),
        vec![1, 0],
        "segment file exists while serving, unlinked after drop"
    );
}
