//! The closed-loop simulation each client runs: compute, then call
//! Damaris. Written once against `SimHandle`, so both worlds run it.

use damaris::apps::ProxyApp;
use damaris::core::prelude::*;

use crate::host::mono_ns;
use crate::trace::{Call, Span, Tracer, NO_PARENT};
use crate::workload::{self, AmrInput, Params, Workload};

/// What one client measured in one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientOut {
    /// `mono_ns` at entry of the client function.
    pub start_ns: u64,
    /// Per timed iteration, in order: first Damaris call to the return of
    /// `end_iteration`, ns.
    pub io_ns: Vec<u64>,
    /// Per timed iteration: `mono_ns` at entry of `end_iteration`.
    pub end_entry_ns: Vec<u64>,
    /// `mono_ns` at entry of `finalize`.
    pub finalize_ns: u64,
    /// Iterations (0 = warm-up) in which a call failed or was skipped.
    pub failed_iterations: Vec<u64>,
    /// `SimHandle::stats().skipped_writes` at the end.
    pub skipped_writes: u64,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl ClientOut {
    /// Encode as bytes (process world result).
    pub fn encode(&self) -> Vec<u8> {
        let mut words = vec![
            self.start_ns,
            self.finalize_ns,
            self.skipped_writes,
            self.io_ns.len() as u64,
            self.failed_iterations.len() as u64,
        ];
        words.extend(&self.io_ns);
        words.extend(&self.end_entry_ns);
        words.extend(&self.failed_iterations);
        words.extend(Tracer::to_words(&self.spans));
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Decode what [`ClientOut::encode`] produced.
    pub fn decode(bytes: &[u8]) -> ClientOut {
        let w: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word")))
            .collect();
        let (n, f) = (w[3] as usize, w[4] as usize);
        ClientOut {
            start_ns: w[0],
            finalize_ns: w[1],
            skipped_writes: w[2],
            io_ns: w[5..5 + n].to_vec(),
            end_entry_ns: w[5 + n..5 + 2 * n].to_vec(),
            failed_iterations: w[5 + 2 * n..5 + 2 * n + f].to_vec(),
            spans: Tracer::from_words(&w[5 + 2 * n + f..]),
        }
    }
}

/// Run one session's client: iteration 0, then `wait_go` (the world is
/// declared ready), then the untimed warm-up and the timed iterations.
/// `barrier` is the AMR halo-exchange stand-in (thread world only).
pub fn run<H: SimHandle>(
    h: &mut H,
    p: &Params,
    amr: Option<&AmrInput>,
    barrier: Option<&std::sync::Barrier>,
    wait_go: &mut dyn FnMut(),
) -> ClientOut {
    let mut out = ClientOut {
        start_ns: mono_ns(),
        ..ClientOut::default()
    };
    if let Some(&cpu) = p.client_cpus.get(h.id()) {
        crate::host::pin_to(cpu);
    }
    let mut t = Tracer::new(p.traced);
    match p.workload {
        Workload::AmrEvents => {
            let amr = amr.expect("AMR input");
            let names: Vec<String> = (0..workload::AMR_VARS).map(workload::amr_var).collect();
            let mut app = workload::cm1_app(workload::AMR_GRID, p.seed ^ h.id() as u64);
            amr_io(h, amr, &names, 0, false, &mut t, &mut out);
            wait_go();
            for it in 1..=p.last() {
                t.call(Call::Step, NO_PARENT, it, || app.step());
                if let Some(b) = barrier {
                    b.wait();
                }
                amr_io(h, amr, &names, it, p.timed(it), &mut t, &mut out);
            }
        }
        Workload::Cm1Threads | Workload::Cm1Processes => {
            let ids: Vec<VarId> = workload::CM1_FIELDS
                .iter()
                .map(|f| h.var_id(f).expect("CM1 field is declared"))
                .collect();
            let mut app = workload::cm1_app(workload::CM1_GRID, p.seed);
            cm1_io(h, &app, &ids, 0, false, &mut t, &mut out);
            wait_go();
            for it in 1..=p.last() {
                for _ in 0..workload::CM1_STEPS_PER_OUTPUT {
                    t.call(Call::Step, NO_PARENT, it, || app.step());
                }
                cm1_io(h, &app, &ids, it, p.timed(it), &mut t, &mut out);
            }
        }
    }
    out.finalize_ns = mono_ns();
    if h.finalize().is_err() {
        out.failed_iterations.push(p.last());
    }
    out.skipped_writes = h.stats().skipped_writes;
    out.spans = t.spans;
    out
}

/// Record an iteration's I/O window (timed iterations only) and close
/// its span; `stamps` are its first call and its `end_iteration` entry.
fn finish_io(
    t: &mut Tracer,
    out: &mut ClientOut,
    io: u32,
    it: u64,
    timed: bool,
    (t0, entry): (u64, u64),
    ok: bool,
) {
    let t1 = mono_ns();
    if let Some(s) = t.spans.get_mut(io as usize) {
        (s.start, s.end) = (t0, t1);
    }
    if timed {
        out.io_ns.push(t1 - t0);
        out.end_entry_ns.push(entry);
    }
    if !ok {
        out.failed_iterations.push(it);
    }
}

fn cm1_io<H: SimHandle>(
    h: &mut H,
    app: &damaris::apps::Cm1,
    ids: &[VarId],
    it: u64,
    timed: bool,
    t: &mut Tracer,
    out: &mut ClientOut,
) {
    let fields = app.fields();
    let io = t.open(Call::Io, NO_PARENT, it);
    let t0 = mono_ns();
    let mut ok = true;
    for (&id, (_, data)) in ids.iter().zip(&fields) {
        let r = t.call(Call::Write, io, it, || h.write_id(id, it, data));
        ok &= matches!(r, Ok(WriteStatus::Written));
    }
    let entry = mono_ns();
    ok &= t
        .call(Call::EndIteration, io, it, || h.end_iteration(it))
        .is_ok();
    finish_io(t, out, io, it, timed, (t0, entry), ok);
}

fn amr_io<H: SimHandle>(
    h: &mut H,
    amr: &AmrInput,
    names: &[String],
    it: u64,
    timed: bool,
    t: &mut Tracer,
    out: &mut ClientOut,
) {
    let client = h.id();
    let io = t.open(Call::Io, NO_PARENT, it);
    let t0 = mono_ns();
    let mut ok = true;
    for (v, name) in names.iter().enumerate() {
        let src = amr.block(client, it, v);
        match t.call(Call::Alloc, io, it, || h.alloc_sized(name, it, src.len())) {
            Ok(mut w) if !w.is_skipped() => {
                t.call(Call::Fill, io, it, || w.as_mut_slice().copy_from_slice(src));
                let r = t.call(Call::Commit, io, it, || h.commit(w));
                ok &= matches!(r, Ok(WriteStatus::Written));
            }
            _ => ok = false,
        }
    }
    let entry = mono_ns();
    ok &= t
        .call(Call::EndIteration, io, it, || h.end_iteration(it))
        .is_ok();
    finish_io(t, out, io, it, timed, (t0, entry), ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_out_roundtrips() {
        let mut t = Tracer::new(true);
        t.call(Call::Step, NO_PARENT, 1, || ());
        let out = ClientOut {
            start_ns: 1,
            io_ns: vec![5, 6, 7],
            end_entry_ns: vec![8, 9, 10],
            finalize_ns: 11,
            failed_iterations: vec![2],
            skipped_writes: 3,
            spans: t.spans,
        };
        assert_eq!(ClientOut::decode(&out.encode()), out);
    }
}
