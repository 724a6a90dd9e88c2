//! Spans the benchmark records around its own calls into each layer's
//! public functions. Nothing inside the program is instrumented: a span
//! covers one call as the caller sees it. Spans stay in memory and are
//! written out when the run ends.

use std::io::Write;
use std::path::Path;

use crate::host::mono_ns;

/// The layer call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The iteration's I/O window: first Damaris call to the return of
    /// `end_iteration` (parent of the client calls).
    Io,
    /// `sim_apps` proxy step.
    Step,
    /// `SimHandle::write_id`.
    Write,
    /// `SimHandle::alloc_sized`.
    Alloc,
    /// Filling an allocated block in place.
    Fill,
    /// `SimHandle::commit`.
    Commit,
    /// `SimHandle::end_iteration`.
    EndIteration,
    /// `h5lite::FileReader` read-back of one dataset.
    ReadBack,
    /// `Subscriber::next_event`.
    Recv,
}

const CALLS: [Call; 9] = [
    Call::Io,
    Call::Step,
    Call::Write,
    Call::Alloc,
    Call::Fill,
    Call::Commit,
    Call::EndIteration,
    Call::ReadBack,
    Call::Recv,
];

impl Call {
    /// Span name: layer, then call.
    pub fn name(self) -> &'static str {
        match self {
            Call::Io => "e2e.io",
            Call::Step => "apps.step",
            Call::Write => "client.write",
            Call::Alloc => "client.alloc",
            Call::Fill => "client.fill",
            Call::Commit => "client.commit",
            Call::EndIteration => "client.end_iteration",
            Call::ReadBack => "format.read",
            Call::Recv => "serve.recv",
        }
    }
}

/// Index of a span's parent, or [`NO_PARENT`].
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// Monotonic nanoseconds at entry.
    pub start: u64,
    /// Monotonic nanoseconds at return.
    pub end: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Simulation iteration the call belongs to.
    pub iteration: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// A per-thread span buffer; inert (records nothing) when tracing is off.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Open a span now; its end is set by [`Tracer::close`].
    pub fn open(&mut self, call: Call, parent: u32, iteration: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            call,
            start: mono_ns(),
            end: 0,
            parent,
            iteration,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, idx: u32) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = mono_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn call<R>(&mut self, call: Call, parent: u32, iteration: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.open(call, parent, iteration);
        let out = f();
        self.close(idx);
        out
    }

    /// Durations in microseconds of every span of `call`.
    pub fn us_of(spans: &[Span], call: Call) -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.call == call)
            .map(Span::us)
            .collect()
    }

    /// Flatten spans to words (five per span) for the trip back from a
    /// rank process.
    pub fn to_words(spans: &[Span]) -> Vec<u64> {
        spans
            .iter()
            .flat_map(|s| {
                let call = CALLS.iter().position(|&c| c == s.call).expect("known call") as u64;
                [call, s.start, s.end, u64::from(s.parent), s.iteration]
            })
            .collect()
    }

    /// Inverse of [`Tracer::to_words`].
    pub fn from_words(words: &[u64]) -> Vec<Span> {
        words
            .chunks_exact(5)
            .map(|w| Span {
                call: CALLS[w[0] as usize],
                start: w[1],
                end: w[2],
                parent: w[3] as u32,
                iteration: w[4],
            })
            .collect()
    }
}

/// Write every session's spans as CSV
/// (`session,thread,name,start_ns,end_ns,parent,iteration`).
pub fn write_csv(path: &Path, sessions: &[(usize, usize, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "session,thread,name,start_ns,end_ns,parent,iteration")?;
    for &(session, thread, spans) in sessions {
        for s in spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{session},{thread},{},{},{},{parent},{}",
                s.call.name(),
                s.start,
                s.end,
                s.iteration
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_words_roundtrip() {
        let mut off = Tracer::new(false);
        assert_eq!(off.call(Call::Write, NO_PARENT, 1, || 7), 7);
        assert!(off.spans.is_empty());
        let mut on = Tracer::new(true);
        let io = on.open(Call::Io, NO_PARENT, 3);
        on.call(Call::Write, io, 3, || ());
        on.close(io);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, io);
        assert!(on.spans[0].start <= on.spans[1].start && on.spans[1].end <= on.spans[0].end);
        assert_eq!(Tracer::from_words(&Tracer::to_words(&on.spans)), on.spans);
    }
}
