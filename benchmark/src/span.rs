//! In-memory spans for the layer replay: name, start, end, the span that
//! caused it and the op they all belong to. Recorded from the benchmark's
//! own code around the calls into each layer; written out when the run ends.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `distance.apply_batch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The scripted op every span of one request shares.
    pub op: usize,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Copy, Clone, Debug)]
pub struct SpanId(usize);

/// Records the spans of one replay round.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            // Room for a whole round up front: a reallocation would land in
            // the same span of every round and survive the floor.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Rebuilds a tracer from finished spans (tests, trace readers).
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Tracer {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: usize) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping lands in the parent's self time.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover (children may overlap each other and
    /// may stick out of the parent; covered time is counted once and only
    /// inside the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// The spans as a JSON array, one object per span, with self times.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("[");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]");
        out
    }
}

/// Length of the union of `intervals`, clipped to `within`.
pub fn covered_ns(within: (u64, u64), mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = within.0;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(within.1);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}
