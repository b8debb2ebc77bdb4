//! Spans: recorded in memory from the benchmark's own files, around the
//! calls into each layer, and written out when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Spans written to a trace file; a longer run says so in the header.
const MAX_WRITTEN: usize = 100_000;

/// One timed interval. `parent` is the span that caused it (0 for a
/// root); spans of one transaction share `txn`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One recorder per thread; ids are made unique across recorders by the
/// `lane` in their top bits.
#[derive(Debug)]
pub struct Tracer {
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(lane: u64) -> Tracer {
        Tracer { lane: lane << 48, next: 0, spans: Vec::new() }
    }

    /// Reserve an id for a span whose end is not yet known, so children
    /// can name it as their parent.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.lane | self.next
    }

    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        txn: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span { id, parent, txn, name, start_ns, end_ns });
    }

    /// Record a finished leaf span.
    pub fn leaf(&mut self, parent: u64, txn: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.open();
        self.close(id, parent, txn, name, start_ns, end_ns);
    }
}

/// Write the first [`MAX_WRITTEN`] spans of `spans` as JSON. Span names
/// are identifiers from this crate, so nothing needs escaping.
pub fn write(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    let written = &spans[..spans.len().min(MAX_WRITTEN)];
    let mut json = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"total_spans\":{},\"truncated\":{},\"spans\":[",
        spans.len(),
        written.len() < spans.len()
    );
    for (i, s) in written.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.txn,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    json.push_str("\n]}\n");
    std::fs::write(path, json)
}
