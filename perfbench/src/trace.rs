//! The benchmark's own spans: one around each call into a layer's public
//! function, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Start and end, in ns since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request the call served: client in the high bits, the
    /// client's sequence number in the low 40.
    pub req: u64,
}

/// A span buffer; a disabled one records nothing and costs one branch.
pub struct Spans {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Spans {
        Spans {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Starts a span (the start instant, when tracing).
    pub fn open(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    pub fn close(&mut self, name: &'static str, start: Option<Instant>, req: u64) {
        if let Some(start) = start {
            let end = Instant::now();
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                req,
            });
        }
    }
}

pub fn request_id(client: usize, seq: u64) -> u64 {
    ((client as u64) << 40) | seq
}

/// Writes every span as one JSON object per line, each tagged with the
/// rung it was recorded on.
pub fn write_spans(path: &Path, rungs: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rung, spans) in rungs {
        for s in *spans {
            writeln!(
                out,
                "{{\"rung\":\"{rung}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
}
