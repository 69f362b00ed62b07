//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one call into a layer of
//! the program, recorded from the benchmark's own code. Spans stay in
//! memory and are written out once, when the run ends. With tracing off
//! every call is a no-op, so the untraced run pays nothing.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans; `enter`/`exit` must pair up.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Writes every span as one JSON array (`id`, `name`, `start_ns`,
    /// `end_ns`, `parent`); nothing when tracing is off.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        assert!(self.open.is_empty(), "spans left open: {:?}", self.open);
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
