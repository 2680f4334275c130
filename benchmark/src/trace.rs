//! Spans recorded around calls into each layer, from the benchmark's
//! side of the API. Spans stay in memory and are written out once, at
//! the end of the traced pass; the untraced pass never touches this.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it (0 = root).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Time one call as a span under `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// One JSON object per line: `{id, parent, name, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::new();
        let root = t.begin("root", 0);
        for _ in 0..2 {
            t.span("child", root, || std::thread::sleep(std::time::Duration::from_millis(2)));
        }
        t.end(root);
        assert_eq!(t.count("child"), 2);
        assert!(t.total_s("child") >= 0.004);
        assert!(t.total_s("root") >= t.total_s("child"));
        assert!(t.spans.iter().filter(|s| s.name == "child").all(|s| s.parent == root));
    }
}
