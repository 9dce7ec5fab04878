//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around each call
//! into a layer; spans inside the program are a later change. They stay in
//! memory during the run and are written as JSONL when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; `parent` is an index into the same recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// In-memory span store with a shared time origin.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's origin, for threads that stamp spans themselves.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<usize>, rep: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Times `f` under a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.start(name, parent, rep);
        let out = f();
        (out, self.end(id))
    }

    /// Adds a span another thread stamped against [`Spans::epoch`].
    pub fn add(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus the part of that interval
    /// its direct children cover (overlapping children counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_ns) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut s = Spans::new();
        s.add(span(0, 100, None));
        s.add(span(10, 30, Some(0)));
        s.add(span(20, 50, Some(0))); // overlaps the previous child
        s.add(span(25, 28, Some(1))); // grandchild: only its parent pays
        assert_eq!(s.self_times(), [60, 17, 30, 3]);
    }

    #[test]
    fn timed_spans_nest_and_measure() {
        let mut s = Spans::new();
        let root = s.start("root", None, 1);
        let (v, ns) = s.time("leaf", Some(root), 1, || 41 + 1);
        let total = s.end(root);
        assert_eq!(v, 42);
        assert!(total >= ns);
        assert_eq!(s.len(), 2);
    }
}
