//! Benchmark-side spans: recorded from the benchmark's own files around
//! the calls into each crate's public functions, kept in memory, written
//! out as JSON lines when the run ends.
//!
//! A span is `id, parent, request, name, start_ns, end_ns, calls`. Spans
//! of one request share `request`. `calls > 1` marks an *aggregate*: the
//! summed duration of that many short calls (clause fetches, candidate
//! lookups) inside the parent, laid end to end from the parent's start —
//! a span per fetch would cost more than the fetch.

use std::io::Write as _;
use std::time::Instant;

use crate::stats::covered;

/// `request` of spans that belong to no request (commits, set-up).
pub const NO_REQUEST: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 = a root span.
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder was created.
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now; returns its id (ids start at 1).
    pub fn open(&mut self, parent: u32, request: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        id
    }

    /// Close span `id` now; returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, request, name);
        let out = f();
        self.close(id);
        out
    }

    /// Record `calls` calls totalling `total_ns` as one aggregate child of
    /// `parent`, starting `offset_ns` after the parent's start.
    pub fn aggregate(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        offset_ns: u64,
        total_ns: u64,
        calls: u32,
    ) {
        let start_ns = self.spans[parent as usize - 1].start_ns + offset_ns;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            calls,
        });
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover. Indexed like [`all`](Self::all).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Write the spans of `recorders` to `path`, one JSON object per
    /// line; ids of later recorders are shifted past the earlier ones', so
    /// they stay unique in the file. Returns the number of spans written.
    pub fn write_jsonl(path: &std::path::Path, recorders: &[&Spans]) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut shift = 0u32;
        for recorder in recorders {
            for s in &recorder.spans {
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                    s.id + shift,
                    if s.parent == 0 { 0 } else { s.parent + shift },
                    if s.request == NO_REQUEST { -1 } else { i64::from(s.request) },
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.calls
                )?;
            }
            shift += recorder.spans.len() as u32;
        }
        out.flush()?;
        Ok(shift as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x",
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = Spans {
            t0: Instant::now(),
            spans: vec![
                span(1, 0, 0, 100),
                span(2, 1, 10, 40),
                span(3, 1, 30, 60), // overlaps span 2
                span(4, 2, 15, 20), // grandchild: only shrinks span 2
            ],
        };
        assert_eq!(spans.self_times(), vec![50, 25, 30, 5]);
    }

    #[test]
    fn aggregates_lie_inside_the_parent_from_its_start() {
        let mut spans = Spans::new();
        let p = spans.open(0, 7, "engine");
        spans.aggregate(p, 7, "fetch", 0, 300, 12);
        spans.aggregate(p, 7, "candidates", 300, 200, 5);
        spans.spans[0].end_ns = spans.spans[0].start_ns + 1_000;
        let all = spans.all();
        assert_eq!(all[1].start_ns, all[0].start_ns);
        assert_eq!(all[2].start_ns, all[1].end_ns);
        assert_eq!((all[1].calls, all[2].calls), (12, 5));
        assert_eq!(spans.self_times()[0], 500);
    }

    #[test]
    fn open_close_nest_and_time() {
        let mut spans = Spans::new();
        let root = spans.open(0, 1, "request");
        let got = spans.time(root, 1, "parse", || 42);
        assert_eq!(got, 42);
        spans.close(root);
        let all = spans.all();
        assert_eq!(all[1].parent, root);
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
    }
}
