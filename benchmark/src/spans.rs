//! The outside-in stage trace: spans recorded by the benchmark's own code
//! around its calls into each layer, kept in memory and written out once
//! the run ends.

use crate::json::{num, quote};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span; ids start at 1.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Spans nest: `begin` makes the new span a
/// child of the innermost open one.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id` (and any span opened inside it that is still open),
    /// returning its duration in nanoseconds.
    #[inline]
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        while let Some(open) = self.open.pop() {
            self.spans[open as usize - 1].end_ns = end_ns;
            if open == id {
                break;
            }
        }
        self.spans[id as usize - 1].duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Spans of one recorder nest and siblings never
/// overlap, so the covered part is the sum of the children, clipped to the
/// parent. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize - 1] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

pub fn stage_totals(spans: &[Span]) -> BTreeMap<&'static str, StageTotal> {
    let mut totals: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    totals
}

/// The trace file: per-stage totals first (what a reader wants), then
/// every span with its parent link.
pub fn to_json(workload: &str, fingerprint_json: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 72);
    let _ = write!(
        out,
        "{{\"workload\":{},\"fingerprint\":{},\"stages\":{{",
        quote(workload),
        fingerprint_json
    );
    for (i, (name, t)) in stage_totals(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            quote(name),
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            quote(s.name),
            num(s.start_ns as f64),
            num(s.end_ns as f64)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // trial [0,100) -> phase [10,90) -> block [20,60) -> stages [20,30) [30,55)
        //                               \-> block [60,80) (no stages)
        let spans = [
            span(1, 0, "trial", 0, 100),
            span(2, 1, "phase", 10, 90),
            span(3, 2, "block", 20, 60),
            span(4, 3, "stage", 20, 30),
            span(5, 3, "stage", 30, 55),
            span(6, 2, "block", 60, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 5, 10, 25, 20]);
        let totals = stage_totals(&spans);
        assert_eq!(
            totals["block"],
            StageTotal {
                count: 2,
                total_ns: 60,
                self_ns: 25
            }
        );
        assert_eq!(totals["stage"].self_ns, 35);
        // Self times partition the root: nothing is counted twice.
        let all: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(all, 100);
    }

    #[test]
    fn recorder_links_parents_and_closes_nested_spans() {
        let mut r = Recorder::new();
        let a = r.begin("a");
        let b = r.begin("b");
        let c = r.begin("c");
        r.end(c);
        let d = r.begin("d");
        // Ending `a` closes the still-open `b` and `d` too.
        r.end(a);
        let e = r.begin("e");
        r.end(e);
        let parents: Vec<u32> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, a, b, b, 0]);
        assert_eq!((a, b, c, d, e), (1, 2, 3, 4, 5));
        for s in r.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let doc = Json::parse(&to_json("w", "{}", r.spans())).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().len(), 5);
        assert_eq!(
            doc.get("stages")
                .unwrap()
                .get("a")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
