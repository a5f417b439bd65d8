//! The harness's own spans: recorded around calls into each layer's public
//! functions, kept in memory, written out when the run ends.

use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One span: a named interval caused by `parent`, belonging to operation
/// `op`. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op);
        let out = f();
        (out, self.close(id))
    }

    /// Write every span as a JSON array (one object per line).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time (from [`self_times_ns`]) and span count per span name,
/// in first-seen order.
pub fn self_time_by_name(spans: &[Span], self_ns: &[u64]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, &self_ns) in spans.iter().zip(self_ns) {
        match out.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += self_ns;
                entry.2 += 1;
            }
            None => out.push((span.name, self_ns, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("stmt", 10, 40, 0),
            span("stmt", 50, 90, 0),
            span("exec", 55, 75, 2),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![30, 30, 20, 20]);
        assert_eq!(
            self_time_by_name(&spans, &selfs),
            vec![("op", 30, 1), ("stmt", 50, 2), ("exec", 20, 1)]
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span("parent", 100, 200, NO_PARENT),
            span("a", 90, 150, 0), // starts before the parent: clipped to 100..150
            span("b", 140, 180, 0), // overlaps a: only 150..180 is new
            span("c", 190, 260, 0), // ends after the parent: clipped to 190..200
        ];
        // Covered: 50 + 30 + 10 = 90 of 100.
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        let root = t.open("op", NO_PARENT, 7);
        let ((), inner_ns) = t.span("stmt", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_ns = t.close(root);
        assert!(root_ns >= inner_ns && inner_ns >= 2_000_000);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[1].op, 7);
        let selfs = self_times_ns(&t.spans);
        assert_eq!(selfs[0], root_ns - inner_ns);
    }
}
