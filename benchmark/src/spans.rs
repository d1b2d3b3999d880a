//! In-memory spans around calls into each layer, written out when the run
//! ends. Nothing here touches the daemon: the spans are recorded by the
//! benchmark's own code at the layer boundaries it calls through.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Items the span covers (events, queries, frames): one span per call
    /// batch, not per item.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. Tracers of helper threads share the
/// parent's time origin and are merged back with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    /// Off for the untraced run: [`Tracer::span`] then only times `f`.
    pub enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    /// Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_nanos() as u64);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            count,
        });
        self.stack.push(id);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.stack.pop();
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        (out, end - start)
    }

    /// Merge a helper thread's spans; its roots become children of the span
    /// currently open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let adopt = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut upto = me.start_ns;
        for (a, b) in kids {
            let a = a.max(upto);
            if b > a {
                covered += b - a;
                upto = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Self time summed per layer, in first-seen order.
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for id in 0..self.spans.len() {
            let layer = self.spans[id].layer;
            let ns = self.self_ns(id);
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += ns,
                None => out.push((layer, ns)),
            }
        }
        out
    }

    /// The span file: one object per span, ids are array positions.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"workload\": \"{workload}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \
                 \"count\": {}}}{}\n",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                s.count,
                if id + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            layer: "l",
            start_ns: start,
            end_ns: end,
            parent,
            count: 1,
        }
    }

    #[test]
    fn nesting_sets_parents_and_durations() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.span("a", "outer", 2, |t| {
            t.span("b", "inner", 1, |_| std::hint::black_box(0u64));
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].dur_ns(), outer);
        assert!(t.spans[1].start_ns >= t.spans[0].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(100, 200, None),
            span(110, 130, Some(0)),
            // Overlaps the previous child (a helper thread) and the parent's end.
            span(120, 150, Some(0)),
            span(190, 260, Some(0)),
            // A grandchild does not count against the grandparent.
            span(111, 112, Some(1)),
        ];
        // Covered: [110,150) and [190,200) = 50 of 100.
        assert_eq!(t.self_ns(0), 50);
        assert_eq!(t.self_ns(1), 19);
        assert_eq!(t.self_ns(4), 1);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.span("a", "x", 1, |t| t.span("a", "y", 1, |_| 5).0);
        assert_eq!(v, 5);
        assert!(ns < 1_000_000_000);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorbed_roots_hang_under_the_open_span() {
        let mut main = Tracer::new(true);
        let mut helper = main.fork();
        helper.span("net", "send", 3, |h| {
            h.span("net", "write", 1, |_| ());
        });
        main.span("e2e", "ingest", 3, |m| m.absorb(helper));
        assert_eq!(main.spans[1].parent, Some(0));
        assert_eq!(main.spans[2].parent, Some(1));
        let json = main.to_json("w");
        assert!(json.contains("\"workload\": \"w\""));
        assert_eq!(json.matches("\"id\"").count(), 3);
    }
}
