//! In-memory span recorder for the traced run.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer: name, start, end, the span that caused it, and the op it
//! belongs to. Spans stay in memory and are written as NDJSON when the
//! run ends; a layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`, e.g. `solver.allocate`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (request) this span belongs to; `None` for layer probes
    /// made outside any op.
    pub op: Option<u64>,
}

impl Span {
    /// Span length in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records nested spans on one thread. Client threads each own one
/// recorder on a shared epoch; [`Recorder::absorb`] merges them.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), open: Vec::new(), op: None }
    }

    /// Tag the spans recorded from now on with this op id.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`. `f` gets the recorder back
    /// so it can record child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span in nanoseconds: its length minus the part of
/// its interval that its direct children cover (overlapping children
/// are counted once; a child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Write one JSON object per span.
pub fn write_ndjson(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        // Names are `&'static str` literals of this crate (no escaping
        // needed); everything else is a number or null.
        write!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}",
            s.name, s.start_ns, s.end_ns
        )?;
        match s.parent {
            Some(p) => write!(out, ",\"parent\":{p}")?,
            None => write!(out, ",\"parent\":null")?,
        }
        match s.op {
            Some(op) => writeln!(out, ",\"op\":{op}}}")?,
            None => writeln!(out, ",\"op\":null}}")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, op: None }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(0, 100, None),    // two children, 20..50 and 60..70
            span(20, 50, Some(0)), // one grandchild
            span(30, 40, Some(1)), // leaf
            span(60, 70, Some(0)), // leaf
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = [
            span(10, 100, None),
            span(20, 60, Some(0)),
            span(40, 80, Some(0)),  // overlaps the previous child by 20
            span(90, 130, Some(0)), // sticks out of the parent by 30
            span(0, 5, Some(0)),    // entirely outside: covers nothing
        ];
        // covered: 20..80 (60) + 90..100 (10)
        assert_eq!(self_times_ns(&spans)[0], 90 - 70);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_op(Some(7));
        let got = rec.span("outer", |rec| rec.span("inner", |_| 42));
        rec.set_op(None);
        rec.span("probe", |_| ());
        assert_eq!(got, 42);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, Some(7)));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), Some(7)));
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("probe", None, None));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.span("a", |_| ());
        let mut b = Recorder::new(epoch);
        b.span("b", |rec| rec.span("c", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut text = Vec::new();
        write_ndjson(a.spans(), &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            paradigm_mdg::parse_json(line).expect("each span is one JSON object");
        }
    }
}
