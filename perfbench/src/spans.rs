//! In-memory spans around calls into each layer's public functions,
//! written out when the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (`stub`, `message`, ...).
    pub layer: &'static str,
    /// Function called.
    pub call: &'static str,
    /// Invocation id, `u64::MAX` when the call has none.
    pub invocation: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Items the call handled (completions drained, ...).
    pub items: u32,
}

/// A bounded span buffer; spans past the cap are counted, not kept.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// An empty recorder holding at most `cap` spans.
    pub fn new(cap: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Records a call that ran from `start` to `end`.
    pub fn record(
        &mut self,
        layer: &'static str,
        call: &'static str,
        invocation: u64,
        start: Instant,
        end: Instant,
        items: u32,
    ) {
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            layer,
            call,
            invocation,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            items,
        });
    }

    /// Spans of one call, in recording order.
    pub fn of<'a>(&'a self, layer: &'a str, call: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.call == call)
    }

    /// Spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans discarded at the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// CSV: `layer,call,invocation,start_ns,dur_ns,items`, invocation empty
    /// when the call has none.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(48 * self.spans.len() + 64);
        out.push_str("layer,call,invocation,start_ns,dur_ns,items\n");
        for s in &self.spans {
            let inv = if s.invocation == u64::MAX {
                String::new()
            } else {
                s.invocation.to_string()
            };
            let _ = writeln!(
                out,
                "{},{},{inv},{},{},{}",
                s.layer, s.call, s.start_ns, s.dur_ns, s.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_capped_filtered_and_serialized() {
        let mut s = Spans::new(2);
        let t = Instant::now();
        s.record("stub", "invoke_begin", 7, t, t, 1);
        s.record("stub", "drain_completed", u64::MAX, t, t, 3);
        s.record("stub", "invoke_begin", 8, t, t, 1);
        assert_eq!((s.len(), s.dropped()), (2, 1));
        assert_eq!(s.of("stub", "invoke_begin").count(), 1);
        let csv = s.to_csv();
        assert!(csv.starts_with("layer,call,invocation,start_ns,dur_ns,items\n"));
        assert!(csv.contains("stub,invoke_begin,7,"));
        assert!(csv.contains("stub,drain_completed,,"));
    }
}
