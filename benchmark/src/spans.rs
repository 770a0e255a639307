//! Spans recorded from the benchmark's own files, around its calls into
//! the simulator. Kept in memory and written out when the run ends.
//!
//! Timed reps run with the recorder off, where `scoped` is one branch.
//! Slices are the exception: a rep's run is cut into slices, and each
//! slice's host time is kept whether or not spans are recorded, because
//! the timed run's `wall_s` is built from them.

use std::time::Instant;

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`setup`, `build`, `run`, `slice[3]`, ...).
    pub name: String,
    /// Host ns since the recorder was created.
    pub start_ns: u64,
    /// Host ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The rep this span belongs to: spans of one rep share the id.
    pub rep: u32,
    /// Numbers attached to the span (the phase table on `run`).
    pub attrs: Vec<(String, f64)>,
}

/// An in-memory span recorder.
pub struct Spans {
    on: bool,
    t0: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    slice_s: Vec<f64>,
}

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            slice_s: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span named `name`, child of the current span.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
            attrs: Vec::new(),
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Run `f` as the next slice of the current rep's run: its host time
    /// is kept for [`Spans::take_slices`], and it is a span `slice[i]`.
    pub fn slice<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = if self.on {
            let name = format!("slice[{}]", self.slice_s.len());
            self.scoped(&name, |_| f())
        } else {
            f()
        };
        self.slice_s.push(t0.elapsed().as_secs_f64());
        r
    }

    /// Host seconds of each slice run since the last call, in order.
    pub fn take_slices(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.slice_s)
    }

    /// Attach a number to the most recently closed span named `name`.
    pub fn attach(&mut self, name: &str, key: &str, value: f64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            s.attrs.push((key.to_string(), value));
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The recorded spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{}",
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            ));
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (j, (k, v)) in s.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{k}\":{}", crate::report::num(*v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.set_rep(7);
        s.scoped("outer", |s| {
            s.scoped("inner", |_| std::hint::black_box(0));
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].rep, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(s.self_ns(0), spans[0].end_ns - spans[0].start_ns - inner);
        let doc = sim_trace::json::parse(&s.to_json("w")).expect("valid JSON");
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.scoped("x", |_| 3), 3);
        assert!(s.spans().is_empty());
    }
}
