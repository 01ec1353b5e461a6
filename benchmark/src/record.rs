//! Benchmark-side spans: one around every call the benchmark makes into a
//! layer (`MpiWorld::new`, `run_ranks`, `Simulation::run`, the collective
//! init, each step, buffer fill/readback, reference and verify). Spans are
//! kept in memory and written out once, at exit.
//!
//! Every simulation process runs on its own OS thread but only one runs at
//! a time, and the main thread is parked inside `Simulation::run` while
//! they do, so a single stack of open spans gives each span its parent.

use std::sync::Arc;
use std::time::Instant;

use parcomm_sim::Mutex;

/// One recorded span. Wall times are seconds since process start; virtual
/// times are the simulated µs at entry and exit, when the call ran inside a
/// simulation process.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub wall_start: f64,
    pub wall_end: f64,
    pub virt_start_us: Option<f64>,
    pub virt_end_us: Option<f64>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared span recorder. Cheap to clone; clones share the span list.
#[derive(Clone)]
pub struct Recorder {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&self, name: &'static str, virt_us: Option<f64>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let mut st = self.state.lock();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name,
            parent,
            wall_start: now,
            wall_end: now,
            virt_start_us: virt_us,
            virt_end_us: None,
        });
        st.open.push(id);
        id
    }

    /// Close span `id` and any span still open inside it (left open by a
    /// rank that failed mid-step).
    pub fn exit(&self, id: usize, virt_us: Option<f64>) {
        let now = self.origin.elapsed().as_secs_f64();
        let mut st = self.state.lock();
        if !st.open.contains(&id) {
            return;
        }
        while let Some(top) = st.open.pop() {
            st.spans[top].wall_end = now;
            if top == id {
                st.spans[top].virt_end_us = virt_us;
                break;
            }
        }
    }

    /// Run `f` inside a span with no virtual timestamps.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, None);
        let out = f();
        self.exit(id, None);
        out
    }

    /// Self time of every span: its duration minus the union of the
    /// intervals its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let st = self.state.lock();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                children[p].push((s.wall_start, s.wall_end));
            }
        }
        st.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut horizon) = (0.0, s.wall_start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(horizon), b.min(s.wall_end));
                    if b > a {
                        covered += b - a;
                        horizon = b;
                    }
                }
                (s.wall_end - s.wall_start - covered).max(0.0)
            })
            .collect()
    }

    /// Per span name: `(name, count, total seconds, self seconds)`, in
    /// first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self.self_times();
        let st = self.state.lock();
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in st.spans.iter().zip(selfs) {
            let dur = s.wall_end - s.wall_start;
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += dur;
                    e.3 += own;
                }
                None => out.push((s.name, 1, dur, own)),
            }
        }
        out
    }

    /// Every span as one JSON object per line, self time included.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let st = self.state.lock();
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v}"));
        let mut out = String::new();
        for (i, (s, own)) in st.spans.iter().zip(selfs).enumerate() {
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"wall_start_s\": {}, \
                 \"wall_end_s\": {}, \"self_s\": {own}, \"virt_start_us\": {}, \"virt_end_us\": {}}}\n",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.wall_start,
                s.wall_end,
                opt(s.virt_start_us),
                opt(s.virt_end_us),
            ));
        }
        out
    }
}
