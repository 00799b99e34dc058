//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public API (never inside the program). A span holds its name,
//! start, end, parent and request id; wire spans also hold the frame
//! sizes. Spans stay in per-thread memory while the workload runs, are
//! gathered when each thread ends, and are written out once at exit.
//! With tracing off every entry point is a single relaxed load.

use bytes::Bytes;
use dlr_protocol::{Transport, TransportError};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static GATHERED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    pub request: u64,
    /// Request and reply frame sizes (wire spans only).
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Turn recording on or off (off by default).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Set the request id that spans opened on this thread carry.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

fn open(name: &'static str) -> usize {
    let parent = STACK.with(|s| s.borrow().last().copied());
    let request = REQUEST.with(Cell::get);
    let index = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request,
            bytes_out: 0,
            bytes_in: 0,
        });
        l.len() - 1
    });
    STACK.with(|s| s.borrow_mut().push(index));
    index
}

fn close(index: usize) {
    STACK.with(|s| s.borrow_mut().pop());
    LOCAL.with(|l| l.borrow_mut()[index].end_ns = now_ns());
}

/// Run `f` inside a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let index = open(name);
    let out = f();
    close(index);
    out
}

/// Hand this thread's spans to the shared list; call before a traced
/// thread ends.
pub fn gather_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !spans.is_empty() {
        GATHERED.lock().expect("trace list lock").push(spans);
    }
}

/// Take every gathered span list (one per thread), the caller's included.
pub fn take_all() -> Vec<Vec<Span>> {
    gather_thread();
    std::mem::take(&mut *GATHERED.lock().expect("trace list lock"))
}

/// Per-name aggregate of a span set.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSum {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl SpanSum {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub fn summarize(threads: &[Vec<Span>]) -> BTreeMap<&'static str, SpanSum> {
    let mut out: BTreeMap<&'static str, SpanSum> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(child);
            e.bytes_out += s.bytes_out;
            e.bytes_in += s.bytes_in;
        }
    }
    out
}

/// Span list as JSON lines text: a header line, then one object per span.
pub fn to_json_lines(header: &str, threads: &[Vec<Span>]) -> String {
    let mut out = String::with_capacity(64 + 128 * threads.iter().map(Vec::len).sum::<usize>());
    out.push_str(header);
    out.push('\n');
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"thread\":{t},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"bytes_out\":{},\"bytes_in\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.request, s.bytes_out, s.bytes_in
            ));
        }
    }
    out
}

/// A client transport that records one wire span per request/reply round
/// trip (send of a request frame until its reply frame is received),
/// named by the request tag. Records nothing while tracing is off, and is
/// not even installed when the run is untraced.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    pending: Option<(usize, u64)>,
}

impl TracedTransport {
    pub fn wrap(inner: Box<dyn Transport>) -> Box<dyn Transport> {
        if enabled() {
            Box::new(Self {
                inner,
                pending: None,
            })
        } else {
            inner
        }
    }
}

/// Wire span name for a request frame's tag byte.
fn round_name(frame: &[u8]) -> &'static str {
    match frame.first() {
        Some(1) => "wire.decrypt",
        Some(2) => "wire.refresh",
        Some(4) => "wire.hello",
        Some(5) => "wire.topology",
        _ => "wire.other",
    }
}

impl Transport for TracedTransport {
    fn send(&mut self, msg: Bytes) -> Result<(), TransportError> {
        if !enabled() {
            self.pending = None;
            return self.inner.send(msg);
        }
        let index = open(round_name(&msg));
        self.pending = Some((index, msg.len() as u64));
        let out = self.inner.send(msg);
        if out.is_err() {
            self.pending = None;
            close(index);
        }
        out
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        let out = self.inner.recv();
        if let Some((index, sent)) = self.pending.take() {
            close(index);
            let got = out.as_ref().map_or(0, |b| b.len() as u64);
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l[index].bytes_out = sent;
                l[index].bytes_in = got;
            });
        }
        out
    }
}
